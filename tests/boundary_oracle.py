"""Per-pass boundary statistics: the reference for ``chunkeval.boundary_stats``.

``chunkeval.analysis.boundary_stats`` counts each sample's edits once, per
token and per point, and classifies each held-out edit by one lookup of
those counts less its own annotator's share, with no slot merged per pass.
This ``boundary_stats`` lays out every chunk of every pass with
``slot_spans`` and tests each held-out edit against every slot and then
every unchanged chunk. The tests require the two to agree exactly.
"""

import math
from collections.abc import Sequence

from chunkeval import AnnotatedSample, BoundaryStats, NoChunksError, TooFewAnnotatorsError
from chunkeval.chunker import slot_spans


def _classify_edit(edit, slots, unchanged) -> str:
    # Closed-interval containment; slots take precedence so a point edit on
    # a slot boundary counts as in-chunk.
    s, e = edit.start, edit.end
    for a, b in slots:
        if a <= s and e <= b:
            return "icc"
    for a, b in unchanged:
        if a <= s and e <= b:
            return "iuc"
    return "cc"


def boundary_stats(
    samples: Sequence[AnnotatedSample], per_pass_mean: bool = False
) -> BoundaryStats:
    counts = {"icc": 0, "iuc": 0, "cc": 0}
    pass_ratios: list[tuple[float, float, float]] = []
    for i, sample in enumerate(samples):
        ids = sample.annotator_ids
        if len(ids) < 2:
            raise TooFewAnnotatorsError(
                f"sample {i + 1} has {len(ids)} annotator(s); need at least 2"
            )
        for held_out in ids:
            spans, changed = slot_spans(
                len(sample.source),
                [sample.annotations[aid] for aid in ids if aid != held_out],
            )
            slots = [spans[k] for k in changed]
            unchanged = [span for k, span in enumerate(spans) if k not in changed]
            local = {"icc": 0, "iuc": 0, "cc": 0}
            for edit in sample.annotations[held_out]:
                local[_classify_edit(edit, slots, unchanged)] += 1
            for key, value in local.items():
                counts[key] += value
            m = sum(local.values())
            if m:
                pass_ratios.append(
                    (local["icc"] / m, local["iuc"] / m, local["cc"] / m)
                )
    total = counts["icc"] + counts["iuc"] + counts["cc"]
    if total == 0:
        raise NoChunksError("no held-out edits; boundary ratios are undefined")
    if per_pass_mean:
        icc = math.fsum(r[0] for r in pass_ratios) / len(pass_ratios)
        iuc = math.fsum(r[1] for r in pass_ratios) / len(pass_ratios)
        cc = math.fsum(r[2] for r in pass_ratios) / len(pass_ratios)
    else:
        icc = counts["icc"] / total
        iuc = counts["iuc"] / total
        cc = counts["cc"] / total
    return BoundaryStats(
        icc, iuc, cc, counts["icc"], counts["iuc"], counts["cc"], total
    )
