"""Boundary statistics and correlation against human judgment tables.

Boundary statistics hold each annotator out in turn, merge the remaining
annotators' edits into changed slots, and classify every held-out edit as
falling inside a changed slot (ICC), inside an unchanged chunk (IUC), or
crossing a boundary (CC). The chunk statistics of ``corpus_stats`` splice
each reference through ``chunker.splice_slots``, as ``partition`` does.
"""

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .chunker import slot_spans, splice_slots
from .corpus import AnnotatedSample, split_lines
from .errors import (
    DegenerateError,
    NoChunksError,
    ParseError,
    SystemMismatchError,
    TooFewAnnotatorsError,
)
from .scoring import headline_column


@dataclass(frozen=True)
class BoundaryStats:
    """Hold-one-out containment ratios with their raw tallies."""

    icc: float
    iuc: float
    cc: float
    icc_count: int
    iuc_count: int
    cc_count: int
    edits_total: int


def _hold_out(
    intervals: list[tuple[int, int, int]], held_out: int, edits
) -> tuple[int, int, int]:
    """ICC, IUC and CC counts of one annotator's edits against all the others'.

    ``intervals`` holds every annotator's sorted (start, end, id). The others'
    closed intervals that overlap or touch merge into slots, which take
    precedence: a point edit on a slot boundary counts as in-chunk.
    """
    starts, ends, end = [], [], -1
    for s, e, aid in intervals:
        if aid != held_out and e > end:
            if s > end:
                starts.append(s)
                ends.append(e)
            else:
                ends[-1] = e
            end = e
    starts.append(math.inf)  # a sentinel slot after the source end
    ends.append(math.inf)
    icc = iuc = cc = 0
    j = 0
    for edit in edits:  # sorted and disjoint, so the slot pointer only moves on
        s, e = edit.start, edit.end
        while ends[j] < s:
            j += 1
        if starts[j] <= s and e <= ends[j]:
            icc += 1
        # in the unchanged chunk before slot j, or in the one after it
        elif e <= starts[j] or s == ends[j] and e <= starts[j + 1]:
            iuc += 1
        else:
            cc += 1
    return icc, iuc, cc


def boundary_stats(
    samples: Sequence[AnnotatedSample], per_pass_mean: bool = False
) -> BoundaryStats:
    """Exhaustive hold-one-out boundary statistics over a reference set.

    With ``per_pass_mean`` the three ratios are averaged over hold-out
    passes instead of pooled over all held-out edits; the raw tallies are
    pooled either way. A pass whose held-out annotator has no edits adds
    nothing to either, so it is skipped.
    """
    icc = iuc = cc = 0
    pass_ratios: list[tuple[float, float, float]] = []
    for i, sample in enumerate(samples):
        ids = sample.annotator_ids
        if len(ids) < 2:
            raise TooFewAnnotatorsError(
                f"sample {i + 1} has {len(ids)} annotator(s); need at least 2"
            )
        intervals = sorted(
            (e.start, e.end, aid) for aid in ids for e in sample.annotations[aid]
        )
        for held_out in ids:
            edits = sample.annotations[held_out]
            if not edits:
                continue
            local = _hold_out(intervals, held_out, edits)
            icc, iuc, cc = icc + local[0], iuc + local[1], cc + local[2]
            if per_pass_mean:
                m = len(edits)  # every held-out edit has exactly one class
                pass_ratios.append((local[0] / m, local[1] / m, local[2] / m))
    total = icc + iuc + cc
    if total == 0:
        raise NoChunksError("no held-out edits; boundary ratios are undefined")
    if per_pass_mean:
        ratios = [math.fsum(r[k] for r in pass_ratios) / len(pass_ratios) for k in range(3)]
    else:
        ratios = [icc / total, iuc / total, cc / total]
    return BoundaryStats(*ratios, icc, iuc, cc, total)


def _ratio(total: int, count: int) -> float:
    """``total / count``, or 0.0 for no items: the exact quotient rounded
    once, as ``math.fsum`` of the items over their count is."""
    return total / count if count else 0.0


def corpus_stats(samples: Sequence[AnnotatedSample]) -> dict:
    """Reference-set statistics: sentence/reference/edit/chunk counts and lengths.

    Every reference has every chunk of its sentence's shared segmentation.
    Each chunk starts as unchanged, and an insertion slot as a dummy chunk,
    which counts as neither. ``splice_slots`` splices each reference: at a
    slot ``(a, b)`` where it yields a segment, the chunk counts as changed
    instead, with the larger of the two lengths, and the reference's length
    gains ``len(segment) - (b - a)``. Counts and token sums are ints.
    """
    n_refs = ref_sum = n_edits = edit_sum = 0
    n_unchanged = unchanged_sum = n_changed = changed_sum = 0
    for sample in samples:
        source, n = sample.source, len(sample.source)
        refs = [sample.annotations[aid] for aid in sample.annotator_ids]
        spans, changed = slot_spans(n, refs)
        slots = [spans[k] for k in changed]
        kept = [source[a:b] for a, b in slots]
        # the unchanged spans and the non-empty slots cover the source
        n_unchanged += (len(spans) - sum(a == b for a, b in slots)) * len(refs)
        unchanged_sum += n * len(refs)
        n_refs += len(refs)
        ref_sum += n * len(refs)
        for edits in refs:
            n_edits += len(edits)
            for e in edits:
                edit_sum += len(e.replacement)
            for k, segment in splice_slots(source, edits, slots, kept):
                width, length = len(kept[k]), len(segment)
                ref_sum += length - width
                if width:
                    n_unchanged -= 1
                    unchanged_sum -= width
                n_changed += 1
                changed_sum += length if length > width else width

    n_chunks = n_unchanged + n_changed
    return {
        "sentences": len(samples),
        "avg_sentence_length": _ratio(sum(len(s.source) for s in samples), len(samples)),
        "references": n_refs,
        "avg_reference_length": _ratio(ref_sum, n_refs),
        "edits": n_edits,
        "avg_edit_length": _ratio(edit_sum, n_edits),
        "unchanged_chunks": n_unchanged,
        "unchanged_chunk_share": _ratio(n_unchanged, n_chunks),
        "avg_unchanged_chunk_length": _ratio(unchanged_sum, n_unchanged),
        "changed_chunks": n_changed,
        "changed_chunk_share": _ratio(n_changed, n_chunks),
        "avg_changed_chunk_length": _ratio(changed_sum, n_changed),
    }


def _unit_scale(xs: Sequence[float]) -> list[float]:
    """``xs`` times the power of two that puts max |x| in [0.5, 1).

    The scaling is exact, so Pearson is unchanged, and squares of huge
    scores can no longer overflow.
    """
    shift = -math.frexp(max(abs(x) for x in xs))[1]
    return [math.ldexp(x, shift) for x in xs]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    xs, ys = _unit_scale(xs), _unit_scale(ys)
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateError("correlation undefined for a constant list")
    return sxy / math.sqrt(sxx * syy)


def _ranks(xs: Sequence[float]) -> list[float]:
    """Fractional ranks (1-based), ties averaged."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson on average-tie ranks."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return pearson(_ranks(xs), _ranks(ys))


@dataclass(frozen=True)
class HumanTable:
    """System id -> human score."""

    scores: dict[str, float]


def correlate(
    metric_scores: Mapping[str, float], human: HumanTable
) -> tuple[float, float]:
    """(Pearson, Spearman) of metric vs human scores aligned by system id."""
    metric_ids = set(metric_scores)
    human_ids = set(human.scores)
    if metric_ids != human_ids:
        raise SystemMismatchError(metric_ids - human_ids, human_ids - metric_ids)
    systems = sorted(metric_ids)
    if len(systems) < 3:
        raise DegenerateError(
            f"correlation needs at least 3 systems, got {len(systems)}"
        )
    xs = [metric_scores[s] for s in systems]
    ys = [human.scores[s] for s in systems]
    return pearson(xs, ys), spearman(xs, ys)


def _table(text: str) -> Iterator[tuple[int, list[str]]]:
    """A score table's numbered lines as stripped cells: the header, then its rows.

    Blank and ``#`` lines are skipped wherever they stand, and the first
    other line is the header. A line whose cells equal the header's is
    skipped, so concatenated tables read as one.
    """
    header = None
    for lineno, line in enumerate(split_lines(text), 1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split("\t")]
        if header is None:
            header = cells
        elif cells == header:
            continue
        elif len(cells) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(cells)}", lineno)
        yield lineno, cells


def _scores(rows: Iterable[tuple[int, list[str]]], name: int, score: int) -> dict[str, float]:
    """System -> finite score from the given columns, one row per system."""
    scores: dict[str, float] = {}
    for lineno, cells in rows:
        system, text = cells[name], cells[score]
        if system in scores:
            raise ParseError(f"duplicate system {system!r}", lineno)
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"expected a finite score, got {text!r}", lineno)
        scores[system] = value
    return scores


def load_human_table(text: str) -> HumanTable:
    """Parse a TSV of ``system<TAB>score`` rows below that exact header."""
    rows = _table(text)
    head_line, header = next(rows, (1, []))
    if header != ["system", "score"]:
        raise ParseError("expected header 'system<TAB>score'", head_line)
    return HumanTable(_scores(rows, 0, 1))


def load_metric_scores(text: str, variant: str | None = None) -> dict[str, float]:
    """Read system scores from a score report (or a plain system/score TSV).

    Report rows are keyed by their variant column; when the report holds
    several variants, ``variant`` selects one, and ``headline_column`` names
    the column it contributes. Both forms are read by the rules of a human
    table, and a plain table gives the same scores as ``load_human_table``.
    """
    table = _table(text)
    head_line, header = next(table, (1, []))
    if not header:
        raise ParseError("empty score file", 1)
    if header == ["system", "score"]:
        return _scores(table, 0, 1)
    if "system" not in header or "variant" not in header:
        raise ParseError(
            "expected a score report header (with 'system' and 'variant' columns) "
            "or 'system<TAB>score'",
            head_line,
        )
    rows = list(table)
    if not rows:
        raise ParseError("score report has no rows", head_line)
    idx = {name: k for k, name in enumerate(header)}
    variants = sorted({cells[idx["variant"]] for _, cells in rows})
    if variant is None:
        if len(variants) > 1:
            raise ParseError(
                f"report holds several variants {variants}; pick one with --variant",
                head_line,
            )
        variant = variants[0]
    picked = [(n, cells) for n, cells in rows if cells[idx["variant"]] == variant]
    if not picked:
        raise ParseError(
            f"variant {variant!r} not present; report has {variants}", head_line
        )
    column = headline_column(variant)
    if column not in idx:
        raise ParseError(f"report has no {column!r} column", head_line)
    return _scores(picked, idx["system"], idx[column])
