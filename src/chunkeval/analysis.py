"""Boundary statistics and correlation against human judgment tables.

Boundary statistics hold each annotator out in turn and classify every
held-out edit as falling inside a slot merged from the remaining
annotators' edits (ICC), inside an unchanged chunk (IUC), or crossing a
boundary (CC), read off one count of each sentence's edits. The chunk
statistics of ``corpus_stats`` splice each reference through
``chunker.splice_slots``, as ``partition`` does.
"""

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate

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


def boundary_stats(
    samples: Sequence[AnnotatedSample], per_pass_mean: bool = False
) -> BoundaryStats:
    """Exhaustive hold-one-out boundary statistics over a reference set.

    Each sentence counts its edits once, over half-positions: ``cover[2 * p]``
    is how many closed intervals [start, end], insertions included, hold point
    ``p``, and ``cover[2 * i + 1]`` how many non-empty edits cover token ``i``.
    The other annotators' intervals that overlap or touch merge into slots,
    which take precedence over unchanged chunks; an annotator's own edits are
    disjoint, so a held-out edit is read against the count less its own share.
    A non-empty edit is ICC when others cover each of its tokens, IUC when
    nothing else holds any of its tokens or interior points, and CC otherwise.
    An insertion is ICC when another annotator's interval holds its point (its
    own are the insertion and a neighbour that ends or starts there), and IUC
    otherwise.

    With ``per_pass_mean`` the three ratios are averaged over hold-out
    passes instead of pooled over all held-out edits; the raw tallies are
    pooled either way. A pass whose held-out annotator has no edits adds
    nothing to either, so it is skipped.
    """
    icc = iuc = cc = 0
    pass_ratios: list[tuple[float, float, float]] = []
    for i, sample in enumerate(samples):
        annotations = sample.annotations
        if len(annotations) < 2:
            raise TooFewAnnotatorsError(
                f"sample {i + 1} has {len(annotations)} annotator(s); need at least 2"
            )
        cover = [0] * (2 * len(sample.source) + 2)
        for edits in annotations.values():
            for e in edits:
                cover[2 * e.start] += 1
                cover[2 * e.end + 1] -= 1
        cover = list(accumulate(cover))
        for edits in annotations.values():
            if not edits:
                continue
            local = [0, 0, 0]
            last = len(edits) - 1
            for k, e in enumerate(edits):
                s, t = e.start, e.end
                if s == t:
                    own = 1 + (k > 0 and edits[k - 1].end == s) + (
                        k < last and edits[k + 1].start == s
                    )
                    local[0 if cover[2 * s] > own else 1] += 1
                else:
                    inside = cover[2 * s + 1 : 2 * t]
                    local[0 if min(inside) > 1 else 1 if max(inside) == 1 else 2] += 1
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
    gains ``len(segment) - (b - a)``. Counts and token sums are ints; no sum
    depends on order; references are read in id order.
    """
    n_refs = ref_sum = n_edits = edit_sum = 0
    n_unchanged = unchanged_sum = n_changed = changed_sum = 0
    for sample in samples:
        source, n = sample.source, len(sample.source)
        refs = sample.annotations.values()
        spans, changed = slot_spans(n, refs)
        slots = [spans[k] for k in changed]
        kept = [source[a:b] for a, b in slots]
        # the unchanged spans and the non-empty slots cover the source
        n_unchanged += (len(spans) - sum(a == b for a, b in slots)) * len(refs)
        unchanged_sum += n * len(refs)
        n_refs += len(refs)
        ref_sum += n * len(refs)
        for edits in filter(None, refs):  # a reference with no edits splices nothing
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


def _check_scores(xs: Sequence[float], ys: Sequence[float]) -> None:
    """Raise ValueError unless ``xs`` and ``ys`` are equally long and finite."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not all(map(math.isfinite, [*xs, *ys])):
        raise ValueError("scores must be finite")


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of finite scores."""
    _check_scores(xs, ys)
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
    """Fractional ranks (1-based), ties averaged: the mean of a value's first
    and last place in sorted order."""
    ordered = sorted(xs)
    return [(bisect_left(ordered, x) + bisect_right(ordered, x) + 1) / 2 for x in xs]


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation of finite scores: Pearson on average-tie ranks."""
    _check_scores(xs, ys)
    return pearson(_ranks(xs), _ranks(ys))


def correlate(
    metric_scores: Mapping[str, float], human: Mapping[str, float]
) -> tuple[float, float]:
    """(Pearson, Spearman) of metric vs human scores aligned by system id."""
    metric_ids = set(metric_scores)
    human_ids = set(human)
    if metric_ids != human_ids:
        raise SystemMismatchError(metric_ids - human_ids, human_ids - metric_ids)
    systems = sorted(metric_ids)
    if len(systems) < 3:
        raise DegenerateError(
            f"correlation needs at least 3 systems, got {len(systems)}"
        )
    xs = [metric_scores[s] for s in systems]
    ys = [human[s] for s in systems]
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


def load_human_table(text: str) -> dict[str, float]:
    """System -> score from a TSV of ``system<TAB>score`` rows below that exact header."""
    rows = _table(text)
    head_line, header = next(rows, (1, []))
    if header != ["system", "score"]:
        raise ParseError("expected header 'system<TAB>score'", head_line)
    return _scores(rows, 0, 1)


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
