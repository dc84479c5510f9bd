"""Partition parallel sequences into chunks with shared boundaries.

The edit sets of the hypothesis and all references are pooled; edits whose
closed source intervals touch or overlap are merged into one changed slot.
Every sequence is then segmented into the same number of chunks: the slots
plus the unchanged stretches between them. ``splice_slots`` is the one walk
that splices a sequence, here and in ``analysis.corpus_stats``: it visits
only the slots that sequence's own edits fall in, and builds every segment
with one loop. What the scorers read is stored as columns of small ints;
every other chunk is the source span itself.
"""

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from .corpus import Edit, TokenSeq, check_edits


class SlotColumns(NamedTuple):
    """A sample's scorer inputs: one column of small ints per sequence.

    Each column holds one int per changed slot. ``hyp`` holds the
    hypothesis chunk's length where the hypothesis changed the slot (its
    segment differs from the source span), else 0. ``refs`` holds one column
    per reference in ``annotator_ids`` order: twice its chunk's length where
    it changed the slot (else 0), plus 1 where its segment equals the
    hypothesis segment. A chunk's length is the larger of the span's and the
    segment's, at least 1 for a changed chunk, so a reference changed the
    slot exactly when its int is > 1. ``partition`` writes a column only at
    the slots its sequence changes; at every other slot a reference keeps
    the span, so its int is 1 where the hypothesis kept the slot too, else 0.

    ``distinct`` pairs each distinct reference column, first seen first,
    with the lowest annotator id that has it; the dependent scorer's key
    breaks ties. ``merged`` judges each slot by all references at once: 1
    where a reference's segment equals the hypothesis's, else the smallest
    non-zero reference int (the shortest changed chunk), or 0 where none
    changed it. ``n_unchanged`` counts the chunks outside the slots.
    """

    hyp: tuple[int, ...]
    refs: tuple[tuple[int, ...], ...]
    distinct: tuple[tuple[int, tuple[int, ...]], ...]
    merged: tuple[int, ...]
    n_unchanged: int


@dataclass(frozen=True)
class ChunkedSample:
    """Source, hypothesis and references segmented with shared boundaries.

    ``edit_sets`` holds each sequence's sorted, checked edits, the
    hypothesis first and then each reference in ``annotator_ids`` order.
    ``slot_columns`` is built by ``partition`` as it splices them; the
    segments themselves are kept only in the lazy ``slot_segments`` view.
    """

    source: TokenSeq
    boundary_spans: tuple[tuple[int, int], ...]
    changed_indices: tuple[int, ...]
    annotator_ids: tuple[int, ...]
    edit_sets: tuple[tuple[Edit, ...], ...]
    slot_columns: SlotColumns

    @cached_property
    def slot_segments(self) -> tuple[tuple[TokenSeq, ...], ...]:
        """Each sequence's segment at every slot of ``changed_indices``.

        One tuple per sequence in ``edit_sets`` order, spliced by
        ``splice_slots`` on first read: ``chunk_table`` reads it, the scorers
        never do.
        """
        slots = [self.boundary_spans[idx] for idx in self.changed_indices]
        kept = [self.source[a:b] for a, b in slots]
        dense = []
        for edits in self.edit_sets:
            segments = kept.copy()
            for k, segment in splice_slots(self.source, edits, slots, kept):
                segments[k] = segment
            dense.append(tuple(segments))
        return tuple(dense)


_start = attrgetter("start")


def slot_spans(
    source_len: int, edit_sets: Iterable[Iterable[Edit]]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Merge pooled edit intervals into changed slots and lay out every chunk.

    Closed intervals [start, end] that overlap or touch merge into one slot;
    the unchanged stretches between slots fill the rest of the source. Edits
    are sorted by start alone, as those sharing a start merge in any order.
    Returns all chunk spans in source order and the indices of the slots.
    """
    spans: list[tuple[int, int]] = []
    changed: list[int] = []
    pos = 0  # end of the last slot
    for edit in sorted(chain.from_iterable(edit_sets), key=_start):
        s = edit.start
        if changed and s <= pos:
            if edit.end > pos:
                pos = edit.end
                spans[-1] = (spans[-1][0], pos)
            continue
        if s > pos:
            spans.append((pos, s))
        changed.append(len(spans))
        pos = edit.end
        spans.append((s, pos))
    if pos < source_len or not spans:
        spans.append((pos, source_len))
    return tuple(spans), tuple(changed)


def splice_slots(
    source: TokenSeq, edits: tuple[Edit, ...], slots: list[tuple[int, int]], kept: list[TokenSeq]
) -> Iterator[tuple[int, TokenSeq]]:
    """Yield ``(k, segment)`` at each slot where one sequence differs from the source.

    Sorted, checked edits move a pointer over ``slots``, so a slot that no
    edit falls in is never visited. One loop splices the edits of slot ``k``
    into its span ``(a, b)``, whether the slot holds one edit or several.
    ``kept`` holds each slot's source span, sliced once by the caller; a
    segment equal to it is not yielded. An edit outside every slot raises
    ``AssertionError``, also under ``python -O``.
    """
    # the last edit starts last: past the last slot, the pointer would run off
    if edits and (not slots or edits[-1].start > slots[-1][1]):
        raise AssertionError("edit escaped its merged slot")
    edit_iter = iter(edits)
    e = next(edit_iter, None)
    k = 0
    while e is not None:
        while slots[k][1] < e.start:
            k += 1
        pos, b = slots[k]
        # CPython's tuple + returns the non-empty operand itself when the other
        # is empty, so a lone edit covering its slot yields its own replacement
        segment = ()
        while e is not None and e.start <= b:
            if e.start < pos or e.end > b:
                raise AssertionError("edit escaped its merged slot")
            segment += source[pos : e.start] + e.replacement
            pos = e.end
            e = next(edit_iter, None)
        segment += source[pos:b]
        if segment != kept[k]:
            yield k, segment


def partition(
    source: Sequence[str],
    hyp_edits: Sequence[Edit],
    ref_edit_sets: Iterable[tuple[int, Sequence[Edit]]],
) -> ChunkedSample:
    """Segment source, hypothesis and references into aligned chunks.

    The source spans of the slots are sliced once; ``splice_slots`` splices
    each sequence, and its column of ``SlotColumns`` is filled at the slots
    it yields, so a reference segment is compared with the hypothesis
    segment once.
    """
    source = tuple(source)
    n = len(source)
    refs = [(aid, check_edits(edits, n)) for aid, edits in ref_edit_sets]
    hyp_edits = check_edits(hyp_edits, n)
    edit_sets = (hyp_edits, *[edits for _, edits in refs])
    spans, changed = slot_spans(n, edit_sets)
    slots = [spans[idx] for idx in changed]
    kept = [source[a:b] for a, b in slots]
    hyp_segments = dict(splice_slots(source, hyp_edits, slots, kept))
    hyp = [0] * len(slots)
    # a reference keeping a slot matches a hypothesis that kept it too
    keeping = [1] * len(slots)
    for k, h in hyp_segments.items():
        hyp[k] = max(len(kept[k]), len(h))
        keeping[k] = 0
    # the merged int of each slot the hypothesis changed: 1 where a reference
    # matches it, else the shortest changed reference chunk's int
    columns, judged = [], {}
    for _, edits in refs:
        column = keeping.copy()
        for k, r in splice_slots(source, edits, slots, kept):
            column[k] = 2 * max(len(kept[k]), len(r))
            if k not in hyp_segments:
                continue
            if r == hyp_segments[k]:
                column[k] += 1
                judged[k] = 1
            elif column[k] < judged.get(k, column[k] + 1):
                judged[k] = column[k]
        columns.append(tuple(column))
    # where the hypothesis kept a slot, each reference int is 1 (a match) or
    # a change, so the smallest is the merged int
    merged = list(map(min, zip(*columns))) if columns else [0] * len(slots)
    for k in hyp_segments:
        merged[k] = judged.get(k, 0)
    lowest: dict[tuple[int, ...], int] = {}
    for (aid, _), column in zip(refs, columns):
        if aid < lowest.get(column, aid + 1):
            lowest[column] = aid
    slot_columns = SlotColumns(
        tuple(hyp),
        tuple(columns),
        tuple(zip(lowest.values(), lowest)),
        tuple(merged),
        len(spans) - len(changed),
    )
    ids = tuple(aid for aid, _ in refs)
    return ChunkedSample(source, spans, changed, ids, edit_sets, slot_columns)


def chunk_table(cs: ChunkedSample, only_changed: bool = False) -> list[list[str]]:
    """Rows (header + one per sequence) with one column per chunk.

    Header cells of changed slots carry a ``*`` marker; cell text is the
    space-joined segment, so dummy cells come out empty and concatenating a
    row reproduces that sequence.
    """
    changed = set(cs.changed_indices)
    columns = [
        i for i in range(len(cs.boundary_spans)) if not only_changed or i in changed
    ]
    header = ["sequence"] + [
        f"chunk-{i + 1}" + (" *" if i in changed else "") for i in columns
    ]
    kept = [" ".join(cs.source[a:b]) for a, b in cs.boundary_spans]
    rows = [header, ["source"] + [kept[i] for i in columns]]
    names = ["hypothesis"] + [f"ref-{aid}" for aid in cs.annotator_ids]
    for name, segments in zip(names, cs.slot_segments):
        cells = list(kept)
        for idx, segment in zip(cs.changed_indices, segments):
            cells[idx] = " ".join(segment)
        rows.append([name] + [cells[i] for i in columns])
    return rows
