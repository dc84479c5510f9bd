"""Partition parallel sequences into chunks with shared boundaries.

The edit sets of the hypothesis and all references are pooled; edits whose
closed source intervals touch or overlap are merged into one changed slot.
Every sequence is then segmented into the same number of chunks: the slots
plus the unchanged stretches between them. Only the slots are spliced and
stored per sequence; every other chunk is the source span itself.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
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
    slot exactly when its int is > 1.

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

    ``slot_segments`` holds one tuple per sequence, the hypothesis first and
    then each reference in ``annotator_ids`` order, with that sequence's
    segment at each slot of ``changed_indices``.
    """

    source: TokenSeq
    boundary_spans: tuple[tuple[int, int], ...]
    changed_indices: tuple[int, ...]
    annotator_ids: tuple[int, ...]
    slot_segments: tuple[tuple[TokenSeq, ...], ...]

    @cached_property
    def slot_columns(self) -> SlotColumns:
        """The columns every scorer variant reads, built on first use."""
        hyp, records, merged = [], [], []
        for idx, h, *refs in zip(self.changed_indices, *self.slot_segments):
            a, b = self.boundary_spans[idx]
            kept = self.source[a:b]
            if h == kept:
                hyp.append(0)
                record = [1 if r == kept else 2 * max(b - a, len(r)) for r in refs]
            else:
                hyp.append(max(b - a, len(h)))
                record = [
                    0 if r == kept else 2 * max(b - a, len(r)) + (r == h) for r in refs
                ]
            # a match with any reference, a keeping one too, else the shortest change
            merged.append(1 if h in refs else min(filter(None, record), default=0))
            records.append(record)
        columns = tuple(zip(*records)) or ((),) * len(self.annotator_ids)
        lowest: dict[tuple[int, ...], int] = {}
        for aid, column in zip(self.annotator_ids, columns):
            if aid < lowest.get(column, aid + 1):
                lowest[column] = aid
        return SlotColumns(
            tuple(hyp),
            columns,
            tuple((aid, column) for column, aid in lowest.items()),
            tuple(merged),
            len(self.boundary_spans) - len(self.changed_indices),
        )


def slot_spans(
    source_len: int, edit_sets: Iterable[Iterable[Edit]]
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Merge pooled edit intervals into changed slots and lay out every chunk.

    Closed intervals [start, end] that overlap or touch merge into one slot;
    the unchanged stretches between slots fill the rest of the source.
    Returns all chunk spans in source order and the indices of the slots.
    """
    intervals = sorted((e.start, e.end) for edits in edit_sets for e in edits)
    spans: list[tuple[int, int]] = []
    changed: list[int] = []
    pos = 0  # end of the last slot
    for s, e in intervals:
        if changed and s <= pos:
            if e > pos:
                pos = e
                spans[-1] = (spans[-1][0], e)
            continue
        if s > pos:
            spans.append((pos, s))
        changed.append(len(spans))
        spans.append((s, e))
        pos = e
    if pos < source_len or not spans:
        spans.append((pos, source_len))
    return tuple(spans), tuple(changed)


def splice_slots(
    source: TokenSeq, edits: tuple[Edit, ...], slots: list[tuple[int, int, TokenSeq]]
) -> tuple[TokenSeq, ...]:
    """The segment of one sequence at each slot ``(a, b, source[a:b])``.

    Sorted, checked edits are spliced into the slot's source span; a slot
    that none of them falls in keeps the span itself.
    """
    segments = [kept for _, _, kept in slots]
    i, n_edits = 0, len(edits)
    for k, (a, b, _) in enumerate(slots):
        if i == n_edits:
            break
        if edits[i].start > b:
            continue
        out: list[str] = []
        pos = a
        while i < n_edits and edits[i].start <= b:
            e = edits[i]
            if e.start < pos or e.end > b:
                raise AssertionError("edit escaped its merged slot")
            out.extend(source[pos : e.start])
            out.extend(e.replacement)
            pos = e.end
            i += 1
        out.extend(source[pos:b])
        segments[k] = tuple(out)
    if i != n_edits:
        raise AssertionError("edit escaped its merged slot")
    return tuple(segments)


def partition(
    source: Sequence[str],
    hyp_edits: Sequence[Edit],
    ref_edit_sets: Sequence[tuple[int, Sequence[Edit]]],
) -> ChunkedSample:
    """Segment source, hypothesis and references into aligned chunks."""
    source = tuple(source)
    n = len(source)
    refs = [(aid, check_edits(edits, n)) for aid, edits in ref_edit_sets]
    edit_sets = [check_edits(hyp_edits, n)] + [edits for _, edits in refs]
    spans, changed = slot_spans(n, edit_sets)
    slots = [(a, b, source[a:b]) for a, b in (spans[idx] for idx in changed)]
    segments = tuple(splice_slots(source, edits, slots) for edits in edit_sets)
    ids = tuple(aid for aid, _ in refs)
    return ChunkedSample(source, spans, changed, ids, segments)


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
