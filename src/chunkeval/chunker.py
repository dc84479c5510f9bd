"""Partition parallel sequences into chunks with shared boundaries.

The edit sets of the hypothesis and all references are pooled; edits whose
closed source intervals touch or overlap are merged into one changed slot.
Every sequence is then segmented into the same number of chunks: the slots
plus the unchanged stretches between them.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .corpus import Edit, TokenSeq, check_edits

UNCHANGED = "unchanged"
CORRECTED = "corrected"
DUMMY = "dummy"


@dataclass(frozen=True, slots=True)
class Chunk:
    """One chunk of one sequence.

    ``kind`` is per sequence: ``unchanged`` when the segment equals the
    source span, ``corrected`` when it differs, ``dummy`` for the empty
    placeholder at an insertion point the sequence did not use.
    """

    index: int
    src_start: int
    src_end: int
    segment: TokenSeq
    kind: str


def chunk_length(chunk: Chunk) -> int:
    """Chunk length: the larger of source-span size and segment size."""
    return max(chunk.src_end - chunk.src_start, len(chunk.segment))


@dataclass(frozen=True)
class ChunkedSample:
    """Source, hypothesis and references segmented with shared boundaries."""

    source: TokenSeq
    hyp_chunks: tuple[Chunk, ...]
    ref_chunks: tuple[tuple[int, tuple[Chunk, ...]], ...]
    boundary_spans: tuple[tuple[int, int], ...]
    changed_indices: tuple[int, ...]

    @property
    def src_chunks(self) -> tuple[Chunk, ...]:
        chunks = []
        for idx, (a, b) in enumerate(self.boundary_spans):
            seg = self.source[a:b]
            kind = DUMMY if a == b else UNCHANGED
            chunks.append(Chunk(idx, a, b, seg, kind))
        return tuple(chunks)

    @cached_property
    def slot_records(self) -> tuple[tuple[int, ...], ...]:
        """One record of small ints per changed slot, built on first use.

        A record starts with the hypothesis chunk's length if it is
        ``corrected`` (else 0), followed by one int per reference in
        ``ref_chunks`` order: twice its chunk's length if that chunk is
        ``corrected`` (else 0), plus 1 if its segment equals the hypothesis
        segment. Corrected chunks are at least one token long, so a
        reference changed the slot exactly when its int is above 1.
        """
        records = []
        for idx in self.changed_indices:
            hyp = self.hyp_chunks[idx]
            record = [chunk_length(hyp) if hyp.kind == CORRECTED else 0]
            for _, chunks in self.ref_chunks:
                ref = chunks[idx]
                changed = 2 * chunk_length(ref) if ref.kind == CORRECTED else 0
                record.append(changed + (ref.segment == hyp.segment))
            records.append(tuple(record))
        return tuple(records)


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


def _segment_sequence(
    source: TokenSeq,
    edits: tuple[Edit, ...],
    spans: tuple[tuple[int, int], ...],
    changed: tuple[int, ...],
    template: list[Chunk | None],
) -> tuple[Chunk, ...]:
    """Fill the slots of ``template`` by splicing sorted, checked edits."""
    chunks = list(template)
    i = 0
    for idx in changed:
        a, b = spans[idx]
        out: list[str] = []
        pos = a
        while i < len(edits) and edits[i].start <= b:
            e = edits[i]
            if e.start < pos or e.end > b:
                raise AssertionError("edit escaped its merged slot")
            out.extend(source[pos : e.start])
            out.extend(e.replacement)
            pos = e.end
            i += 1
        out.extend(source[pos:b])
        segment = tuple(out)
        if a == b:
            kind = CORRECTED if segment else DUMMY
        else:
            kind = UNCHANGED if segment == source[a:b] else CORRECTED
        chunks[idx] = Chunk(idx, a, b, segment, kind)
    if i != len(edits):
        raise AssertionError("edit escaped its merged slot")
    return tuple(chunks)


def partition(
    source: Sequence[str],
    hyp_edits: Sequence[Edit],
    ref_edit_sets: Sequence[tuple[int, Sequence[Edit]]],
) -> ChunkedSample:
    """Segment source, hypothesis and references into aligned chunks."""
    source = tuple(source)
    n = len(source)
    hyp = check_edits(hyp_edits, n)
    refs = [(aid, check_edits(edits, n)) for aid, edits in ref_edit_sets]
    spans, changed = slot_spans(n, [hyp] + [edits for _, edits in refs])
    # Unchanged chunks are the same in every sequence; slots are filled in.
    slots = set(changed)
    template: list[Chunk | None] = [
        None if idx in slots else Chunk(idx, a, b, source[a:b], UNCHANGED)
        for idx, (a, b) in enumerate(spans)
    ]
    hyp_chunks = _segment_sequence(source, hyp, spans, changed, template)
    ref_chunks = tuple(
        (aid, _segment_sequence(source, edits, spans, changed, template))
        for aid, edits in refs
    )
    return ChunkedSample(source, hyp_chunks, ref_chunks, spans, changed)


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
    rows = [header]
    src_chunks = cs.src_chunks
    rows.append(["source"] + [" ".join(src_chunks[i].segment) for i in columns])
    rows.append(["hypothesis"] + [" ".join(cs.hyp_chunks[i].segment) for i in columns])
    for aid, chunks in cs.ref_chunks:
        rows.append([f"ref-{aid}"] + [" ".join(chunks[i].segment) for i in columns])
    return rows
