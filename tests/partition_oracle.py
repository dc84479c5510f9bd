"""The chunk-building partition: the reference for ``chunkeval.partition``.

``chunkeval.chunker.partition`` splices only the changed slots and stores
their segments; this ``partition`` builds one ``Chunk`` per chunk per
sequence, and derives the slot records and the merged column from those
chunks. The tests require the two to agree on spans, slots, chunks, records
and the merged column, and read the chunks of a ``chunkeval`` sample
through ``chunk_views``. ``lowest_id_columns`` keeps the earlier order of
``slot_columns.distinct``.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import chunkeval
from chunkeval.chunker import slot_spans
from chunkeval.corpus import Edit, TokenSeq, check_edits

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

    @cached_property
    def merged(self) -> tuple[int, ...]:
        """The reference int that judges each slot as all references at once do.

        This is the two-branch rule ``slot_columns.merged`` had before one
        expression served a kept and a changed hypothesis chunk alike.
        """
        merged = []
        for idx, (hyp, *refs) in zip(self.changed_indices, self.slot_records):
            if not hyp:
                # an FN of the shortest length only when every reference
                # changed the slot (there is at least one), else a TN
                merged.append(min(refs, default=0))
            else:
                # a match with any reference, else the shortest changed
                # reference chunk, or 0 when no reference changed it
                segments = [chunks[idx].segment for _, chunks in self.ref_chunks]
                matched = self.hyp_chunks[idx].segment in segments
                merged.append(1 if matched else min(filter(None, refs), default=0))
        return tuple(merged)


def lowest_id_columns(
    annotator_ids: Sequence[int], columns: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Each distinct column with the lowest id that has it, at that id's place.

    This is the order ``slot_columns.distinct`` had before it kept columns
    in order of first appearance: a lower id moves its column to its place.
    """
    lowest: dict[tuple[int, ...], int] = {}
    for aid, column in zip(annotator_ids, columns):
        if aid < lowest.get(column, aid + 1):
            lowest.pop(column, None)  # re-inserted at this reference's place
            lowest[column] = aid
    return tuple((aid, column) for column, aid in lowest.items())


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


def chunk_views(cs: chunkeval.ChunkedSample) -> ChunkedSample:
    """A ``chunkeval`` sample in this module's form: every chunk of every sequence.

    Chunks outside the slots are the source span, ``unchanged``; a slot's
    chunk is ``corrected`` when its segment differs from the source span,
    else ``dummy`` at an insertion point and ``unchanged`` elsewhere.
    """

    def chunks(segments):
        out = [
            Chunk(idx, a, b, cs.source[a:b], UNCHANGED)
            for idx, (a, b) in enumerate(cs.boundary_spans)
        ]
        for idx, segment in zip(cs.changed_indices, segments):
            a, b = cs.boundary_spans[idx]
            if segment != cs.source[a:b]:
                kind = CORRECTED
            else:
                kind = DUMMY if a == b else UNCHANGED
            out[idx] = Chunk(idx, a, b, segment, kind)
        return tuple(out)

    refs = zip(cs.annotator_ids, cs.slot_segments[1:])
    return ChunkedSample(
        cs.source,
        chunks(cs.slot_segments[0]),
        tuple((aid, chunks(segments)) for aid, segments in refs),
        cs.boundary_spans,
        cs.changed_indices,
    )
