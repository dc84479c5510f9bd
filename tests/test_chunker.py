import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import partition_oracle
import pytest
from conftest import random_case
from partition_oracle import chunk_length, chunk_views

from chunkeval import (
    AnnotatedSample,
    BoundsError,
    Edit,
    OverlapError,
    apply_edits,
    chunk_table,
    corpus_stats,
    extract_edits,
    partition,
    tokenize,
)
from chunkeval import analysis, chunker
from chunkeval.chunker import slot_spans

FIG_SRC = ("the", "technologies", "were")
FIG_REF1 = [Edit(0, 1, ()), Edit(2, 3, ("have",))]
FIG_REF2 = [Edit(0, 1, ()), Edit(1, 2, ("technology",)), Edit(2, 3, ("has",))]


def fig_sample():
    return partition(FIG_SRC, [], [(0, FIG_REF1), (1, FIG_REF2)])


TOP_SRC = tokenize(
    "On the other hand , if there are ways can help us to control or cure the disease , we can going ."
)
TOP_HYP = tokenize(
    "On the other hand , if there are ways that can help us to control and cure the disease , we can go ."
)
TOP_REF1 = tokenize(
    "On the other hand , if there are ways that can help us to control or cure the disease , we can go ."
)
TOP_REF2 = tokenize(
    "On the other hand , if there are things that can help us to control and cure the disease , we can go ."
)


def top_sample():
    return partition(
        TOP_SRC,
        extract_edits(TOP_SRC, TOP_HYP),
        [(0, extract_edits(TOP_SRC, TOP_REF1)), (1, extract_edits(TOP_SRC, TOP_REF2))],
    )


MID_SRC = tokenize(
    "On one hand , we do not want this potential danger causing firghtenning affects in our lives ."
)
MID_HYP = tokenize(
    "On one hand , we do not want this potential danger causing frightening affects in our lives ."
)
MID_REF1 = tokenize(
    "On one hand , we do not want this potential danger having frightening effects in our lives ."
)
MID_REF2 = tokenize(
    "On the one hand , we do not want this potential danger to have frightening effects on our lives ."
)


def mid_sample():
    return partition(
        MID_SRC,
        extract_edits(MID_SRC, MID_HYP),
        [(0, extract_edits(MID_SRC, MID_REF1)), (1, extract_edits(MID_SRC, MID_REF2))],
    )


class TestPartition:
    def test_touching_edits_merge_into_one_slot(self):
        cs = chunk_views(fig_sample())
        assert cs.boundary_spans == ((0, 3),)
        assert cs.changed_indices == (0,)
        segments = {aid: chunks[0].segment for aid, chunks in cs.ref_chunks}
        assert segments[0] == ("technologies", "have")
        assert segments[1] == ("technology", "has")
        assert cs.hyp_chunks[0].kind == "unchanged"

    def test_no_edits_single_unchanged_chunk(self):
        cs = chunk_views(partition(("a", "b", "c"), [], [(0, [])]))
        assert cs.boundary_spans == ((0, 3),)
        assert cs.changed_indices == ()
        assert cs.hyp_chunks[0].kind == "unchanged"

    def test_single_insertion_three_chunks(self):
        refs = [(0, [Edit(1, 1, ("x",))])]
        cs = chunk_views(partition(("a", "b", "c", "d"), [], refs))
        assert cs.boundary_spans == ((0, 1), (1, 1), (1, 4))
        assert cs.changed_indices == (1,)
        assert cs.ref_chunks[0][1][1].kind == "corrected"
        assert cs.hyp_chunks[1].kind == "dummy"

    def test_all_single_edit_placements_against_merge_oracle(self):
        # brute force over every single-edit placement on a 4-token source
        src = ("a", "b", "c", "d")
        for start in range(5):
            for end in range(start, 5):
                if start == end:
                    edit = Edit(start, end, ("q",))
                else:
                    edit = Edit(start, end, ())
                cs = partition(src, [], [(0, [edit])])
                expected = []
                if start > 0:
                    expected.append((0, start))
                expected.append((start, end))
                if end < 4:
                    expected.append((end, 4))
                assert cs.boundary_spans == tuple(expected)

    def test_granularities_agree_on_merged_sample(self):
        # one multi-token edit vs several one-token edits: same boundaries
        coarse = [Edit(0, 3, ("technologies", "have"))]
        cs_fine = chunk_views(fig_sample())
        cs_coarse = chunk_views(partition(FIG_SRC, [], [(0, coarse), (1, FIG_REF2)]))
        assert cs_fine.boundary_spans == cs_coarse.boundary_spans
        assert (
            cs_fine.ref_chunks[0][1][0].segment
            == cs_coarse.ref_chunks[0][1][0].segment
        )

    def test_insertion_locus_is_dummy_for_non_inserting_sequences(self):
        cs = chunk_views(mid_sample())
        assert cs.boundary_spans[1] == (1, 1)
        assert cs.hyp_chunks[1].kind == "dummy"
        by_aid = dict(cs.ref_chunks)
        assert by_aid[0][1].kind == "dummy"
        assert by_aid[1][1].segment == ("the",)
        assert by_aid[1][1].kind == "corrected"

    def test_deletion_chunk_is_corrected_with_empty_segment(self):
        cs = chunk_views(partition(("a", "b", "c"), [], [(0, [Edit(1, 2, ())])]))
        chunk = cs.ref_chunks[0][1][1]
        assert chunk.kind == "corrected"
        assert chunk.segment == ()


class TestChangedSlots:
    def test_fig_sample_single_slot(self):
        cs = chunk_views(fig_sample())
        assert len(cs.changed_indices) == 1
        idx = cs.changed_indices[0]
        assert cs.hyp_chunks[idx].kind != "corrected"
        assert [
            aid for aid, chunks in cs.ref_chunks if chunks[idx].kind == "corrected"
        ] == [0, 1]

    def test_unchanged_sample_has_none(self):
        assert partition(("a",), [], [(0, [])]).changed_indices == ()

    def test_top_sample_slots_at_display_chunks_2_4_6(self):
        cs = top_sample()
        assert len(cs.boundary_spans) == 7
        hyp_chunks = chunk_views(cs).hyp_chunks
        assert [hyp_chunks[i].index for i in cs.changed_indices] == [1, 3, 5]
        header = chunk_table(cs)[0]
        assert [h for h in header[1:] if h.endswith("*")] == [
            "chunk-2 *",
            "chunk-4 *",
            "chunk-6 *",
        ]


class TestChunkTable:
    def test_fig_sample_rows(self):
        table = chunk_table(fig_sample())
        assert table[0] == ["sequence", "chunk-1 *"]
        assert table[1] == ["source", "the technologies were"]
        assert table[2] == ["hypothesis", "the technologies were"]
        assert table[3] == ["ref-0", "technologies have"]
        assert table[4] == ["ref-1", "technology has"]

    def test_unchanged_sample_single_unflagged_column(self):
        table = chunk_table(partition(("a", "b"), [], [(0, [])]))
        assert table[0] == ["sequence", "chunk-1"]

    def test_concatenation_reproduces_sequences(self):
        rng = random.Random(23)
        for _ in range(200):
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            table = chunk_table(cs)
            assert tuple(" ".join(table[1][1:]).split()) == source
            assert tuple(" ".join(table[2][1:]).split()) == apply_edits(
                source, hyp_edits
            )
            for row, (aid, edits) in zip(table[3:], refs):
                assert tuple(" ".join(row[1:]).split()) == apply_edits(source, edits)

    def test_only_changed_projects_flagged_columns(self):
        cs = top_sample()
        table = chunk_table(cs, only_changed=True)
        assert table[0] == ["sequence", "chunk-2 *", "chunk-4 *", "chunk-6 *"]
        assert table[1][1:] == ["ways", "or", "going"]


def test_partition_is_language_agnostic():
    # pre-tokenized CJK input goes through alignment, partition and tables
    src = tokenize("今天 听 天气 预报 说 今天 还有 天气 冷 。")
    r1 = tokenize("听 天气 预报 说 今天 天气 冷 。")
    r2 = tokenize("今天 听 天气 预报 说 天气 还会 变 冷 。")
    cs = partition(
        src, [], [(0, extract_edits(src, r1)), (1, extract_edits(src, r2))]
    )
    table = chunk_table(cs)
    assert table[0] == ["sequence", "chunk-1 *", "chunk-2", "chunk-3 *", "chunk-4"]
    assert table[3] == ["ref-0", "", "听 天气 预报 说", "今天 天气", "冷 。"]
    assert table[4] == ["ref-1", "今天", "听 天气 预报 说", "天气 还会 变", "冷 。"]


class TestChunkLength:
    def test_unchanged_three_tokens(self):
        cs = chunk_views(partition(("a", "b", "c"), [], [(0, [])]))
        assert chunk_length(cs.hyp_chunks[0]) == 3

    def test_corrected_span_longer_than_segment(self):
        refs = [(0, [Edit(0, 3, ("x", "y"))])]
        cs = chunk_views(partition(("a", "b", "c"), [], refs))
        assert chunk_length(cs.ref_chunks[0][1][0]) == 3

    def test_dummy_and_insertion_lengths(self):
        cs = chunk_views(partition(("a", "b"), [], [(0, [Edit(1, 1, ("x", "y"))])]))
        idx = cs.changed_indices[0]
        assert chunk_length(dict(cs.ref_chunks)[0][idx]) == 2
        assert chunk_length(cs.hyp_chunks[idx]) == 0


def _components(intervals):
    """Connected components of closed intervals, by pairwise touching."""
    groups = [[iv] for iv in intervals]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if any(
                    max(a, c) <= min(b, d) for a, b in groups[i] for c, d in groups[j]
                ):
                    groups[i] += groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    return sorted((min(a for a, _ in g), max(b for _, b in g)) for g in groups)


class TestSlotSpans:
    def test_slots_are_touching_components_and_spans_tile_source(self):
        rng = random.Random(53)
        for _ in range(300):
            source, hyp_edits, refs = random_case(rng, 0, 3)
            edit_sets = [hyp_edits] + [edits for _, edits in refs]
            spans, changed = slot_spans(len(source), edit_sets)
            pooled = [(e.start, e.end) for edits in edit_sets for e in edits]
            assert [spans[i] for i in changed] == _components(pooled)
            assert spans[0][0] == 0 and spans[-1][1] == len(source)
            assert all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))
            assert all(a < b for k, (a, b) in enumerate(spans) if k not in changed)
            cs = partition(source, hyp_edits, refs)
            assert (cs.boundary_spans, cs.changed_indices) == (spans, changed)


class TestPartitionProperties:
    def test_same_k_and_spans_and_reconstruction(self):
        rng = random.Random(37)
        for _ in range(300):
            source, hyp_edits, refs = random_case(rng)
            cs = chunk_views(partition(source, hyp_edits, refs))
            k = len(cs.boundary_spans)
            sequences = [cs.hyp_chunks] + [chunks for _, chunks in cs.ref_chunks]
            for chunks in sequences:
                assert len(chunks) == k
                assert [(c.src_start, c.src_end) for c in chunks] == list(
                    cs.boundary_spans
                )
            hyp_tokens = sum((c.segment for c in cs.hyp_chunks), ())
            assert hyp_tokens == apply_edits(source, hyp_edits)
            for (aid, edits), (_, chunks) in zip(refs, cs.ref_chunks):
                assert sum((c.segment for c in chunks), ()) == apply_edits(
                    source, edits
                )

    def test_stability_inside_existing_slots(self):
        rng = random.Random(41)
        checked = 0
        while checked < 100:
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            if not cs.changed_indices:
                continue
            idx = rng.choice(cs.changed_indices)
            a, b = cs.boundary_spans[idx]
            if a == b:
                extra = [Edit(a, a, ("q",))]
            else:
                extra = [Edit(a, b, ("q",))]
            refs2 = refs + [(max(aid for aid, _ in refs) + 1, extra)]
            cs2 = partition(source, hyp_edits, refs2)
            assert cs2.boundary_spans == cs.boundary_spans
            checked += 1

    def test_changed_slots_never_exceed_edit_count(self):
        rng = random.Random(43)
        for _ in range(300):
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            total_edits = len(hyp_edits) + sum(len(e) for _, e in refs)
            assert len(cs.changed_indices) <= max(total_edits, 0)

    def test_collapse_guard(self):
        rng = random.Random(47)
        for _ in range(300):
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            covered = set()
            for edits in [hyp_edits] + [e for _, e in refs]:
                for e in edits:
                    covered.update(range(e.start, max(e.end, e.start + 1)))
            untouched = set(range(len(source))) - covered
            if untouched and cs.changed_indices:
                assert len(cs.boundary_spans) >= 2


RARE_SOURCE = ("a", "b", "c", "d", "e", "f")
# Cases that ``random_case`` seldom draws. A no-op edit writes back its own
# span; most cases share the slot (1, 3) or (2, 4).
RARE_CASES = {
    "no-op-in-hypothesis": (
        [Edit(1, 2, ("b",))],
        [(0, [Edit(1, 2, ("x",))]), (1, []), (2, [Edit(2, 3, ("c", "c"))])],
    ),
    "no-op-in-references": (
        [Edit(1, 2, ("x",))],
        [
            (0, [Edit(1, 2, ("b",))]),
            (1, [Edit(1, 3, ("b", "c"))]),
            (2, [Edit(1, 2, ("x",))]),
        ],
    ),
    "no-op-everywhere": (
        [Edit(1, 3, ("b", "c"))],
        [(0, [Edit(1, 2, ("b",)), Edit(2, 3, ("c",))]), (1, [Edit(2, 3, ("c",))])],
    ),
    "several-edits-in-one-slot": (
        [Edit(1, 2, ("x",)), Edit(2, 3, ()), Edit(3, 3, ("y",))],
        [
            (0, [Edit(1, 2, ("x",)), Edit(2, 3, ()), Edit(3, 3, ("y",))]),
            (1, [Edit(1, 3, ())]),
        ],
    ),
    "several-edits-matching-one-edit": (
        [Edit(1, 2, ("x",)), Edit(2, 3, ("y",))],
        [
            (0, [Edit(1, 3, ("x", "y"))]),
            (1, [Edit(1, 1, ("x",)), Edit(1, 2, ("y",)), Edit(2, 3, ())]),
        ],
    ),
    "insertions-at-both-ends-in-references": (
        [Edit(2, 4, ("x",))],
        [
            (0, [Edit(2, 2, ("p",)), Edit(4, 4, ("q",))]),
            (1, [Edit(4, 4, ("q",))]),
            (2, [Edit(2, 2, ("x",)), Edit(2, 4, ())]),
        ],
    ),
    "insertions-at-both-ends-in-hypothesis": (
        [Edit(2, 2, ("p",)), Edit(2, 4, ("c", "d")), Edit(4, 4, ("q",))],
        [
            (0, [Edit(2, 4, ("p", "c", "d", "q"))]),
            (1, [Edit(3, 4, ("z",))]),
            (2, [Edit(2, 4, ("c",)), Edit(4, 4, ("q",))]),
        ],
    ),
    "lone-edit-covering-its-slot": (
        [Edit(1, 3, ("x",))],
        [
            (0, [Edit(1, 3, ("x",))]),
            (1, [Edit(1, 2, ("y",)), Edit(2, 3, ("z",))]),
            (2, [Edit(1, 3, ())]),
        ],
    ),
    "lone-insertion-covering-its-slot": (
        [Edit(3, 3, ("x",))],
        [(0, [Edit(3, 3, ("x",))]), (1, [Edit(3, 3, ("y", "z"))]), (2, [Edit(5, 6, ())])],
    ),
    "lone-edits-covering-their-slots-without-references": (
        [Edit(0, 1, ("a",)), Edit(2, 2, ("x",)), Edit(4, 6, ())],
        [],
    ),
}


class TestMatchesPartitionOracle:
    """The slot-first partition against the chunk-building one it replaced."""

    def test_spans_chunks_and_records_are_identical(self):
        rng = random.Random(67)
        shuffler = random.Random(68)  # leaves the cases drawn from ``rng`` as they were
        for _ in range(1000):
            source, hyp_edits, refs = random_case(rng, min_refs=0, max_refs=10)
            if refs and rng.random() < 0.3:  # make matching slots common
                hyp_edits = list(rng.choice(refs)[1])
            # the same case with the references in shuffled id order
            for refs in (refs, shuffler.sample(refs, len(refs))):
                self.check(source, hyp_edits, refs)

    @pytest.mark.parametrize("hyp_edits, refs", RARE_CASES.values(), ids=RARE_CASES)
    def test_cases_the_generator_rarely_draws(self, hyp_edits, refs):
        self.check(RARE_SOURCE, hyp_edits, refs)
        self.check(RARE_SOURCE, hyp_edits, refs[::-1])

    @staticmethod
    def check(source, hyp_edits, refs):
        cs = partition(source, hyp_edits, refs)
        want = partition_oracle.partition(source, hyp_edits, refs)
        sequences = [want.hyp_chunks] + [chunks for _, chunks in want.ref_chunks]
        dense = tuple(
            tuple(chunks[idx].segment for idx in want.changed_indices)
            for chunks in sequences
        )
        # the lazy dense view read first, before ``slot_columns``
        first = partition(source, hyp_edits, refs)
        assert first.slot_segments == dense
        assert first.slot_columns == cs.slot_columns
        assert cs.annotator_ids == tuple(aid for aid, _ in refs)
        # the oracle's records are the columns of ``slot_columns``
        columns, records = cs.slot_columns, want.slot_records
        assert columns.hyp == tuple(record[0] for record in records)
        assert columns.refs == tuple(
            tuple(record[k] for record in records) for k in range(1, len(refs) + 1)
        )
        assert columns.merged == want.merged
        pairs = list(zip(cs.annotator_ids, columns.refs))
        assert columns.distinct == tuple(
            (min(a for a, c in pairs if c == column), column)
            for column in dict.fromkeys(c for _, c in pairs)
        )
        # the earlier order holds the same pairs, in the same order for ascending ids
        earlier = partition_oracle.lowest_id_columns(cs.annotator_ids, columns.refs)
        assert set(columns.distinct) == set(earlier)
        if list(cs.annotator_ids) == sorted(cs.annotator_ids):
            assert columns.distinct == earlier
        assert columns.n_unchanged == len(cs.boundary_spans) - len(records)
        # and read after it
        assert chunk_views(cs) == want
        assert cs.slot_segments == dense


BAD_EDITS = {
    "out of bounds": ([Edit(2, 4, ("x",))], BoundsError),
    "overlapping": ([Edit(0, 2, ("x",)), Edit(1, 3, ("y",))], OverlapError),
    "two insertions at one point": (
        [Edit(1, 1, ("x",)), Edit(1, 1, ("y",))],
        OverlapError,
    ),
}


class TestPartitionRejectsBadEdits:
    SOURCE = ("a", "b", "c")

    @pytest.mark.parametrize("case", BAD_EDITS)
    def test_in_hypothesis(self, case):
        edits, error = BAD_EDITS[case]
        with pytest.raises(error):
            partition(self.SOURCE, edits, [(0, [Edit(0, 1, ("q",))])])

    @pytest.mark.parametrize("case", BAD_EDITS)
    def test_in_reference(self, case):
        edits, error = BAD_EDITS[case]
        with pytest.raises(error):
            partition(self.SOURCE, [], [(0, [Edit(0, 1, ("q",))]), (1, edits)])

    def test_checked_edits_against_a_shorter_source(self):
        # edits that a sample checked are checked again for their bounds only
        sample = AnnotatedSample(self.SOURCE, {0: (Edit(2, 3, ("x",)),)})
        edits = sample.annotations[0]
        assert partition(self.SOURCE, edits, [(0, edits)]).changed_indices == (1,)
        with pytest.raises(BoundsError):
            partition(self.SOURCE[:2], edits, [])
        with pytest.raises(BoundsError):
            partition(self.SOURCE[:2], [], [(0, edits)])


# slot layouts that a correct merge never gives: an edit ends past its slot,
# or starts after the last one, or there is no slot at all
ESCAPING_SLOTS = [
    (((0, 1), (1, 3)), (0,)),
    (((0, 0), (0, 3)), (0,)),
    (((0, 3),), ()),
]


def escaped_view(layout):
    """A ``ChunkedSample`` of the edit ``[1, 2)`` whose slots are ``layout``."""
    cs = partition(("a", "b", "c"), [Edit(1, 2, ("x",))], [])
    return dataclasses.replace(cs, boundary_spans=layout[0], changed_indices=layout[1])


class TestEscapedSlot:
    @pytest.mark.parametrize("layout", ESCAPING_SLOTS)
    def test_edit_escaping_its_slot_raises(self, monkeypatch, layout):
        monkeypatch.setattr(chunker, "slot_spans", lambda n, edit_sets: layout)
        with pytest.raises(AssertionError, match="escaped its merged slot"):
            partition(("a", "b", "c"), [Edit(1, 2, ("x",))], [])

    @pytest.mark.parametrize("layout", ESCAPING_SLOTS)
    def test_dense_view_raises(self, layout):
        with pytest.raises(AssertionError, match="escaped its merged slot"):
            chunk_table(escaped_view(layout))

    @pytest.mark.parametrize("layout", ESCAPING_SLOTS)
    def test_corpus_stats_raises(self, monkeypatch, layout):
        monkeypatch.setattr(analysis, "slot_spans", lambda n, edit_sets: layout)
        sample = AnnotatedSample(("a", "b", "c"), {0: (Edit(1, 2, ("x",)),)})
        with pytest.raises(AssertionError, match="escaped its merged slot"):
            corpus_stats([sample])

    def test_raised_without_assert_statements(self):
        # ``python -O`` strips assert statements; the check must still run on
        # every layout, through partition, the dense view and corpus_stats
        code = (
            "import dataclasses\n"
            "from chunkeval import AnnotatedSample, Edit, analysis, chunk_table, chunker\n"
            "edit = Edit(1, 2, ('x',))\n"
            "cs = chunker.partition(('a', 'b', 'c'), [edit], [])\n"
            "sample = AnnotatedSample(('a', 'b', 'c'), {0: (edit,)})\n"
            f"for layout in {ESCAPING_SLOTS!r}:\n"
            "    view = dataclasses.replace(\n"
            "        cs, boundary_spans=layout[0], changed_indices=layout[1]\n"
            "    )\n"
            "    chunker.slot_spans = analysis.slot_spans = lambda n, edit_sets: layout\n"
            "    for run in (\n"
            "        lambda: chunker.partition(('a', 'b', 'c'), [edit], []),\n"
            "        lambda: chunk_table(view),\n"
            "        lambda: analysis.corpus_stats([sample]),\n"
            "    ):\n"
            "        try:\n"
            "            run()\n"
            "        except AssertionError as exc:\n"
            "            print(exc)\n"
        )
        src = str(Path(chunker.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        expected = "edit escaped its merged slot\n" * (3 * len(ESCAPING_SLOTS))
        assert done.stdout == expected, done.stderr
