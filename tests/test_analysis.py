import math
import random

import boundary_oracle
import pytest
import scipy.stats
import partition_oracle
from conftest import random_ref_sets, random_tokens
from partition_oracle import CORRECTED, UNCHANGED, chunk_length, chunk_views

from chunkeval import (
    AnnotatedSample,
    DegenerateError,
    Edit,
    NoChunksError,
    ParseError,
    SystemMismatchError,
    TooFewAnnotatorsError,
    apply_edits,
    boundary_stats,
    compute_ell,
    correlate,
    corpus_stats,
    load_human_table,
    load_metric_scores,
    partition,
    pearson,
    spearman,
)
from chunkeval.analysis import _ranks
from chunkeval.chunker import slot_spans


def sample_of(source, *edit_sets):
    return AnnotatedSample(
        tuple(source.split()),
        {aid: tuple(edits) for aid, edits in enumerate(edit_sets)},
    )


class TestBoundaryStats:
    def test_identical_edit_sets_are_all_in_chunk(self):
        edits = [Edit(1, 2, ("x",)), Edit(3, 4, ("y",))]
        sample = sample_of("a b c d e", edits, list(edits))
        stats = boundary_stats([sample])
        assert (stats.icc, stats.iuc, stats.cc) == (1.0, 0.0, 0.0)
        assert stats.edits_total == 4

    def test_disjoint_edits_fall_in_unchanged_chunks(self):
        # brute-force construction on 5-token sources: the two annotators
        # touch non-adjacent tokens, so every held-out edit sits strictly
        # inside an unchanged chunk of the other's partition
        sample = sample_of(
            "a b c d e", [Edit(0, 1, ("x",))], [Edit(3, 4, ("y",))]
        )
        stats = boundary_stats([sample])
        assert (stats.icc, stats.iuc, stats.cc) == (0.0, 1.0, 0.0)

    def test_crossing_edit(self):
        # held-out edit spans an unchanged/changed boundary
        sample = sample_of(
            "a b c d e", [Edit(1, 4, ("x",))], [Edit(2, 3, ("y",))]
        )
        stats = boundary_stats([sample])
        assert stats.cc_count == 1
        assert stats.icc_count == 1  # the narrow edit sits inside the wide slot

    def test_point_edit_on_boundary_counts_in_chunk(self):
        # the held-out insertion at 2 sits on the boundary between the
        # unchanged chunk [0,2) and the slot [2,3); slots take precedence
        sample = sample_of(
            "a b c d e", [Edit(2, 2, ("q",))], [Edit(2, 3, ("y",))]
        )
        stats = boundary_stats([sample])
        assert stats.icc_count == 1  # the insertion, holding out annotator 0
        assert stats.iuc_count == 1  # (2,3) vs the pure-insertion partition
        assert stats.cc_count == 0

    def test_counts_sum_to_held_out_edits(self):
        rng = random.Random(53)
        for _ in range(200):
            source = random_tokens(rng, 2, 8)
            refs = random_ref_sets(rng, len(source), 2, 4)
            sample = AnnotatedSample(
                source, {aid: tuple(edits) for aid, edits in refs}
            )
            total_edits = sum(len(e) for _, e in refs)
            if total_edits == 0:
                continue
            stats = boundary_stats([sample])
            assert (
                stats.icc_count + stats.iuc_count + stats.cc_count
                == stats.edits_total
                == total_edits
            )

    def test_annotator_order_invariance(self):
        edits_a = [Edit(0, 1, ("x",))]
        edits_b = [Edit(2, 3, ("y",)), Edit(4, 4, ("q",))]
        one = sample_of("a b c d", edits_a, edits_b)
        other = AnnotatedSample(
            ("a", "b", "c", "d"), {1: tuple(edits_a), 0: tuple(edits_b)}
        )
        assert boundary_stats([one]) == boundary_stats([other])

    def test_too_few_annotators(self):
        with pytest.raises(TooFewAnnotatorsError):
            boundary_stats([sample_of("a b", [Edit(0, 1, ("x",))])])

    def test_too_few_annotators_numbers_samples_from_one(self):
        # the second sample has one annotator, so the message says "sample 2"
        samples = [sample_of("a b", [Edit(0, 1, ("x",))], []), sample_of("a b", [])]
        for stats in (boundary_stats, boundary_oracle.boundary_stats):
            with pytest.raises(TooFewAnnotatorsError) as err:
                stats(samples)
            assert str(err.value) == "sample 2 has 1 annotator(s); need at least 2"

    def test_per_pass_mean_ratios_sum_to_one(self):
        sample = sample_of(
            "a b c d e",
            [Edit(0, 1, ("x",)), Edit(2, 3, ("z",))],
            [Edit(0, 1, ("y",))],
            [Edit(3, 4, ("w",))],
        )
        stats = boundary_stats([sample], per_pass_mean=True)
        assert stats.icc + stats.iuc + stats.cc == pytest.approx(1.0, abs=1e-9)


    def test_matches_per_pass_oracle(self):
        # repeat-heavy short sources, 2-10 annotators, some of them with no
        # edits, so point edits often sit on a slot boundary or the source end
        rng = random.Random(67)
        no_edits = on_boundary = at_source_end = 0
        for _ in range(60):
            samples = []
            for _ in range(20):
                source = random_tokens(rng, 1, 6)
                annotations = {
                    aid: () if rng.random() < 0.2 else tuple(edits)
                    for aid, edits in random_ref_sets(rng, len(source), 2, 10)
                }
                samples.append(AnnotatedSample(source, annotations))
            for per_pass_mean in (False, True):
                assert boundary_stats(samples, per_pass_mean) == (
                    boundary_oracle.boundary_stats(samples, per_pass_mean)
                )
            for s in samples:
                no_edits += sum(not es for es in s.annotations.values())
                for held_out in s.annotator_ids:
                    spans, changed = slot_spans(
                        len(s.source),
                        [s.annotations[aid] for aid in s.annotator_ids if aid != held_out],
                    )
                    ends = {x for k in changed for x in spans[k]}
                    for e in s.annotations[held_out]:
                        on_boundary += e.start == e.end and e.start in ends
                        at_source_end += e.start == len(s.source)
        assert no_edits > 1000 and on_boundary > 1000 and at_source_end > 1000

    def test_no_held_out_edits(self):
        samples = [sample_of("a b", [], [])]
        with pytest.raises(NoChunksError):
            boundary_stats(samples)
        with pytest.raises(NoChunksError):
            boundary_oracle.boundary_stats(samples)


class TestCorpusStats:
    def test_small_reference_set(self):
        sample = sample_of("a b c", [Edit(0, 1, ("x",))], [])
        table = corpus_stats([sample])
        assert table["sentences"] == 1
        assert table["references"] == 2
        assert table["edits"] == 1
        assert table["avg_sentence_length"] == 3.0
        # annotator 0: changed chunk 'x' + unchanged 'b c'; annotator 1 keeps both
        assert table["changed_chunks"] == 1
        assert table["unchanged_chunks"] == 3

    def test_dummy_chunks_are_not_counted(self):
        # annotator 1 did not use the insertion slot: its chunk there is a dummy
        sample = sample_of("a b", [Edit(1, 1, ("x", "y"))], [])
        table = corpus_stats([sample])
        assert table["changed_chunks"] == 1
        assert table["unchanged_chunks"] == 4
        assert table["changed_chunk_share"] == 1 / 5
        assert table["avg_changed_chunk_length"] == 2.0

    def test_avg_changed_chunk_length_is_ell_without_hypothesis(self):
        rng = random.Random(59)
        samples = []
        for _ in range(300):
            source = random_tokens(rng, 1, 8)
            refs = random_ref_sets(rng, len(source), 1, 4)
            samples.append(
                AnnotatedSample(source, {aid: tuple(edits) for aid, edits in refs})
            )
        chunked = [
            partition(s.source, (), [(aid, s.annotations[aid]) for aid in s.annotator_ids])
            for s in samples
        ]
        n_dummies = sum(
            c.kind == "dummy"
            for cs in chunked
            for _, cks in chunk_views(cs).ref_chunks
            for c in cks
        )
        assert n_dummies > 0
        assert corpus_stats(samples)["avg_changed_chunk_length"] == compute_ell(chunked)

    def test_matches_chunk_based_oracle(self):
        # repeat-heavy sources, 2-10 annotators, some of them with no edits;
        # each batch is checked as drawn and with some edits made no-ops
        rng, noop_rng = random.Random(61), random.Random(62)
        no_edits = insertion_slots = noop_edits = equal_length_slots = 0
        lone_covering = lone_inside = shared_slots = kept_segments = 0
        for _ in range(40):
            samples = []
            for _ in range(20):
                source = random_tokens(rng, 1, 8)
                annotations = {
                    aid: () if rng.random() < 0.2 else tuple(edits)
                    for aid, edits in random_ref_sets(rng, len(source), 2, 10)
                }
                samples.append(AnnotatedSample(source, annotations))
            for batch in samples, [with_noop_edits(noop_rng, s) for s in samples]:
                got = corpus_stats(batch)
                assert got == corpus_stats_oracle(batch)
                chunked = [
                    partition(s.source, (), [(aid, s.annotations[aid]) for aid in s.annotator_ids])
                    for s in batch
                ]
                assert got["avg_changed_chunk_length"] == compute_ell(chunked)
                no_edits += sum(not es for s in batch for es in s.annotations.values())
                insertion_slots += sum(
                    cs.boundary_spans[idx][0] == cs.boundary_spans[idx][1]
                    for cs in chunked
                    for idx in cs.changed_indices
                )
                for s, cs in zip(batch, chunked):
                    for edits in s.annotations.values():
                        noop_edits += sum(e.replacement == s.source[e.start : e.end] for e in edits)
                        for idx in cs.changed_indices:
                            a, b = cs.boundary_spans[idx]
                            inside = [e for e in edits if a <= e.start and e.end <= b]
                            equal_length_slots += len(inside) > 1 and not sum(
                                len(e.replacement) - (e.end - e.start) for e in inside
                            )
                            if len(inside) == 1:
                                covers = (inside[0].start, inside[0].end) == (a, b)
                                lone_covering += covers
                                lone_inside += not covers
                            shared_slots += len(inside) > 1
                            span = s.source[a:b]
                            kept_segments += bool(inside) and span == apply_edits(
                                span, [Edit(e.start - a, e.end - a, e.replacement) for e in inside]
                            )
        # an edit-free reference, a no-op edit, and a slot where one
        # reference's edits keep the span's length
        assert no_edits > 100 and insertion_slots > 100
        assert noop_edits > 100 and equal_length_slots > 100
        # the slot layouts the one splice loop of splice_slots must handle: a
        # lone edit covering its slot or inside a wider one, several edits of
        # one reference in a slot, and a spliced segment that equals its span
        assert lone_covering > 100 and lone_inside > 100
        assert shared_slots > 100 and kept_segments > 100


def with_noop_edits(rng, sample):
    """``sample`` with some of its edits replaced by their own source span."""
    return AnnotatedSample(
        sample.source,
        {
            aid: tuple(
                Edit(e.start, e.end, sample.source[e.start : e.end])
                if e.start < e.end and rng.random() < 0.3
                else e
                for e in edits
            )
            for aid, edits in sample.annotations.items()
        },
    )


def corpus_stats_oracle(samples):
    """``corpus_stats`` as it was computed from one Chunk per chunk per reference."""
    n_sentences = len(samples)
    src_len = [len(s.source) for s in samples]
    ref_len: list[int] = []
    edit_len: list[int] = []
    unchanged_len: list[int] = []
    changed_len: list[int] = []
    for sample in samples:
        for aid in sample.annotator_ids:
            ref_len.append(len(apply_edits(sample.source, sample.annotations[aid])))
            edit_len.extend(len(e.replacement) for e in sample.annotations[aid])
        cs = partition_oracle.partition(
            sample.source,
            (),
            [(aid, sample.annotations[aid]) for aid in sample.annotator_ids],
        )
        # Dummy chunks (an insertion slot a reference did not use) count as neither.
        for _, chunks in cs.ref_chunks:
            for chunk in chunks:
                if chunk.kind == UNCHANGED:
                    unchanged_len.append(chunk_length(chunk))
                elif chunk.kind == CORRECTED:
                    changed_len.append(chunk_length(chunk))

    def _mean(xs):
        return math.fsum(xs) / len(xs) if xs else 0.0

    n_chunks = len(unchanged_len) + len(changed_len)
    return {
        "sentences": n_sentences,
        "avg_sentence_length": _mean(src_len),
        "references": len(ref_len),
        "avg_reference_length": _mean(ref_len),
        "edits": len(edit_len),
        "avg_edit_length": _mean(edit_len),
        "unchanged_chunks": len(unchanged_len),
        "unchanged_chunk_share": len(unchanged_len) / n_chunks if n_chunks else 0.0,
        "avg_unchanged_chunk_length": _mean(unchanged_len),
        "changed_chunks": len(changed_len),
        "changed_chunk_share": len(changed_len) / n_chunks if n_chunks else 0.0,
        "avg_changed_chunk_length": _mean(changed_len),
    }


class TestCorrelation:
    def test_pearson_perfect(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_pearson_example(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)

    def test_pearson_against_scipy(self):
        rng = random.Random(89)
        for _ in range(100):
            xs = [rng.uniform(-5, 5) for _ in range(rng.randint(3, 12))]
            ys = [rng.uniform(-5, 5) for _ in range(len(xs))]
            expected = scipy.stats.pearsonr(xs, ys).statistic
            assert pearson(xs, ys) == pytest.approx(expected, abs=1e-9)

    def test_spearman_monotone(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert spearman(xs, [x**3 for x in xs]) == pytest.approx(1.0)
        assert spearman(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_rank_ties_averaged(self):
        assert _ranks([1.0, 2.0, 2.0, 3.0]) == [1.0, 2.5, 2.5, 4.0]

    @staticmethod
    def ranks_loop(xs):
        """The sort-and-scan ranking that ``_ranks`` replaced, kept as its oracle."""
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

    def test_ranks_match_the_loop_bit_for_bit(self):
        rng = random.Random(131)
        extremes = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 0.5]
        for _ in range(5000):
            xs = [
                rng.choice(extremes) if rng.random() < 0.3 else float(rng.randint(-4, 4))
                for _ in range(rng.randint(0, 14))
            ]
            got, want = _ranks(xs), self.ranks_loop(xs)
            assert [r.hex() for r in got] == [r.hex() for r in want], xs

    def test_non_finite_scores_rejected(self):
        finite = [1.0, 2.0, 3.0]
        for bad in (math.nan, math.inf, -math.inf):
            for correlation in (pearson, spearman):
                for xs, ys in (([1.0, 2.0, bad], finite), (finite, [bad, 2.0, 3.0])):
                    with pytest.raises(ValueError, match="scores must be finite"):
                        correlation(xs, ys)
        # Spearman used to rank NaN as a value and return 1.0 beside Pearson's NaN
        with pytest.raises(ValueError, match="scores must be finite"):
            correlate({"a": 1.0, "b": 2.0, "c": math.nan}, {"a": 1.0, "b": 2.0, "c": 3.0})

    def test_spearman_against_scipy(self):
        rng = random.Random(97)
        for _ in range(100):
            xs = [float(rng.randint(0, 6)) for _ in range(rng.randint(3, 12))]
            ys = [float(rng.randint(0, 6)) for _ in range(len(xs))]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_lists(self):
        with pytest.raises(DegenerateError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_short_lists_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2])
        for correlation in (pearson, spearman):
            with pytest.raises(ValueError, match="length mismatch: 3 vs 4"):
                correlation([1, 2, 3], [1, 2, 3, 4])


class TestCorrelate:
    def test_identity_scores(self):
        human = {"s1": 0.1, "s2": 0.5, "s3": 0.9}
        gamma, rho = correlate({"s1": 0.1, "s2": 0.5, "s3": 0.9}, human)
        assert gamma == pytest.approx(1.0)
        assert rho == pytest.approx(1.0)

    def test_insertion_order_invariance(self):
        human = {"a": 1.0, "b": 2.0, "c": 4.0}
        forward = correlate({"a": 0.3, "b": 0.1, "c": 0.8}, human)
        backward = correlate({"c": 0.8, "a": 0.3, "b": 0.1}, human)
        assert forward == backward

    def test_system_mismatch(self):
        human = {"a": 1.0, "b": 2.0, "c": 3.0}
        with pytest.raises(SystemMismatchError) as err:
            correlate({"a": 0.1, "b": 0.2, "d": 0.3}, human)
        assert err.value.only_in_metric == ["d"]
        assert err.value.only_in_human == ["c"]


class TestScoreTables:
    def test_human_table_round_trip(self):
        table = load_human_table("system\tscore\ns1\t0.5\ns2\t0.25\n")
        assert table == {"s1": 0.5, "s2": 0.25}

    def test_human_table_requires_header(self):
        with pytest.raises(ParseError):
            load_human_table("s1\t0.5\n")

    def test_human_table_rejects_duplicates(self):
        with pytest.raises(ParseError):
            load_human_table("system\tscore\ns1\t0.5\ns1\t0.7\n")

    def test_metric_scores_from_simple_table(self):
        assert load_metric_scores("system\tscore\ns1\t0.5\n") == {"s1": 0.5}

    def test_header_may_follow_blank_and_comment_lines(self):
        text = "# human scores\n\nsystem\tscore\ns1\t0.5\n# note\n\ns2\t0.25\n"
        want = {"s1": 0.5, "s2": 0.25}
        # a repeated header is skipped, so two tables concatenated read as one
        for text in (text, text.replace("# note\n", "# note\nsystem \tscore\n")):
            assert load_metric_scores(text) == want
            assert load_human_table(text) == want
        # errors name the physical line
        for bad, line in [("# c\n\ns1\t0.5\n", 3), ("# c\nsystem\tscore\ns1\tx\n", 3)]:
            for load in (load_metric_scores, load_human_table):
                with pytest.raises(ParseError) as err:
                    load(bad)
                assert err.value.line == line

    def test_metric_scores_from_report(self):
        report = (
            "# ell: 2.0\n"
            "system\ttp_w\tfp_w\tfn_w\ttn_w\ttp_n\tfp_n\tfn_n\ttn_n\tP\tR\tF_beta\tAcc\tvariant\n"
            "s1\t1\t0\t0\t2\t1\t0\t0\t2\t1.0\t1.0\t1.0\t1.0\tdep\n"
            "s2\t0\t1\t1\t2\t0\t1\t1\t2\t0.0\t0.0\t0.0\t0.5\tdep\n"
        )
        assert load_metric_scores(report) == {"s1": 1.0, "s2": 0.0}
        # every cell is stripped: ' s1' names s1, and 'dep ' is variant dep
        padded = report.replace("s1\t", " s1\t").replace("\tdep\n", "\tdep \n")
        assert load_metric_scores(padded) == {"s1": 1.0, "s2": 0.0}
        assert load_metric_scores(padded, "dep") == {"s1": 1.0, "s2": 0.0}
        with pytest.raises(ParseError, match="duplicate system 's1'") as err:
            load_metric_scores(report.replace("s2\t", "s1 \t"))
        assert err.value.line == 4

    def test_metric_scores_need_variant_when_ambiguous(self):
        report = (
            "system\ttp_w\tfp_w\tfn_w\ttn_w\ttp_n\tfp_n\tfn_n\ttn_n\tP\tR\tF_beta\tAcc\tvariant\n"
            "s1\t1\t0\t0\t2\t1\t0\t0\t2\t1.0\t1.0\t1.0\t0.9\tdep\n"
            "s1\t1\t0\t0\t2\t1\t0\t0\t2\t1.0\t1.0\t0.8\t0.7\tdep-acc\n"
        )
        with pytest.raises(ParseError):
            load_metric_scores(report)
        assert load_metric_scores(report, "dep") == {"s1": 1.0}
        # accuracy variants read the Acc column
        assert load_metric_scores(report, "dep-acc") == {"s1": 0.7}
