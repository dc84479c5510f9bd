import dataclasses
import math
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
import edit_level_oracle
import partition_oracle
import scoring_oracle
from conftest import random_case

from chunkeval import (
    VARIANTS,
    AnnotatedSample,
    Edit,
    NoChunksError,
    OutcomeCounts,
    Scores,
    WeightConfig,
    accuracy,
    aggregate_sentence,
    apply_edits,
    compute_ell,
    default_config,
    emit_m2,
    extract_edits,
    f_beta_formula,
    length_weight,
    parse_m2,
    partition,
    precision_recall,
    raw_weight,
    run_variant,
    score_sentence_dependent,
    score_sentence_independent,
    sum_counts,
    unweighted,
)
from chunkeval.scoring import FN_MODES, parse_variant
from test_chunker import fig_sample, top_sample

CFG = replace(default_config("dep"), ell=2.0)


def raw(counts):
    return (counts.tp_n, counts.fp_n, counts.fn_n, counts.tn_n)


class TestLengthWeight:
    def test_fixed_point_at_ell(self):
        for alpha in (2.0, 3.0, 5.0, 10.0):
            for ell in (1.0, 2.0, 2.4, 5.0):
                for outcome in ("tp", "fp", "fn"):
                    assert raw_weight(ell, alpha, ell, outcome) == pytest.approx(
                        1.0, abs=1e-12
                    )

    def test_numeric_example_clipped(self):
        cfg = replace(CFG, alpha_tp=2.0, ell=2.0, clip_tp=(0.75, 1.25))
        assert raw_weight(4, 2.0, 2.0, "tp") == pytest.approx(
            2.0 / (1.0 + math.exp(-2.0)), abs=1e-9
        )
        assert raw_weight(4, 2.0, 2.0, "tp") == pytest.approx(1.7616, abs=1e-4)
        assert length_weight(4, cfg, "tp") == 1.25

    def test_tn_pinned_to_one(self):
        for x in range(0, 13):
            assert length_weight(x, CFG, "tn") == 1.0
            assert raw_weight(x, 10.0, 2.0, "tn") == 1.0

    @pytest.mark.parametrize("outcome", ["TP", "tn ", "", "alpha"])
    def test_unknown_outcome_rejected(self, outcome):
        message = f"^{re.escape(f'unknown outcome {outcome!r}')}$"
        with pytest.raises(ValueError, match=message):
            raw_weight(1, 2.0, 1.0, outcome)
        with pytest.raises(ValueError, match=message):
            length_weight(1, CFG, outcome)

    def test_monotone_directions(self):
        for alpha in (2.0, 3.0, 5.0, 10.0):
            for ell in (1.0, 2.0, 2.4, 5.0):
                tp = [raw_weight(x, alpha, ell, "tp") for x in range(13)]
                fp = [raw_weight(x, alpha, ell, "fp") for x in range(13)]
                fn = [raw_weight(x, alpha, ell, "fn") for x in range(13)]
                assert all(a <= b for a, b in zip(tp, tp[1:]))
                assert all(a <= b for a, b in zip(fn, fn[1:]))
                assert all(a >= b for a, b in zip(fp, fp[1:]))


class TestComputeEll:
    def test_mean_of_changed_chunk_lengths(self):
        source = ("a", "b", "c", "d", "e")
        refs = [
            (0, [Edit(0, 2, ("x",)), Edit(3, 5, ("y", "z", "w"))]),
            (1, [Edit(0, 2, ("q",)), Edit(3, 5, ("r", "s", "t"))]),
        ]
        cs = partition(source, [], refs)
        assert compute_ell([cs]) == 2.5

    def test_single_chunk_of_length_five(self):
        cs = partition(("a", "b", "c", "d", "e"), [], [(0, [Edit(0, 5, ("x",))])])
        assert compute_ell([cs]) == 5.0

    def test_no_changed_chunks_raises(self):
        cs = partition(("a", "b"), [], [(0, [])])
        with pytest.raises(NoChunksError):
            compute_ell([cs])

    def test_kept_dummy_chunks_do_not_dilute(self):
        # one ref inserts, the other keeps: only the real insertion counts
        cs = partition(("a", "b"), [], [(0, [Edit(1, 1, ("x", "y"))]), (1, [])])
        assert compute_ell([cs]) == 2.0


class TestDependent:
    def test_top_sample_restricted_counts(self):
        cs = top_sample()
        slots = [i for i in cs.changed_indices]
        assert slots == [1, 3, 5]
        # restrict to the first two slots by scoring a sub-sample equivalent:
        # count outcomes manually from the winning reference
        counts, _ = score_sentence_dependent(cs, CFG)
        assert raw(counts) == (2, 1, 0, 4)

    def test_hyp_identical_to_reference(self):
        source = ("a", "b", "c")
        ref0 = [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))]
        cs = partition(source, list(ref0), [(0, ref0), (1, [Edit(0, 1, ("q",))])])
        counts, chosen = score_sentence_dependent(cs, CFG)
        assert chosen == 0
        assert counts.fp_n == counts.fn_n == 0
        assert counts.tp_n == 2
        assert Scores.from_counts(counts, CFG.beta).f_beta == 1.0
        assert Scores.from_counts(counts, CFG.beta).accuracy == 1.0

    def test_do_nothing_hyp_prefers_edit_free_reference(self):
        source = ("a", "b", "c")
        refs = [(0, [Edit(0, 1, ("x",)), Edit(2, 3, ("y",))]), (5, [])]
        cs = partition(source, [], refs)
        counts, chosen = score_sentence_dependent(cs, CFG)
        assert chosen == 5
        assert raw(counts)[:3] == (0, 0, 0)
        p, r = precision_recall(counts)
        assert (p, r) == (1.0, 1.0)

    def test_mismatch_is_fp_only_by_default(self):
        # one contested slot: hyp changes it one way, both refs another way
        source = ("compared", "for", "the", "century")
        hyp = [Edit(1, 2, ("between",))]
        refs = [(0, [Edit(1, 2, ("to",))]), (1, [Edit(1, 2, ("with",))])]
        cs = partition(source, hyp, refs)
        counts, _ = score_sentence_dependent(cs, CFG)
        assert raw(counts) == (0, 1, 0, 2)
        both, _ = score_sentence_dependent(cs, CFG, fn_on_mismatch="both")
        assert raw(both) == (0, 1, 1, 2)

    def test_tie_breaks_prefer_lower_annotator_id(self):
        source = ("a", "b")
        refs = [(3, [Edit(0, 1, ("x",))]), (7, [Edit(0, 1, ("x",))])]
        cs = partition(source, [Edit(0, 1, ("x",))], refs)
        _, chosen = score_sentence_dependent(cs, CFG)
        assert chosen == 3

    def test_equal_references_choose_the_lowest_id_in_any_order(self):
        source, hyp = ("a", "b"), [Edit(0, 1, ("x",))]
        refs = [(5, [Edit(0, 1, ("y",))]), (2, [Edit(0, 1, ("y",))])]
        cs = partition(source, hyp, refs)
        assert cs.slot_columns.distinct == ((2, cs.slot_columns.refs[1]),)
        _, chosen = score_sentence_dependent(cs, CFG)
        old = partition_oracle.partition(source, hyp, refs)
        assert chosen == scoring_oracle.score_sentence_dependent(old, CFG)[1] == 2

    def test_sample_without_references(self):
        cs = partition(("a", "b"), [Edit(0, 1, ("x",))], [])
        counts, chosen = score_sentence_dependent(cs, CFG)
        assert chosen is None
        assert raw(counts) == (0, 1, 0, 1)


class TestIndependent:
    def test_top_sample_counts(self):
        counts = score_sentence_independent(top_sample(), CFG)
        assert raw(counts) == (3, 0, 0, 4)

    def test_single_reference_matches_dependent(self):
        rng = random.Random(61)
        for _ in range(300):
            source, hyp_edits, refs = random_case(rng, min_refs=1, max_refs=1)
            cs = partition(source, hyp_edits, refs)
            for mode in ("fp-only", "both"):
                dep, _ = score_sentence_dependent(cs, CFG, mode)
                ind = score_sentence_independent(cs, CFG, mode)
                assert raw(dep) == raw(ind)
                assert (dep.tp_w, dep.fp_w, dep.fn_w, dep.tn_w) == (
                    ind.tp_w,
                    ind.fp_w,
                    ind.fn_w,
                    ind.tn_w,
                )

    def test_mismatch_both_mode_counts_fp_and_fn(self):
        source = ("compared", "for", "the", "century")
        hyp = [Edit(1, 2, ("between",))]
        refs = [(0, [Edit(1, 2, ("to",))]), (1, [Edit(1, 2, ("with",))])]
        cs = partition(source, hyp, refs)
        assert raw(score_sentence_independent(cs, CFG)) == (0, 1, 0, 2)
        assert raw(score_sentence_independent(cs, CFG, "both")) == (0, 1, 1, 2)

    def test_kept_slot_with_any_keeping_ref_is_tn(self):
        source = ("a", "b")
        refs = [(0, [Edit(0, 1, ("x",))]), (1, [])]
        cs = partition(source, [], refs)
        counts = score_sentence_independent(cs, CFG)
        assert raw(counts) == (0, 0, 0, 2)

    def test_kept_slot_where_all_refs_changed_is_fn(self):
        source = ("a", "b")
        refs = [(0, [Edit(0, 1, ("x",))]), (1, [Edit(0, 1, ("y",))])]
        cs = partition(source, [], refs)
        counts = score_sentence_independent(cs, CFG)
        assert raw(counts) == (0, 0, 1, 1)

    def test_do_nothing_hyp_scores_1_when_each_slot_has_a_keeper(self):
        # the references disagree about which slot needs fixing; keeping
        # everything matches one reference at every slot under independence
        # but no single reference end to end
        source = ("a", "b", "c")
        refs = [(0, [Edit(0, 1, ("x",))]), (1, [Edit(2, 3, ("y",))])]
        cs = partition(source, [], refs)
        ind = score_sentence_independent(cs, CFG)
        assert raw(ind) == (0, 0, 0, 3)
        assert Scores.from_counts(ind, CFG.beta).f_beta == 1.0
        dep, _ = score_sentence_dependent(cs, CFG)
        assert dep.fn_n == 1
        assert Scores.from_counts(dep, CFG.beta).f_beta == 0.0


class TestMatchesSlotOracle:
    """The record-based scorer against the per-slot scorer it replaced.

    The per-slot scorer reads the chunks of the partition it was written
    for, ``partition_oracle.partition``, so each side scores its own
    partition of the same case.
    """

    @staticmethod
    def bits(counts):
        return tuple(
            v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(counts)
        )

    @staticmethod
    def ell_or_error(ell, dataset):
        try:
            return ell(dataset)
        except NoChunksError:
            return "no chunks"

    def test_counts_choice_and_ell_are_identical(self):
        rng, shuffle_rng = random.Random(89), random.Random(90)
        repeated = 0  # sentences where two references have equal columns
        for _ in range(40):
            batch, old_batch = [], []
            for _ in range(15):
                source, hyp_edits, refs = random_case(rng, min_refs=0, max_refs=10)
                if refs and rng.random() < 0.3:  # make TPs common
                    hyp_edits = list(rng.choice(refs)[1])
                # the references as given, then in shuffled order
                for order in (refs, shuffle_rng.sample(refs, len(refs))):
                    batch.append(partition(source, hyp_edits, order))
                    old_batch.append(partition_oracle.partition(source, hyp_edits, order))
            repeated += sum(
                len(cs.slot_columns.distinct) < len(cs.annotator_ids) for cs in batch
            )
            singles = [([cs], [old]) for cs, old in zip(batch, old_batch)]
            for dataset, old_dataset in [(batch, old_batch)] + singles:
                assert self.ell_or_error(compute_ell, dataset) == self.ell_or_error(
                    scoring_oracle.compute_ell, old_dataset
                )
            ell = self.ell_or_error(compute_ell, batch)
            ell = 1.0 if ell == "no chunks" else ell
            profiles = [
                replace(default_config(v), ell=ell)
                for v in ("dep", "sent-dep", "sent-indep")
            ]
            custom = WeightConfig(
                alpha_tp=3.0,
                alpha_fp=5.0,
                alpha_fn=1.5,
                clip_tp=(0.5, 2.0),
                clip_fp=(0.2, 3.0),
                clip_fn=(0.9, 1.1),
                ell=ell + 0.5,
                beta=2.0,
            )
            default = WeightConfig()
            assert all(
                getattr(custom, f.name) != getattr(default, f.name)
                for f in dataclasses.fields(WeightConfig)
            )
            for cfg in profiles + [unweighted(profiles[0]), custom]:
                for mode in FN_MODES:
                    for cs, old in zip(batch, old_batch):
                        dep, aid = score_sentence_dependent(cs, cfg, mode)
                        want, want_aid = scoring_oracle.score_sentence_dependent(
                            old, cfg, mode
                        )
                        assert (self.bits(dep), aid) == (self.bits(want), want_aid)
                        ind = score_sentence_independent(cs, cfg, mode)
                        want = scoring_oracle.score_sentence_independent(old, cfg, mode)
                        assert self.bits(ind) == self.bits(want)
        assert repeated >= 300

    def test_run_variant_sums_the_same_sentences(self):
        rng = random.Random(97)
        cases = [random_case(rng, min_refs=0, max_refs=10) for _ in range(200)]
        batch = [partition(*case) for case in cases]
        old_batch = [partition_oracle.partition(*case) for case in cases]
        cfg = replace(default_config("dep"), ell=compute_ell(batch))
        for variant in ("dep", "indep"):
            result = run_variant(batch, variant, cfg, "both")
            if variant == "dep":
                pairs = [
                    scoring_oracle.score_sentence_dependent(old, cfg, "both")
                    for old in old_batch
                ]
                assert result.chosen_refs == tuple(aid for _, aid in pairs)
                want = [counts for counts, _ in pairs]
            else:
                want = [
                    scoring_oracle.score_sentence_independent(old, cfg, "both")
                    for old in old_batch
                ]
            assert self.bits(result.counts) == self.bits(sum_counts(want))


class TestRunVariantMatchesOracle:
    """``run_variant`` against the reduction that built objects per sentence."""

    @staticmethod
    def bits(result):
        values = [*dataclasses.astuple(result.counts), *dataclasses.astuple(result.scores)]
        floats = [v.hex() if isinstance(v, float) else v for v in values]
        return result.variant, floats, result.chosen_refs

    def test_float_for_float_on_every_variant_mode_and_profile(self):
        rng = random.Random(101)
        cases = []
        for _ in range(300):
            source, hyp_edits, refs = random_case(rng, min_refs=0, max_refs=10)
            if refs and rng.random() < 0.3:  # make TPs common
                hyp_edits = list(rng.choice(refs)[1])
            cases.append((source, hyp_edits, refs))
        batch = [partition(*case) for case in cases]
        ell = compute_ell(batch)
        custom = WeightConfig(
            alpha_tp=3.0,
            alpha_fp=5.0,
            alpha_fn=1.5,
            clip_tp=(0.5, 2.0),
            clip_fp=(0.2, 3.0),
            clip_fn=(0.9, 1.1),
            ell=ell + 0.5,
            beta=2.0,
        )
        for variant in VARIANTS:
            own = replace(default_config(variant), ell=ell)
            profiles = [
                unweighted(own),
                own,
                replace(default_config("sent-indep"), ell=ell - 0.25),
                custom,
            ]
            for cfg in profiles:
                for mode in FN_MODES:
                    for dataset in (batch, batch[:1], batch[::7]):
                        got = run_variant(dataset, variant, cfg, mode)
                        want = scoring_oracle.run_variant(dataset, variant, cfg, mode)
                        assert self.bits(got) == self.bits(want), (variant, cfg, mode)

    def test_an_empty_dataset_is_reduced_alike(self):
        cfg = default_config("dep")
        for variant in VARIANTS:
            if parse_variant(variant)[1] == "corpus":
                got = run_variant([], variant, cfg)
                assert self.bits(got) == self.bits(scoring_oracle.run_variant([], variant, cfg))
            else:
                for run in (run_variant, scoring_oracle.run_variant):
                    with pytest.raises(ZeroDivisionError):
                        run([], variant, cfg)


class TestFBeta:
    @pytest.mark.parametrize(
        "p,r,f",
        [(37.79, 19.98, 32.08), (26.45, 20.97, 25.14), (26.90, 25.53, 26.61)],
    )
    def test_known_score_triples(self, p, r, f):
        assert f_beta_formula(p / 100, r / 100, 0.5) * 100 == pytest.approx(
            f, abs=0.01
        )

    def test_equal_precision_recall(self):
        for beta in (0.5, 1.0, 2.0):
            for v in (0.1, 0.5, 1.0):
                assert f_beta_formula(v, v, beta) == pytest.approx(v, abs=1e-12)

    def test_zero_numerator(self):
        assert f_beta_formula(1.0, 0.0, 0.5) == 0.0
        assert f_beta_formula(0.0, 1.0, 0.5) == 0.0

    def test_strictly_increasing(self):
        grid = [0.05, 0.2, 0.5, 0.9, 1.0]
        for r in grid:
            values = [f_beta_formula(p, r, 0.5) for p in grid]
            assert all(a < b for a, b in zip(values, values[1:]))
        for p in grid:
            values = [f_beta_formula(p, r, 0.5) for r in grid]
            assert all(a < b for a, b in zip(values, values[1:]))


class TestPrecisionRecallAccuracy:
    def test_direct(self):
        counts = OutcomeCounts(tp_w=2.0, fp_w=0.0, fn_w=1.0)
        assert precision_recall(counts) == (1.0, 2.0 / 3.0)

    def test_zero_division_convention(self):
        assert precision_recall(OutcomeCounts()) == (1.0, 1.0)

    def test_weighted_count_ratios(self):
        counts = OutcomeCounts(tp_w=318.0, fp_w=864.0, fn_w=928.0)
        p, r = precision_recall(counts)
        assert p == pytest.approx(0.2690, abs=0.0005)
        assert r == pytest.approx(0.2553, abs=0.0005)

    def test_accuracy(self):
        assert accuracy(OutcomeCounts(tp_w=1.0, tn_w=3.0)) == 1.0
        assert accuracy(OutcomeCounts(tn_w=2.0, fp_w=1.0, fn_w=1.0)) == 0.5
        assert accuracy(OutcomeCounts()) == 1.0

    def test_scores_satisfy_f_formula(self):
        rng = random.Random(67)
        for _ in range(200):
            counts = OutcomeCounts(
                tp_w=rng.uniform(0, 5),
                fp_w=rng.uniform(0, 5),
                fn_w=rng.uniform(0, 5),
                tn_w=rng.uniform(0, 5),
            )
            s = Scores.from_counts(counts, 0.5)
            assert s.f_beta == pytest.approx(
                f_beta_formula(s.precision, s.recall, 0.5), abs=1e-12
            )


class TestAggregation:
    def test_single_sentence_identity(self):
        counts = OutcomeCounts(tp_w=1.0, tp_n=1, tn_w=2.0, tn_n=2)
        assert Scores.from_counts(sum_counts([counts])) == Scores.from_counts(counts)

    def test_sum_then_divide(self):
        a = OutcomeCounts(tp_w=1.0, tp_n=1)
        b = OutcomeCounts(fp_w=1.0, fp_n=1)
        scores = Scores.from_counts(sum_counts([a, b]))
        assert scores.precision == 0.5
        assert scores.recall == 1.0

    def test_permutation_invariance_exact(self):
        rng = random.Random(71)
        counts = [
            OutcomeCounts(
                tp_w=rng.uniform(0, 2),
                fp_w=rng.uniform(0, 2),
                fn_w=rng.uniform(0, 2),
                tn_w=rng.uniform(0, 2),
            )
            for _ in range(50)
        ]
        base = Scores.from_counts(sum_counts(counts))
        for _ in range(10):
            rng.shuffle(counts)
            assert Scores.from_counts(sum_counts(counts)) == base

    def test_sentence_mean(self):
        s1 = Scores(1.0, 1.0, 1.0, 1.0)
        s0 = Scores(1.0, 0.0, 0.0, 0.5)
        agg = aggregate_sentence([s1, s0])
        assert agg.f_beta == 0.5
        assert agg.precision == 1.0
        assert agg.accuracy == 0.75
        assert aggregate_sentence([s1, s1]).f_beta == 1.0


class TestScoringProperties:
    def test_perfect_hypothesis_fixed_point(self):
        rng = random.Random(73)
        for _ in range(300):
            source, _, refs = random_case(rng)
            pick = rng.choice(refs)
            cs = partition(source, list(pick[1]), refs)
            dep, _ = score_sentence_dependent(cs, CFG)
            ind = score_sentence_independent(cs, CFG)
            assert Scores.from_counts(dep, CFG.beta).f_beta == 1.0
            assert Scores.from_counts(ind, CFG.beta).f_beta == 1.0

    def test_independence_dominance(self):
        rng = random.Random(79)
        for _ in range(500):
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            dep, _ = score_sentence_dependent(cs, CFG)
            ind = score_sentence_independent(cs, CFG)
            assert ind.tp_w >= dep.tp_w - 1e-12
            assert ind.fn_w <= dep.fn_w + 1e-12
            assert ind.tp_n >= dep.tp_n
            assert ind.fn_n <= dep.fn_n

    def test_raw_count_mode_reduces_to_plain_counts(self):
        rng = random.Random(83)
        cfg = unweighted(CFG)
        for _ in range(200):
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            for counts in (
                score_sentence_dependent(cs, cfg)[0],
                score_sentence_independent(cs, cfg),
            ):
                assert counts.tp_w == counts.tp_n
                assert counts.fp_w == counts.fp_n
                assert counts.fn_w == counts.fn_n
                assert counts.tn_w == counts.tn_n


class TestWeightPlumbing:
    # wide clips expose the raw logistic values; ell = 2, alpha = 2
    CFG = WeightConfig(
        ell=2.0, clip_tp=(0.5, 2.0), clip_fp=(0.5, 2.0), clip_fn=(0.5, 2.0)
    )
    W4 = 2.0 / (1.0 + math.exp(-2.0))  # rising curve at x=4
    W1_FALL = 2.0 / (1.0 + math.exp(-1.0))  # falling curve at x=1
    W1_RISE = 2.0 / (1.0 + math.exp(1.0))  # rising curve at x=1

    def sample(self, hyp_edits):
        source = ("a", "b", "c")
        refs = [
            (0, [Edit(1, 2, ("x", "y", "z", "w"))]),  # chunk length 4
            (1, [Edit(1, 2, ())]),  # deletion, chunk length 1
        ]
        return partition(source, hyp_edits, refs)

    def test_tp_weight_uses_hypothesis_chunk_length(self):
        cs = self.sample([Edit(1, 2, ("x", "y", "z", "w"))])
        dep, chosen = score_sentence_dependent(cs, self.CFG)
        assert chosen == 0
        assert dep.tp_w == pytest.approx(self.W4, abs=1e-12)
        ind = score_sentence_independent(cs, self.CFG)
        assert ind.tp_w == pytest.approx(self.W4, abs=1e-12)

    def test_fp_weight_uses_hypothesis_chunk_length(self):
        cs = self.sample([Edit(1, 2, ("q",))])
        dep, chosen = score_sentence_dependent(cs, self.CFG)
        assert chosen == 0  # scores tie at 0, lower annotator id wins
        assert dep.fp_w == pytest.approx(self.W1_FALL, abs=1e-12)
        assert dep.fn_w == 0.0

    def test_mismatch_fn_weights_in_both_mode(self):
        cs = self.sample([Edit(1, 2, ("q",))])
        dep, _ = score_sentence_dependent(cs, self.CFG, fn_on_mismatch="both")
        # selected reference 0 contributes its own chunk length (4)
        assert dep.fn_w == pytest.approx(self.W4, abs=1e-12)
        ind = score_sentence_independent(cs, self.CFG, fn_on_mismatch="both")
        # independent FN takes the shortest changed reference chunk (1)
        assert ind.fn_w == pytest.approx(self.W1_RISE, abs=1e-12)
        assert ind.fp_w == pytest.approx(self.W1_FALL, abs=1e-12)

    def test_kept_hypothesis_fn_weights(self):
        cs = self.sample([])
        dep, chosen = score_sentence_dependent(cs, self.CFG)
        assert chosen == 0
        assert dep.fn_w == pytest.approx(self.W4, abs=1e-12)
        ind = score_sentence_independent(cs, self.CFG)
        assert ind.fn_w == pytest.approx(self.W1_RISE, abs=1e-12)

    def test_falling_and_rising_curves_are_symmetric(self):
        assert self.W1_FALL + self.W1_RISE == pytest.approx(2.0, abs=1e-12)


class TestWeightConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightConfig(alpha_tp=1.0)
        with pytest.raises(ValueError):
            WeightConfig(clip_tp=(0.0, 1.0))
        with pytest.raises(ValueError):
            WeightConfig(clip_fp=(2.0, 1.0))
        with pytest.raises(ValueError):
            WeightConfig(ell=0.0)

    def test_rejects_infinite_clip_and_overflowing_beta(self):
        for bounds in ((1.0, math.inf), (math.inf, math.inf)):
            with pytest.raises(ValueError):
                WeightConfig(clip_tp=bounds)
        with pytest.raises(ValueError):
            WeightConfig(beta=1e200)
        assert WeightConfig(beta=1e150).beta == 1e150

    def test_variant_profiles(self):
        corpus = default_config("indep-acc")
        assert corpus.alpha_tp == 2.0
        assert corpus.clip_fn == (0.75, 1.25)
        sent_dep = default_config("sent-dep")
        assert sent_dep.clip_tp == (1.0, 10.0)
        assert sent_dep.clip_fp == (0.25, 10.0)
        assert sent_dep.clip_fn == (1.0, 1.0)
        sent_ind = default_config("sent-indep-acc")
        assert sent_ind.clip_tp == (2.5, 10.0)
        assert sent_ind.clip_fp == (0.25, 1.0)
        assert parse_variant("sent-dep-acc") == ("dep", "sentence")
        for variant in ("dep-ac", "DEP", "sent-dep-", ""):
            with pytest.raises(ValueError, match=f"unknown variant {variant!r}"):
                parse_variant(variant)

    def test_sum_counts_keeps_raw_integers(self):
        total = sum_counts([OutcomeCounts(tp_n=2), OutcomeCounts(tp_n=3)])
        assert total.tp_n == 5


def test_no_credit_for_partially_corrected_slot():
    # the hypothesis fixes one word inside a four-word slot; the chunk as a
    # whole matches no reference, so it earns an FP rather than partial TP
    from test_chunker import mid_sample

    cs = mid_sample()
    dep, _ = score_sentence_dependent(cs, CFG)
    ind = score_sentence_independent(cs, CFG)
    assert dep.tp_n == 0 and dep.fp_n == 1
    assert ind.tp_n == 0 and ind.fp_n == 1


def test_fig_sample_scores_do_nothing_hypothesis():
    # the hypothesis keeps the only slot that both references changed
    cs = fig_sample()
    dep, _ = score_sentence_dependent(cs, CFG)
    ind = score_sentence_independent(cs, CFG)
    assert raw(dep) == (0, 0, 1, 0)
    assert raw(ind) == (0, 0, 1, 0)


class TestScoredMemo:
    """``run_variant(..., scored=d)`` against fresh calls without a memo."""

    @staticmethod
    def batch():
        rng = random.Random(53)
        cases = []
        for _ in range(80):
            source, hyp_edits, refs = random_case(rng, min_refs=1, max_refs=5)
            if rng.random() < 0.3:  # make TPs common
                hyp_edits = list(rng.choice(refs)[1])
            cases.append(partition(source, hyp_edits, refs))
        return cases

    def test_twin_equals_its_base_but_for_the_name_and_shares_no_counts(self):
        batch = self.batch()
        cfg = replace(default_config("dep"), ell=compute_ell(batch))
        for base in ("dep", "indep", "sent-dep", "sent-indep"):
            twin = base + "-acc"
            for first, second in ((base, twin), (twin, base)):
                scored = {}
                a = run_variant(batch, first, cfg, "both", scored=scored)
                b = run_variant(batch, second, cfg, "both", scored=scored)
                assert len(scored) == 1
                assert (a.variant, b.variant) == (first, second)
                assert b == replace(a, variant=second)
                assert b == run_variant(batch, second, cfg, "both")
                assert b.chosen_refs == a.chosen_refs
                assert len(a.chosen_refs) == (len(batch) if "dep" in base.split("-") else 0)
                assert b.counts is not a.counts
                # mutating either result's counts reaches neither the other nor the memo
                fresh = replace(a.counts)
                a.counts.tp_w += 1.0
                b.counts.fp_n += 1
                again = run_variant(batch, twin, cfg, "both", scored=scored)
                assert again.counts == fresh != a.counts
                assert again.counts is not b.counts

    def test_level_cfg_and_mode_each_miss_the_memo(self):
        batch = self.batch()
        cfg = replace(default_config("dep"), ell=compute_ell(batch))
        requests = [
            ("dep", cfg, "fp-only"),
            ("sent-dep", cfg, "fp-only"),  # another level under one cfg
            ("dep", replace(cfg, beta=2.0), "fp-only"),  # another cfg
            ("dep", cfg, "both"),  # another fn_on_mismatch mode
            ("indep", cfg, "fp-only"),  # another assumption
        ]
        scored = {}
        results = [run_variant(batch, v, c, m, scored=scored) for v, c, m in requests]
        assert len(scored) == len(requests)
        for (v, c, m), got in zip(requests, results):
            assert got == run_variant(batch, v, c, m)
        # each request scores differently from the first, so a hit would show
        assert all(got.scores != results[0].scores for got in results[1:])


@pytest.mark.parametrize("mode", ["Both", "fp_only", ""])
def test_unknown_fn_on_mismatch_rejected(mode):
    # at every entry point, before anything is scored or stored
    cs = partition(("a", "b"), [Edit(0, 1, ("x",))], [(0, [Edit(0, 1, ("y",))])])
    assert [run_variant([cs], "dep", CFG, m).counts.fn_n for m in FN_MODES] == [1, 0]
    message = re.escape(f"fn_on_mismatch must be one of {FN_MODES}, got {mode!r}")
    scored = {}
    run_variant([cs], "dep", CFG, "both", scored=scored)
    for variant in ("dep", "dep-acc", "indep", "sent-dep-acc"):
        with pytest.raises(ValueError, match=message):
            run_variant([cs], variant, CFG, mode, scored=scored)
        with pytest.raises(ValueError, match=message):
            run_variant([cs], variant, CFG, mode)
    assert list(scored) == [("dep", "corpus", CFG, "both")]
    for score_sentence in (score_sentence_dependent, score_sentence_independent):
        with pytest.raises(ValueError, match=message):
            score_sentence(cs, CFG, mode)


class TestEditLevelOracle:
    """Where edit boundaries agree, chunk counts are edit counts.

    On seeded cases over the repeat-heavy ``conftest.VOCAB``, each sentence
    whose pooled edit intervals are pairwise disjoint and do not touch is
    also scored by ``edit_level_oracle``, which matches whole edits and
    builds no chunk. The hypothesis comes as text, aligned by
    ``extract_edits``, or as M2 edits read back by ``parse_m2``.
    """

    N_CASES = 1500

    @staticmethod
    def cases(path):
        rng = random.Random(61)
        for _ in range(TestEditLevelOracle.N_CASES):
            source, hyp_edits, refs = random_case(rng, min_refs=1, max_refs=4)
            if rng.random() < 0.3:  # make TPs common
                hyp_edits = list(rng.choice(refs)[1])
            if path == "text":
                hyp_edits = extract_edits(source, apply_edits(source, hyp_edits))
            else:
                m2 = emit_m2([AnnotatedSample(source, {0: tuple(hyp_edits)})])
                hyp_edits = parse_m2(m2)[0].annotations[0]
            yield source, hyp_edits, refs

    @staticmethod
    def totals(counts):
        return (counts.tp_w, counts.fp_w, counts.fn_w, counts.tp_n, counts.fp_n, counts.fn_n)

    @pytest.mark.parametrize("path", ["text", "m2"])
    def test_dep_and_indep_count_what_the_edit_scorer_counts(self, path):
        configs = [
            unweighted(CFG),
            CFG,
            replace(default_config("sent-dep"), ell=1.5),
            replace(default_config("sent-indep"), ell=2.5, beta=2.0),
        ]
        held, seen = 0, Counter()
        for source, hyp_edits, refs in self.cases(path):
            if not edit_level_oracle.boundaries_agree([hyp_edits] + [e for _, e in refs]):
                continue
            held += 1
            cs = partition(source, hyp_edits, refs)
            for cfg in configs:

                def weight(outcome, length, cfg=cfg):
                    return length_weight(length, cfg, outcome)

                for mode in FN_MODES:
                    dep, aid = score_sentence_dependent(cs, cfg, mode)
                    want, want_aid = edit_level_oracle.score_dependent(
                        source, hyp_edits, refs, mode, weight, cfg.beta
                    )
                    assert (self.totals(dep), aid) == (self.totals(want), want_aid)
                    ind = score_sentence_independent(cs, cfg, mode)
                    want = edit_level_oracle.score_independent(
                        source, hyp_edits, refs, mode, weight
                    )
                    assert self.totals(ind) == self.totals(want)
                    seen.update({"tp": dep.tp_n, "fp": dep.fp_n, f"fn {mode}": dep.fn_n})
                    seen["not the lowest id"] += aid != min(a for a, _ in refs)
        # At seed 61 the precondition held in 484 (text) and 479 (m2) of the
        # 1500 cases.
        assert held >= self.N_CASES // 4, held
        assert min(seen.values()) >= 20, seen
        # some spans were edited by the hypothesis and a reference differently
        assert seen["fn both"] > seen["fn fp-only"], seen
