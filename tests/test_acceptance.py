"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 7 needs external corpora and is skipped (with the reason recorded
in the skip message) unless the environment points at the data; see README.
"""

import os
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest
from conftest import random_case, random_ref_sets, random_tokens
from partition_oracle import chunk_views
from scoring_oracle import add, sum_counts

from chunkeval import (
    AnnotatedSample,
    Edit,
    OutcomeCounts,
    Scores,
    apply_edits,
    boundary_stats,
    compute_ell,
    correlate,
    default_config,
    emit_m2,
    extract_edits,
    f_beta_formula,
    length_weight,
    load_human_table,
    parse_m2,
    partition,
    raw_weight,
    run_variant,
    tokenize,
)
from test_chunker import (
    FIG_REF1,
    FIG_REF2,
    FIG_SRC,
    TOP_HYP,
    TOP_REF1,
    TOP_REF2,
    TOP_SRC,
    top_sample,
)

CFG = replace(default_config("dep"), ell=2.0)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# --- criterion 1: F_beta arithmetic over known corpus-level score triples ---

SYSTEMS = "AMU CAMB CUUI IITB INPUT IPN NTHU PKU POST RAC SJTU UFC UMC".split()
# Corpus-level P/R/F of the 13 CoNLL-2014 shared-task systems under an
# edit-based metric and the two chunk-based assumptions; percent scale,
# metric -> (P row, R row, F row). F must follow from P and R.
KNOWN_SCORES = {
    "edit-level": (
        [37.79, 35.30, 38.13, 30.11, 100.0, 9.63, 29.21, 29.67, 30.60, 28.66, 28.49, 72.00, 28.66],
        [19.98, 27.77, 23.78, 1.34, 0.00, 2.44, 17.15, 12.78, 20.38, 13.50, 4.86, 1.71, 13.34],
        [32.08, 33.48, 34.02, 5.68, 0.00, 6.06, 25.61, 23.46, 27.81, 23.40, 14.44, 7.81, 23.31],
    ),
    "chunk-dependent": (
        [26.45, 25.74, 26.81, 19.29, 100.0, 5.85, 21.42, 20.06, 21.07, 20.60, 19.02, 56.40, 20.14],
        [20.97, 32.84, 24.48, 1.09, 0.00, 2.22, 18.23, 13.39, 22.31, 13.71, 4.45, 1.52, 14.40],
        [25.14, 26.90, 26.31, 4.45, 0.00, 4.41, 20.69, 18.24, 21.31, 18.72, 11.50, 6.85, 18.65],
    ),
    "chunk-independent": (
        [26.90, 26.11, 27.85, 19.29, 100.0, 5.85, 22.00, 20.23, 21.50, 20.69, 19.02, 56.40, 20.22],
        [25.53, 41.06, 30.71, 1.25, 0.00, 2.57, 22.52, 16.10, 27.72, 16.59, 5.14, 1.75, 17.23],
        [26.61, 28.16, 28.38, 4.97, 0.00, 4.66, 22.10, 19.24, 22.51, 19.71, 12.35, 7.77, 19.54],
    ),
}


def test_criterion_1_f_beta_arithmetic():
    with criterion(1, "F_beta arithmetic"):
        for metric, (ps, rs, fs) in KNOWN_SCORES.items():
            for system, p, r, f in zip(SYSTEMS, ps, rs, fs):
                mine = f_beta_formula(p / 100.0, r / 100.0, 0.5) * 100.0
                # the tabulated P and R are rounded to two decimals, so
                # compare at the table's own precision
                assert abs(round(mine, 2) - f) <= 0.01 + 1e-9, (
                    f"{metric}/{system}: computed {mine:.4f}, tabulated {f}"
                )


# --- criterion 2: length-weight fixed point and monotonicity ----------------


def test_criterion_2_length_weight_curves():
    with criterion(2, "length-weight fixed point and monotonicity"):
        xs = [v / 4.0 for v in range(0, 49)]  # [0, 12] grid
        for alpha in (2.0, 3.0, 5.0, 10.0):
            for ell in (1.0, 2.0, 2.4, 5.0):
                for outcome in ("tp", "fp", "fn"):
                    assert abs(raw_weight(ell, alpha, ell, outcome) - 1.0) < 1e-12
                    curve = [raw_weight(x, alpha, ell, outcome) for x in xs]
                    pairs = list(zip(curve, curve[1:]))
                    if outcome == "fp":
                        assert all(a >= b for a, b in pairs)
                    else:
                        assert all(a <= b for a, b in pairs)


# --- criterion 3: three-token fragment partitions into one slot -------------


def test_criterion_3_single_slot_partition():
    with criterion(3, "single-slot chunking of the three-token fragment"):
        cs = chunk_views(partition(FIG_SRC, [], [(0, FIG_REF1), (1, FIG_REF2)]))
        assert cs.boundary_spans == ((0, 3),)
        assert cs.changed_indices == (0,)
        segments = {aid: chunks[0].segment for aid, chunks in cs.ref_chunks}
        assert segments[0] == ("technologies", "have")
        assert segments[1] == ("technology", "has")


# --- criterion 4: case-study counts --------------------------------


def test_criterion_4_case_study_counts():
    with criterion(4, "case-study dependent/independent counts"):
        # restricted to the two contested slots (drop the final going->go
        # edit that every sequence shares): dependent TP=1 FP=1, indep TP=2
        sub_src = TOP_SRC[:21]
        sub = partition(
            sub_src,
            extract_edits(sub_src, TOP_HYP[:22]),
            [
                (0, extract_edits(sub_src, TOP_REF1[:22])),
                (1, extract_edits(sub_src, TOP_REF2[:22])),
            ],
        )
        assert len(sub.changed_indices) == 2
        dep = run_variant([sub], "dep", CFG).counts
        assert (dep.tp_n, dep.fp_n) == (1, 1)
        ind = run_variant([sub], "indep", CFG).counts
        assert ind.tp_n == 2

        # the full sample adds the going->go slot as a TP under both
        full = top_sample()
        dep_full = run_variant([full], "dep", CFG).counts
        ind_full = run_variant([full], "indep", CFG).counts
        assert (dep_full.tp_n, dep_full.fp_n) == (2, 1)
        assert ind_full.tp_n == 3


# --- criterion 5: randomized property suite ----------------------------------

N_CASES = 1000


def test_criterion_5_property_suite():
    start = time.monotonic()
    with criterion(5, "randomized property suite"):
        rng = random.Random(20260809)

        # alignment edits splice back to the target
        for _ in range(N_CASES):
            src = random_tokens(rng, 1, 8)
            tgt = random_tokens(rng, 0, 8)
            assert apply_edits(src, extract_edits(src, tgt)) == tgt

        # same-K, per-index span equality, and reconstruction
        for _ in range(N_CASES):
            source, hyp_edits, refs = random_case(rng)
            cs = chunk_views(partition(source, hyp_edits, refs))
            spans = list(cs.boundary_spans)
            sequences = [(cs.hyp_chunks, hyp_edits)] + [
                (chunks, edits)
                for (aid, edits), (_, chunks) in zip(refs, cs.ref_chunks)
            ]
            for chunks, edits in sequences:
                assert len(chunks) == len(spans)
                assert [(c.src_start, c.src_end) for c in chunks] == spans
                assert sum((c.segment for c in chunks), ()) == apply_edits(
                    source, edits
                )

        # single reference: dependent equals independent, weighted and raw
        for _ in range(N_CASES):
            source, hyp_edits, refs = random_case(rng, min_refs=1, max_refs=1)
            cs = partition(source, hyp_edits, refs)
            dep = run_variant([cs], "dep", CFG).counts
            ind = run_variant([cs], "indep", CFG).counts
            assert (dep.tp_w, dep.fp_w, dep.fn_w, dep.tn_w) == (
                ind.tp_w,
                ind.fp_w,
                ind.fn_w,
                ind.tn_w,
            )
            assert (dep.tp_n, dep.fp_n, dep.fn_n, dep.tn_n) == (
                ind.tp_n,
                ind.fp_n,
                ind.fn_n,
                ind.tn_n,
            )

        # independence is at least as generous as best-single-reference
        for _ in range(N_CASES):
            source, hyp_edits, refs = random_case(rng)
            cs = partition(source, hyp_edits, refs)
            dep = run_variant([cs], "dep", CFG).counts
            ind = run_variant([cs], "indep", CFG).counts
            assert ind.tp_w >= dep.tp_w - 1e-12
            assert ind.fn_w <= dep.fn_w + 1e-12

        # boundary-statistic tallies sum to the number of held-out edits
        checked = 0
        while checked < N_CASES:
            source = random_tokens(rng, 2, 8)
            refs = random_ref_sets(rng, len(source), 2, 4)
            total = sum(len(e) for _, e in refs)
            if total == 0:
                continue
            sample = AnnotatedSample(
                source, {aid: tuple(edits) for aid, edits in refs}
            )
            stats = boundary_stats([sample])
            assert (
                stats.icc_count + stats.iuc_count + stats.cc_count
                == stats.edits_total
                == total
            )
            checked += 1

        # corpus aggregation does not depend on sentence order
        for _ in range(N_CASES):
            counts = [
                OutcomeCounts(
                    tp_w=rng.uniform(0, 2),
                    fp_w=rng.uniform(0, 2),
                    fn_w=rng.uniform(0, 2),
                    tn_w=rng.uniform(0, 2),
                )
                for _ in range(rng.randint(1, 12))
            ]
            base = Scores.from_counts(sum_counts(counts))
            rng.shuffle(counts)
            assert Scores.from_counts(sum_counts(counts)) == base

        # M2 serialization round-trips the in-memory model
        for _ in range(N_CASES):
            source = random_tokens(rng, 1, 8)
            refs = random_ref_sets(rng, len(source), 0, 3)
            sample = AnnotatedSample(
                source,
                {
                    aid: tuple(
                        Edit(e.start, e.end, e.replacement, "T") for e in edits
                    )
                    for aid, edits in refs
                },
            )
            assert parse_m2(emit_m2([sample])) == [sample]

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


# --- criterion 6: exhaustive slot truth table ---------------------------------

KEPT = None
SEGMENTS = {
    "del": (),
    "A": ("x",),
    "B": ("x", "y"),
    "C": ("z", "z", "z"),
    "D": ("q",),
}


def oracle_slot_outcomes(hyp_status, ref_statuses, mode):
    """Truth table for one changed slot over a single source token.

    Statuses are None (kept) or a key of SEGMENTS. Returns a list of
    (outcome, length) pairs where length feeds the weight curve (None for
    TN, whose weight is pinned).
    """
    changed = [s for s in ref_statuses if s is not KEPT]
    ref_lengths = [max(1, len(SEGMENTS[s])) for s in changed]
    if hyp_status is not KEPT:
        hyp_len = max(1, len(SEGMENTS[hyp_status]))
        if any(SEGMENTS[s] == SEGMENTS[hyp_status] for s in changed):
            return [("tp", hyp_len)]
        outcomes = [("fp", hyp_len)]
        if mode == "both" and changed:
            outcomes.append(("fn", min(ref_lengths)))
        return outcomes
    if ref_statuses and len(changed) == len(ref_statuses):
        return [("fn", min(ref_lengths))]
    return [("tn", None)]


def test_criterion_6_independent_slot_oracle():
    with criterion(6, "independent slot classification vs truth table"):
        source = ("u", "w", "v")
        statuses = [KEPT, "del", "A", "B", "C", "D"]
        for mode in ("fp-only", "both"):
            for n_refs in (1, 2, 3):
                for combo_id in range(len(statuses) ** n_refs):
                    ref_statuses = []
                    k = combo_id
                    for _ in range(n_refs):
                        ref_statuses.append(statuses[k % len(statuses)])
                        k //= len(statuses)
                    for hyp_status in statuses:
                        if hyp_status is KEPT and all(
                            s is KEPT for s in ref_statuses
                        ):
                            continue  # no slot exists at all
                        hyp_edits = (
                            []
                            if hyp_status is KEPT
                            else [Edit(1, 2, SEGMENTS[hyp_status])]
                        )
                        refs = [
                            (
                                aid,
                                []
                                if status is KEPT
                                else [Edit(1, 2, SEGMENTS[status])],
                            )
                            for aid, status in enumerate(ref_statuses)
                        ]
                        cs = partition(source, hyp_edits, refs)
                        assert cs.changed_indices == (1,)
                        counts = run_variant([cs], "indep", CFG, mode).counts
                        expected = OutcomeCounts()
                        for outcome, length in oracle_slot_outcomes(
                            hyp_status, ref_statuses, mode
                        ):
                            add(
                                expected,
                                outcome,
                                1.0
                                if length is None
                                else length_weight(length, CFG, outcome),
                            )
                        add(expected, "tn", 1.0)  # unchanged chunk before slot
                        add(expected, "tn", 1.0)  # unchanged chunk after slot
                        assert (
                            counts.tp_n,
                            counts.fp_n,
                            counts.fn_n,
                            counts.tn_n,
                        ) == (
                            expected.tp_n,
                            expected.fp_n,
                            expected.fn_n,
                            expected.tn_n,
                        ), (hyp_status, ref_statuses, mode)
                        assert counts.tp_w == pytest.approx(expected.tp_w, abs=1e-12)
                        assert counts.fp_w == pytest.approx(expected.fp_w, abs=1e-12)
                        assert counts.fn_w == pytest.approx(expected.fn_w, abs=1e-12)
                        assert counts.tn_w == pytest.approx(expected.tn_w, abs=1e-12)


# --- criterion 7: conditional reproduction on external corpora ---------------

BN10GEC_ENV = "CHUNKEVAL_BN10GEC_M2"
CONLL_REF_ENV = "CHUNKEVAL_CONLL14_REF_M2"
CONLL_SYS_ENV = "CHUNKEVAL_CONLL14_SYSTEMS_DIR"
CONLL_EW_ENV = "CHUNKEVAL_CONLL14_HUMAN_EW"


def test_criterion_7a_boundary_statistics_reproduction():
    path = os.environ.get(BN10GEC_ENV)
    if not path:
        pytest.skip(
            f"external data not supplied: set {BN10GEC_ENV} to the BN-10GEC M2 "
            "file (with upstream-extracted edits) to run this reproduction"
        )
    with criterion(7, "boundary statistics reproduction (BN-10GEC)"):
        samples = parse_m2(open(path, encoding="utf-8").read())
        stats = boundary_stats(samples)
        assert abs(stats.icc * 100 - 90.66) <= 1.5
        assert abs(stats.iuc * 100 - 7.74) <= 1.5
        assert abs(stats.cc * 100 - 1.61) <= 1.5


def test_criterion_7b_human_correlation_reproduction():
    ref_path = os.environ.get(CONLL_REF_ENV)
    sys_dir = os.environ.get(CONLL_SYS_ENV)
    ew_path = os.environ.get(CONLL_EW_ENV)
    if not (ref_path and sys_dir and ew_path):
        pytest.skip(
            "external data not supplied: set "
            f"{CONLL_REF_ENV}, {CONLL_SYS_ENV} and {CONLL_EW_ENV} to the "
            "CoNLL-2014 reference M2, the 13 system output files and the "
            "Expected Wins table to run this reproduction"
        )
    with criterion(7, "human correlation reproduction (CoNLL-2014)"):
        samples = parse_m2(open(ref_path, encoding="utf-8").read())
        human = load_human_table(open(ew_path, encoding="utf-8").read())
        metric = {}
        for system in human:
            lines = open(
                os.path.join(sys_dir, f"{system}.txt"), encoding="utf-8"
            ).read().splitlines()
            chunked = [
                partition(
                    s.source,
                    extract_edits(s.source, tokenize(line)),
                    [(aid, s.annotations[aid]) for aid in s.annotator_ids],
                )
                for s, line in zip(samples, lines)
            ]
            cfg = replace(default_config("dep"), ell=compute_ell(chunked))
            metric[system] = run_variant(chunked, "dep", cfg).scores.f_beta
        gamma, _ = correlate(metric, human)
        assert abs(gamma - 0.648) <= 0.02
