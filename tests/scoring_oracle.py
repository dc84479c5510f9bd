"""Reference scorer: every (slot, reference) pair classified from its chunks.

This is the per-slot scorer that ``chunkeval.scoring`` used before it summed
compact slot records. It reads the chunks themselves and adds each outcome
as it is found, so tests compare the record-based scorer with it exactly.
``run_variant`` is the dataset reduction ``chunkeval.run_variant`` used
before it reduced per-sentence totals column by column.

The ratio and reduction rules are stated here, not imported from the
library: ``precision_recall`` and ``accuracy`` give P, R and Acc of one
``OutcomeCounts``, ``sum_counts`` adds sentences' counts, and
``aggregate_sentence`` averages sentences' ``Scores``.
"""

import math
from collections.abc import Sequence

from partition_oracle import CORRECTED, Chunk, ChunkedSample, chunk_length

import chunkeval
from chunkeval import (
    NoChunksError,
    OutcomeCounts,
    Scores,
    VariantResult,
    WeightConfig,
    f_beta_formula,
    length_weight,
)
from chunkeval.scoring import FN_BOTH, FN_FP_ONLY, parse_variant


def _share(tp_w: float, other_w: float) -> float:
    return tp_w / (tp_w + other_w) if tp_w + other_w > 0 else 1.0


def precision_recall(counts: OutcomeCounts) -> tuple[float, float]:
    """Weighted precision and recall; empty denominators count as 1.0."""
    return _share(counts.tp_w, counts.fp_w), _share(counts.tp_w, counts.fn_w)


def accuracy(counts: OutcomeCounts) -> float:
    """(TP + TN) / all outcomes; 1.0 on an empty denominator."""
    den = counts.tp_w + counts.fp_w + counts.fn_w + counts.tn_w
    if den == 0.0:
        return 1.0
    return (counts.tp_w + counts.tn_w) / den


def sum_counts(per_sentence: Sequence[OutcomeCounts]) -> OutcomeCounts:
    """Order-independent exact reduction of per-sentence counts."""
    return OutcomeCounts(
        tp_w=math.fsum(c.tp_w for c in per_sentence),
        fp_w=math.fsum(c.fp_w for c in per_sentence),
        fn_w=math.fsum(c.fn_w for c in per_sentence),
        tn_w=math.fsum(c.tn_w for c in per_sentence),
        tp_n=sum(c.tp_n for c in per_sentence),
        fp_n=sum(c.fp_n for c in per_sentence),
        fn_n=sum(c.fn_n for c in per_sentence),
        tn_n=sum(c.tn_n for c in per_sentence),
    )


def aggregate_sentence(per_sentence: Sequence[Scores]) -> Scores:
    """Arithmetic mean of per-sentence scores (F is averaged, not recomputed)."""
    n = len(per_sentence)
    return Scores(
        precision=math.fsum(s.precision for s in per_sentence) / n,
        recall=math.fsum(s.recall for s in per_sentence) / n,
        f_beta=math.fsum(s.f_beta for s in per_sentence) / n,
        accuracy=math.fsum(s.accuracy for s in per_sentence) / n,
    )


def add(counts: OutcomeCounts, outcome: str, weight: float) -> None:
    """Add one outcome of the given weight to ``counts``."""
    setattr(counts, outcome + "_w", getattr(counts, outcome + "_w") + weight)
    setattr(counts, outcome + "_n", getattr(counts, outcome + "_n") + 1)


def compute_ell(dataset: Sequence[ChunkedSample]) -> float:
    """Average chunk length over all reference chunks that change the source."""
    lengths = [
        chunk_length(chunks[idx])
        for cs in dataset
        for _, chunks in cs.ref_chunks
        for idx in cs.changed_indices
        if chunks[idx].kind == CORRECTED
    ]
    if not lengths:
        raise NoChunksError("no reference changed any chunk; ell is undefined")
    return math.fsum(lengths) / len(lengths)


def _slot_outcomes(hyp: Chunk, refs: Sequence[Chunk]) -> tuple[str, int, int | None]:
    """Classify one changed slot against the reference chunks that judge it.

    A changed hypothesis chunk is a TP when it matches any of ``refs`` and
    an FP otherwise; a kept chunk is an FN when every one of ``refs`` (there
    is at least one) changed the slot, and a TN otherwise. Returns the
    outcome, its chunk length (FNs take the shortest changed reference
    chunk), and for an FP the FN length it also owes when a reference
    changed the slot (counted only under ``fn_on_mismatch="both"``).
    """
    changed = [chunk_length(c) for c in refs if c.kind == CORRECTED]
    if hyp.kind == CORRECTED:
        if any(c.segment == hyp.segment for c in refs):
            return "tp", chunk_length(hyp), None
        return "fp", chunk_length(hyp), min(changed) if changed else None
    if refs and len(changed) == len(refs):
        return "fn", min(changed), None
    return "tn", 0, None


def _score_slots(
    cs: ChunkedSample,
    ref_sequences: Sequence[tuple[Chunk, ...]],
    cfg: WeightConfig,
    fn_on_mismatch: str,
) -> OutcomeCounts:
    """Counts of every changed slot in order, then the unchanged-span TNs."""
    counts = OutcomeCounts()
    for idx in cs.changed_indices:
        refs = [chunks[idx] for chunks in ref_sequences]
        outcome, length, missed = _slot_outcomes(cs.hyp_chunks[idx], refs)
        add(counts, outcome, length_weight(length, cfg, outcome))
        if missed is not None and fn_on_mismatch == FN_BOTH:
            add(counts, "fn", length_weight(missed, cfg, "fn"))
    n_unchanged = len(cs.boundary_spans) - len(cs.changed_indices)
    counts.tn_w += n_unchanged * length_weight(0, cfg, "tn")
    counts.tn_n += n_unchanged
    return counts


def score_sentence_dependent(
    cs: ChunkedSample, cfg: WeightConfig, fn_on_mismatch: str = FN_FP_ONLY
) -> tuple[OutcomeCounts, int | None]:
    """Score against each reference separately and keep the best one.

    The selected reference maximizes the sentence F_beta; ties prefer the
    higher weighted TP, then the lower annotator id. Returns the winning
    counts and annotator id (None for a sample without references, which is
    scored as if against an edit-free reference).
    """
    if not cs.ref_chunks:
        return _score_slots(cs, (), cfg, fn_on_mismatch), None
    best_aid, best_counts, best_key = None, None, None
    for aid, chunks in cs.ref_chunks:
        counts = _score_slots(cs, (chunks,), cfg, fn_on_mismatch)
        key = (f_beta_formula(*precision_recall(counts), cfg.beta), counts.tp_w, -aid)
        if best_key is None or key > best_key:
            best_aid, best_counts, best_key = aid, counts, key
    return best_counts, best_aid


def score_sentence_independent(
    cs: ChunkedSample, cfg: WeightConfig, fn_on_mismatch: str = FN_FP_ONLY
) -> OutcomeCounts:
    """Score each changed slot against all references at once.

    A changed hypothesis chunk is a TP when it matches any reference's chunk
    at that slot; a kept chunk is a TN unless every reference changed the
    slot, in which case keeping the source matches no reference and counts
    as an FN.
    """
    refs = [chunks for _, chunks in cs.ref_chunks]
    return _score_slots(cs, refs, cfg, fn_on_mismatch)


def _scores(counts: OutcomeCounts, beta: float) -> Scores:
    p, r = precision_recall(counts)
    return Scores(p, r, f_beta_formula(p, r, beta), accuracy(counts))


def run_variant(
    chunked: Sequence[chunkeval.ChunkedSample],
    variant: str,
    cfg: WeightConfig,
    fn_on_mismatch: str = FN_FP_ONLY,
) -> VariantResult:
    """Score ``chunkeval`` samples with an ``OutcomeCounts`` per sentence.

    Each sentence is scored alone, as a one-sample list of the package's
    ``run_variant``. The counts are summed by ``sum_counts``; at sentence
    level each sentence's ``Scores`` is built and ``aggregate_sentence``
    averages them.
    """
    assumption, level = parse_variant(variant)
    per_sentence: list[OutcomeCounts] = []
    chosen: list[int | None] = []
    for cs in chunked:
        result = chunkeval.run_variant([cs], assumption, cfg, fn_on_mismatch)
        per_sentence.append(result.counts)
        chosen += result.chosen_refs
    totals = sum_counts(per_sentence)
    if level == "corpus":
        scores = _scores(totals, cfg.beta)
    else:
        scores = aggregate_sentence([_scores(c, cfg.beta) for c in per_sentence])
    return VariantResult(variant, totals, scores, tuple(chosen))
