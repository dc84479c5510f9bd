"""Length-weighted chunk scoring under dependence and independence.

Per changed slot, a hypothesis chunk is a TP when it matches the reference
(the selected one under dependence, any one under independence), an FP when
it changes the slot without a match, an FN when a required change was not
made, and a TN when keeping the source agrees with the reference side.
Weights follow clipped logistic curves of the chunk length around the
dataset's average changed-chunk length.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

from .chunker import ChunkedSample
from .errors import NoChunksError

FN_BOTH = "both"
FN_FP_ONLY = "fp-only"
FN_MODES = (FN_BOTH, FN_FP_ONLY)

VARIANTS = (
    "dep",
    "indep",
    "sent-dep",
    "sent-indep",
    "dep-acc",
    "indep-acc",
    "sent-dep-acc",
    "sent-indep-acc",
)


@dataclass(frozen=True)
class WeightConfig:
    """Scale factors and clip bounds for the length-weight curves.

    All curves pass through weight 1.0 at ``x == ell`` before clipping.
    A TN weight is the constant 1: it has no curve and no field.
    """

    alpha_tp: float = 2.0
    alpha_fp: float = 2.0
    alpha_fn: float = 2.0
    clip_tp: tuple[float, float] = (0.75, 1.25)
    clip_fp: tuple[float, float] = (0.75, 1.25)
    clip_fn: tuple[float, float] = (0.75, 1.25)
    ell: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            check_weight_field(f.name, getattr(self, f.name))


def check_weight_field(name: str, value) -> None:
    """Raise ValueError unless ``value`` is valid for WeightConfig's ``name``."""
    # Written as "not (valid)" so that NaN is rejected too.
    if name.startswith("alpha_"):
        if not 1.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 1")
    elif name.startswith("clip_"):
        lo, hi = value
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"{name} must satisfy 0 < min <= max < inf")
    elif not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0")
    # f_beta_formula would divide inf by inf and report NaN
    elif name == "beta" and not value * value < math.inf:
        raise ValueError("beta squared must be finite")


# Default hyperparameters per variant; corpus variants share one profile,
# sentence-level variants another (their FN clip pins FN weights to 1).
_CORPUS_PROFILE = WeightConfig()
_SENT_DEP_PROFILE = WeightConfig(
    alpha_tp=10.0,
    alpha_fp=10.0,
    alpha_fn=10.0,
    clip_tp=(1.0, 10.0),
    clip_fp=(0.25, 10.0),
    clip_fn=(1.0, 1.0),
)
_SENT_INDEP_PROFILE = replace(
    _SENT_DEP_PROFILE, clip_tp=(2.5, 10.0), clip_fp=(0.25, 1.0)
)


def parse_variant(variant: str) -> tuple[str, str]:
    """Split a variant name into (assumption, level)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    body = variant.removesuffix("-acc")
    level = "sentence" if body.startswith("sent-") else "corpus"
    return body.removeprefix("sent-"), level


def headline_column(variant: str) -> str:
    """The column a variant ranks systems by: Acc for ``-acc``, else F_beta."""
    return "Acc" if variant.endswith("-acc") else "F_beta"


def default_config(variant: str) -> WeightConfig:
    """The stock weight profile for one scorer variant."""
    assumption, level = parse_variant(variant)
    if level == "corpus":
        return _CORPUS_PROFILE
    return _SENT_DEP_PROFILE if assumption == "dep" else _SENT_INDEP_PROFILE


def unweighted(cfg: WeightConfig) -> WeightConfig:
    """Pin every weight to 1, reducing scores to raw counts."""
    one = (1.0, 1.0)
    return replace(cfg, clip_tp=one, clip_fp=one, clip_fn=one)


def _clip(value: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return min(max(value, lo), hi)


def _exp(z: float) -> float:
    return math.exp(min(z, 700.0))


def raw_weight(x: float, alpha: float, ell: float, outcome: str) -> float:
    """Pre-clip logistic weight; TP/FN rise with x, FP falls, TN is 1."""
    if outcome in ("tp", "fn"):
        return alpha / (1.0 + (alpha - 1.0) * _exp(ell - x))
    if outcome == "fp":
        return alpha / (1.0 + (alpha - 1.0) * _exp(x - ell))
    if outcome == "tn":
        return 1.0
    raise ValueError(f"unknown outcome {outcome!r}")


def length_weight(x: float, cfg: WeightConfig, outcome: str) -> float:
    """Clipped length weight of a chunk of length x for one outcome."""
    if outcome == "tn":
        return 1.0
    if outcome not in ("tp", "fp", "fn"):
        raise ValueError(f"unknown outcome {outcome!r}")
    alpha = getattr(cfg, "alpha_" + outcome)
    return _clip(raw_weight(x, alpha, cfg.ell, outcome), getattr(cfg, "clip_" + outcome))


def compute_ell(dataset: Sequence[ChunkedSample]) -> float:
    """Average chunk length over all reference chunks that change the source."""
    lengths = [
        ref >> 1
        for cs in dataset
        for column in cs.slot_columns.refs
        for ref in column
        if ref > 1
    ]
    if not lengths:
        raise NoChunksError("no reference changed any chunk; ell is undefined")
    return math.fsum(lengths) / len(lengths)


@dataclass
class OutcomeCounts:
    """Weighted and raw TP/FP/FN/TN accumulators for one or more sentences."""

    tp_w: float = 0.0
    fp_w: float = 0.0
    fn_w: float = 0.0
    tn_w: float = 0.0
    tp_n: int = 0
    fp_n: int = 0
    fn_n: int = 0
    tn_n: int = 0


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


def _share(tp_w: float, other_w: float) -> float:
    return tp_w / (tp_w + other_w) if tp_w + other_w > 0 else 1.0


def precision_recall(counts: OutcomeCounts) -> tuple[float, float]:
    """Weighted precision and recall; empty denominators count as 1.0."""
    return _share(counts.tp_w, counts.fp_w), _share(counts.tp_w, counts.fn_w)


def f_beta_formula(p: float, r: float, beta: float = 0.5) -> float:
    """F_beta from precision and recall; 0 when the numerator is 0."""
    num = (1.0 + beta * beta) * p * r
    if num == 0.0:
        return 0.0
    return num / (beta * beta * p + r)


def accuracy(counts: OutcomeCounts) -> float:
    """(TP + TN) / all outcomes; 1.0 on an empty denominator."""
    return _accuracy(counts.tp_w, counts.fp_w, counts.fn_w, counts.tn_w)


def _accuracy(tp_w: float, fp_w: float, fn_w: float, tn_w: float) -> float:
    den = tp_w + fp_w + fn_w + tn_w
    if den == 0.0:
        return 1.0
    return (tp_w + tn_w) / den


def _ratios(tp_w: float, fp_w: float, fn_w: float, tn_w: float, beta: float) -> tuple:
    """P, R, F_beta and Acc of weighted totals: the fields of ``Scores``."""
    p, r = _share(tp_w, fp_w), _share(tp_w, fn_w)
    return p, r, f_beta_formula(p, r, beta), _accuracy(tp_w, fp_w, fn_w, tn_w)


@dataclass(frozen=True)
class Scores:
    precision: float
    recall: float
    f_beta: float
    accuracy: float

    @classmethod
    def from_counts(cls, counts: OutcomeCounts, beta: float = 0.5) -> "Scores":
        return cls(*_ratios(counts.tp_w, counts.fp_w, counts.fn_w, counts.tn_w, beta))


class _WeightTable(dict):
    """Chunk length -> clipped weight of one outcome, computed on first use."""

    def __init__(self, cfg: WeightConfig, outcome: str):
        super().__init__()
        self.cfg, self.outcome = cfg, outcome

    def __missing__(self, length: int) -> float:
        weight = self[length] = length_weight(length, self.cfg, self.outcome)
        return weight


class _SlotScorer:
    """Weights and sums ``ChunkedSample.slot_columns`` under one config.

    Each slot is judged by one reference int: ``ref & 1`` means the
    reference chunk matches the hypothesis chunk, and ``ref >> 1`` is its
    length when it changed the slot. Outcomes are summed in slot order, a
    slot's FP before the FN it owes; a TN weighs 1, so ``tn_w`` is ``tn_n``.
    """

    def __init__(self, cfg: WeightConfig, fn_on_mismatch: str):
        if fn_on_mismatch not in FN_MODES:
            raise ValueError(f"fn_on_mismatch must be one of {FN_MODES}, got {fn_on_mismatch!r}")
        self.beta = cfg.beta
        self.both = fn_on_mismatch == FN_BOTH
        self.tp, self.fp, self.fn = (_WeightTable(cfg, o) for o in ("tp", "fp", "fn"))

    def _sum(
        self, hyps: Sequence[int], refs: Sequence[int], n_unchanged: int
    ) -> tuple:
        """The eight ``OutcomeCounts`` totals of one reference column, in order."""
        tp, fp, fn, both = self.tp, self.fp, self.fn, self.both
        tp_w = fp_w = fn_w = 0.0
        tp_n = fp_n = fn_n = tn_n = 0
        for hyp, ref in zip(hyps, refs):
            if hyp:
                if ref & 1:
                    tp_w += tp[hyp]
                    tp_n += 1
                    continue
                fp_w += fp[hyp]
                fp_n += 1
                if not both:
                    continue
            if ref > 1:
                fn_w += fn[ref >> 1]
                fn_n += 1
            elif not hyp:
                tn_n += 1
        tn_n += n_unchanged
        return tp_w, fp_w, fn_w, float(tn_n), tp_n, fp_n, fn_n, tn_n

    def dependent(self, cs: ChunkedSample) -> tuple[tuple, int | None]:
        """The totals of the best distinct reference column, and its id."""
        columns = cs.slot_columns
        if not columns.distinct:
            return self.independent(cs), None
        best_key = None
        # equal columns score alike, so the lowest id of each stands for all
        for aid, refs in columns.distinct:
            totals = self._sum(columns.hyp, refs, columns.n_unchanged)
            tp_w, fp_w, fn_w = totals[:3]
            f = f_beta_formula(_share(tp_w, fp_w), _share(tp_w, fn_w), self.beta)
            key = (f, tp_w, -aid)
            if best_key is None or key > best_key:
                best_key, best_totals, best_aid = key, totals, aid
        return best_totals, best_aid

    def independent(self, cs: ChunkedSample) -> tuple:
        """The totals of the merged column."""
        columns = cs.slot_columns
        return self._sum(columns.hyp, columns.merged, columns.n_unchanged)


def score_sentence_dependent(
    cs: ChunkedSample, cfg: WeightConfig, fn_on_mismatch: str = FN_FP_ONLY
) -> tuple[OutcomeCounts, int | None]:
    """Score against each reference separately and keep the best one.

    The selected reference maximizes the sentence F_beta; ties prefer the
    higher weighted TP, then the lower annotator id. Returns the winning
    counts and annotator id (None for a sample without references, which is
    scored as if against an edit-free reference).
    """
    totals, aid = _SlotScorer(cfg, fn_on_mismatch).dependent(cs)
    return OutcomeCounts(*totals), aid


def score_sentence_independent(
    cs: ChunkedSample, cfg: WeightConfig, fn_on_mismatch: str = FN_FP_ONLY
) -> OutcomeCounts:
    """Score each changed slot against all references at once.

    A changed hypothesis chunk is a TP when it matches any reference's chunk
    at that slot; a kept chunk is a TN unless every reference changed the
    slot, in which case keeping the source matches no reference and counts
    as an FN.
    """
    return OutcomeCounts(*_SlotScorer(cfg, fn_on_mismatch).independent(cs))


def aggregate_sentence(per_sentence: Sequence[Scores]) -> Scores:
    """Arithmetic mean of per-sentence scores (F is averaged, not recomputed)."""
    n = len(per_sentence)
    return Scores(
        precision=math.fsum(s.precision for s in per_sentence) / n,
        recall=math.fsum(s.recall for s in per_sentence) / n,
        f_beta=math.fsum(s.f_beta for s in per_sentence) / n,
        accuracy=math.fsum(s.accuracy for s in per_sentence) / n,
    )


# The columns of a score report, in order: the keys of VariantResult.as_row.
REPORT_COLUMNS = tuple(
    "system tp_w fp_w fn_w tn_w tp_n fp_n fn_n tn_n P R F_beta Acc variant".split()
)


@dataclass(frozen=True)
class VariantResult:
    """Everything one scorer variant reports for one system."""

    variant: str
    counts: OutcomeCounts
    scores: Scores
    chosen_refs: tuple[int | None, ...] = field(default=())

    def as_row(self, system: str) -> dict:
        c, s = self.counts, self.scores
        weights = [round(w, 2) for w in (c.tp_w, c.fp_w, c.fn_w, c.tn_w)]
        ratios = [round(r, 4) for r in (s.precision, s.recall, s.f_beta, s.accuracy)]
        values = [system, *weights, c.tp_n, c.fp_n, c.fn_n, c.tn_n, *ratios, self.variant]
        return dict(zip(REPORT_COLUMNS, values, strict=True))


def run_variant(
    chunked: Sequence[ChunkedSample],
    variant: str,
    cfg: WeightConfig,
    fn_on_mismatch: str = FN_FP_ONLY,
    *,
    scored: dict | None = None,
) -> VariantResult:
    """Score a dataset under one variant with a fully resolved config.

    One ``scored`` dict serves one ``chunked`` list in one command: it keeps a result
    per (assumption, level, cfg, fn_on_mismatch), so ``-acc`` twins share a pass.
    """
    assumption, level = parse_variant(variant)
    scorer = _SlotScorer(cfg, fn_on_mismatch)  # refuses an unknown fn_on_mismatch
    key = (assumption, level, cfg, fn_on_mismatch)
    if scored and key in scored:
        return replace(scored[key], variant=variant, counts=replace(scored[key].counts))
    chosen: tuple[int | None, ...] = ()
    if assumption == "dep":
        picks = [scorer.dependent(cs) for cs in chunked]
        per_sentence = [totals for totals, _ in picks]
        chosen = tuple(aid for _, aid in picks)
    else:
        per_sentence = [scorer.independent(cs) for cs in chunked]
    # the eight OutcomeCounts fields over all sentences, reduced as sum_counts does
    columns = list(zip(*per_sentence)) or [()] * 8
    totals = OutcomeCounts(*map(math.fsum, columns[:4]), *map(sum, columns[4:]))
    if level == "corpus":
        scores = Scores.from_counts(totals, cfg.beta)
    else:
        # per-sentence Scores fields, averaged as aggregate_sentence does
        ratios = list(zip(*(_ratios(*t[:4], cfg.beta) for t in per_sentence))) or [()] * 4
        scores = Scores(*(math.fsum(r) / len(per_sentence) for r in ratios))
    if scored is not None:
        scored[key] = VariantResult(variant, replace(totals), scores, chosen)
    return VariantResult(variant, totals, scores, chosen)
