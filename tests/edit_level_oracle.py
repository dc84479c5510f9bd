"""Edit-level scorer: each edit judged by exact (start, end, replacement) match.

In the manner of ERRANT (Bryant et al. 2017) and MaxMatch (Dahlmeier & Ng
2012), a hypothesis edit is a TP when the gold edits hold the same edit and
an FP otherwise, and a gold edit the hypothesis does not hold is an FN. No
chunk is built. Where the pooled edit intervals of a sentence are pairwise
disjoint and do not touch (``boundaries_agree``), each interval is one
changed slot of ``chunkeval.partition``, so the chunk scorer must count what
this scorer counts.

An edit whose replacement equals its source span changes nothing, and is
not counted. Under ``fn_on_mismatch="fp-only"`` a gold edit at a span that
the hypothesis edited differently is not an FN: the wrong hypothesis edit
is already the FP. A counted edit's length, which its weight is taken at,
is the longer of its span and its replacement.
"""

from collections.abc import Callable, Sequence

from chunkeval import Edit, OutcomeCounts, f_beta_formula, precision_recall
from chunkeval.scoring import FN_BOTH

Weight = Callable[[str, int], float]  # (outcome, length) -> weight


def boundaries_agree(edit_sets: Sequence[Sequence[Edit]]) -> bool:
    """True when the distinct pooled closed intervals are pairwise disjoint.

    Intervals that only touch (one's end is the next one's start) do not
    agree: the partition merges them into one slot.
    """
    spans = sorted({(e.start, e.end) for edits in edit_sets for e in edits})
    return all(end < start for (_, end), (start, _) in zip(spans, spans[1:]))


def _changes(source: Sequence[str], edits: Sequence[Edit]) -> set[tuple]:
    return {
        (e.start, e.end, e.replacement)
        for e in edits
        if e.replacement != tuple(source[e.start : e.end])
    }


def _length(edit: tuple) -> int:
    start, end, replacement = edit
    return max(end - start, len(replacement))


def _totals(weighted: list[tuple[str, tuple]], weight: Weight) -> OutcomeCounts:
    """Sum (outcome, edit) pairs in span order, as the chunk scorer sums slots."""
    counts = OutcomeCounts()
    for outcome, edit in sorted(weighted, key=lambda pair: pair[1][:2]):
        w = weight(outcome, _length(edit))
        setattr(counts, outcome + "_w", getattr(counts, outcome + "_w") + w)
        setattr(counts, outcome + "_n", getattr(counts, outcome + "_n") + 1)
    return counts


def score_against(
    source: Sequence[str],
    hyp_edits: Sequence[Edit],
    gold_edits: Sequence[Edit],
    fn_on_mismatch: str,
    weight: Weight,
) -> OutcomeCounts:
    """TP, FP and FN of the hypothesis against one set of gold edits (no TN)."""
    hyp, gold = _changes(source, hyp_edits), _changes(source, gold_edits)
    hyp_spans = {edit[:2] for edit in hyp}
    fn = gold - hyp
    if fn_on_mismatch != FN_BOTH:
        fn = {edit for edit in fn if edit[:2] not in hyp_spans}
    outcomes = [("tp", e) for e in hyp & gold] + [("fp", e) for e in hyp - gold]
    return _totals(outcomes + [("fn", e) for e in fn], weight)


def score_dependent(
    source: Sequence[str],
    hyp_edits: Sequence[Edit],
    refs: Sequence[tuple[int, Sequence[Edit]]],
    fn_on_mismatch: str,
    weight: Weight,
    beta: float = 0.5,
) -> tuple[OutcomeCounts, int]:
    """The counts against the best reference, and its annotator id.

    The best reference has the highest ``(F_beta, tp_w, -annotator id)``.
    """
    best = None
    for aid, edits in refs:
        counts = score_against(source, hyp_edits, edits, fn_on_mismatch, weight)
        key = (f_beta_formula(*precision_recall(counts), beta), counts.tp_w, -aid)
        if best is None or key > best[0]:
            best = (key, counts, aid)
    return best[1], best[2]


def score_independent(
    source: Sequence[str],
    hyp_edits: Sequence[Edit],
    refs: Sequence[tuple[int, Sequence[Edit]]],
    fn_on_mismatch: str,
    weight: Weight,
) -> OutcomeCounts:
    """TP, FP and FN against all references at once.

    A hypothesis edit is a TP when any reference holds it. A span is owed
    one FN, weighted at the shortest reference edit there, when the
    hypothesis leaves it alone and every reference edits it, or, under
    ``fn_on_mismatch="both"``, when the hypothesis edits it wrongly and some
    reference edits it.
    """
    hyp = _changes(source, hyp_edits)
    golds = [_changes(source, edits) for _, edits in refs]
    pooled = set().union(*golds)
    outcomes = [("tp", e) for e in hyp & pooled] + [("fp", e) for e in hyp - pooled]
    hyp_spans = {edit[:2] for edit in hyp}
    for span in {edit[:2] for edit in pooled}:
        at_span = [[e for e in gold if e[:2] == span] for gold in golds]
        if span in hyp_spans:
            owed = fn_on_mismatch == FN_BOTH and not any(e[:2] == span for e in hyp & pooled)
        else:
            owed = all(at_span)
        if owed:
            outcomes.append(("fn", min((e for es in at_span for e in es), key=_length)))
    return _totals(outcomes, weight)
