"""The full O(n*m) Levenshtein aligner: the reference for ``extract_edits``.

``chunkeval.align.extract_edits`` fills the distance table as bit-vector
columns from the end of the shared prefix; these functions fill every cell
as a plain int and build one ``AlignOp`` per step, and the tests require the
two to give the same edits.
"""

from collections.abc import Sequence
from dataclasses import dataclass

from chunkeval import Edit

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"


@dataclass(frozen=True)
class AlignOp:
    """One alignment step; spans are half-open over source/target tokens."""

    kind: str
    src_start: int
    src_end: int
    tgt_start: int
    tgt_end: int
    src_token: str | None = None
    tgt_token: str | None = None


def align(source: Sequence[str], target: Sequence[str]) -> list[AlignOp]:
    """Deterministic minimal-cost alignment of two token sequences.

    Ties are broken per cell in the order match > substitute > delete >
    insert during the backtrace, which makes the result unique.
    """
    n, m = len(source), len(target)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, prev = dist[i], dist[i - 1]
        src_tok = source[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (0 if src_tok == target[j - 1] else 1)
            row[j] = min(diag, prev[j] + 1, row[j - 1] + 1)

    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and source[i - 1] == target[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            ops.append(AlignOp(MATCH, i - 1, i, j - 1, j, source[i - 1], target[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1 and source[i - 1] != target[j - 1]:
            ops.append(AlignOp(SUBSTITUTE, i - 1, i, j - 1, j, source[i - 1], target[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(AlignOp(DELETE, i - 1, i, j, j, source[i - 1], None))
            i = i - 1
        else:
            ops.append(AlignOp(INSERT, i, i, j - 1, j, None, target[j - 1]))
            j = j - 1
    ops.reverse()
    return ops


def ops_to_edits(ops: Sequence[AlignOp]) -> list[Edit]:
    """Merge maximal runs of non-match ops into single edits.

    Matches are discarded; each run becomes one edit whose span covers the
    run's source tokens and whose replacement is the run's target tokens.
    """
    edits: list[Edit] = []
    i = 0
    while i < len(ops):
        if ops[i].kind == MATCH:
            i += 1
            continue
        j = i
        while j < len(ops) and ops[j].kind != MATCH:
            j += 1
        run = ops[i:j]
        replacement = tuple(
            op.tgt_token for op in run if op.tgt_token is not None
        )
        edits.append(Edit(run[0].src_start, run[-1].src_end, replacement))
        i = j
    return edits
