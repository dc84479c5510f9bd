"""Token-level alignment for extracting edits from a (source, target) pair.

Used when pre-extracted M2 edits are not supplied. The alignment is a
minimal-cost Levenshtein path (match 0, substitute/delete/insert 1) with a
fixed backtrace preference, so identical inputs always yield identical edits.
"""

from collections.abc import Sequence

from .corpus import Edit


def extract_edits(source: Sequence[str], target: Sequence[str]) -> list[Edit]:
    """Edits of the minimal-cost alignment of ``source`` to ``target``.

    The backtrace prefers match > substitute > delete > insert at every
    cell, which makes the path unique; each maximal run of non-match steps
    becomes one edit covering the run's source span, replaced by the run's
    target tokens.

    Only the band |i - j| <= k of the distance table D is filled, doubling
    k until D(n, m) <= k (Ukkonen 1985). That is exact: a cell off the band
    costs more than k to reach, so every cell the backtrace visits or
    compares equal has its true value, and every other cell reads above k.
    Equal last tokens always backtrace as a match, so the common suffix is
    cut first. The common prefix, of length p, is not cut, because repeated
    tokens can move an edit into it; but D(i, j) = |i - j| whenever i <= p,
    as s[:i] is then a prefix of t[:j] or the other way round, so rows 0..p
    are written down rather than filled.
    """
    s, t = tuple(source), tuple(target)
    if s == t:
        return []
    n, m = len(s), len(t)
    while n and m and s[n - 1] == t[m - 1]:
        n, m = n - 1, m - 1
    p, short = 0, min(n, m)
    while p < short and s[p] == t[p]:
        p += 1

    k = max(abs(n - m), 1)
    while True:
        rows = _band(s, t, n, m, p, k)
        if rows[-1][m - n + k + 1] <= k:
            break
        k *= 2

    def dist(i: int, j: int) -> int:
        # row r keeps D(p + r, j) at index j - (p + r) + k + 1
        return abs(i - j) if i < p else rows[i - p][j - i + k + 1]

    edits: list[Edit] = []
    i, j = n, m
    run = None  # (i, j) where the run of non-match steps being walked ends
    while i > 0 or j > 0:
        if i > 0 and j > 0 and s[i - 1] == t[j - 1]:
            if run:
                edits.append(Edit(i, run[0], t[j : run[1]]))
                run = None
            if i == j <= p:
                break  # the rest of the path matches the shared prefix
            i, j = i - 1, j - 1
            continue
        if not run:
            run = (i, j)
        d = dist(i, j)
        if i > 0 and j > 0 and d == dist(i - 1, j - 1) + 1:
            i, j = i - 1, j - 1
        elif i > 0 and d == dist(i - 1, j) + 1:
            i -= 1
        else:
            j -= 1
    if run:
        edits.append(Edit(0, run[0], t[: run[1]]))
    edits.reverse()
    return edits


def _band(
    s: tuple[str, ...], t: tuple[str, ...], n: int, m: int, p: int, k: int
) -> list[list[int]]:
    """Rows p..n of D over s[:n], t[:m], on the band |i - j| <= k.

    s and t share their first p tokens, so D(p, j) = |p - j|.
    Cells off the band, or off the table, read k + 1. Equal tokens take the
    diagonal value outright, as the backtrace always matches them.
    """
    far = k + 1
    first = [far] * (2 * k + 3)
    for j in range(max(0, p - k), min(m, p + k) + 1):
        first[j - p + k + 1] = abs(p - j)
    rows = [first]
    prev = first
    for i in range(p + 1, n + 1):
        tok = s[i - 1]
        cur = [far] * (2 * k + 3)
        left = far
        for j in range(max(0, i - k), min(m, i + k) + 1):
            x = j - i + k + 1
            diag = prev[x]
            if j == 0 or tok != t[j - 1]:
                up = prev[x + 1]
                if up < diag:
                    diag = up
                if left < diag:
                    diag = left
                diag += 1
            cur[x] = left = diag
        rows.append(cur)
        prev = cur
    return rows
