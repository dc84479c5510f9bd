"""Token-level alignment for extracting edits from a (source, target) pair.

Used when pre-extracted M2 edits are not supplied. The alignment is a
minimal-cost Levenshtein path (match 0, substitute/delete/insert 1) with a
fixed backtrace preference, so identical inputs always yield identical edits.
The distance table is filled a whole column at a time as bit-vectors
(Myers 1999; Hyyrö 2001).
"""

from collections.abc import Sequence

from .corpus import Edit


def extract_edits(source: Sequence[str], target: Sequence[str]) -> list[Edit]:
    """Edits of the minimal-cost alignment of ``source`` to ``target``.

    The backtrace prefers match > substitute > delete > insert at every
    cell, which makes the path unique; each maximal run of non-match steps
    becomes one edit covering the run's source span, replaced by the run's
    target tokens.

    Column j of the distance table D is kept as two int bit-vectors over
    the source rows: bit i - 1 of ``vp`` (of ``vn``) is set when
    D(i, j) - D(i - 1, j) is +1 (is -1), so D(i, j) is j plus the set bits
    of the first i rows of one, minus those of the other. Each column
    follows from the one before in a fixed number of int operations
    (Myers 1999, with the +1 top row of Hyyrö 2001's edit distance), so D
    is exact in every cell. Equal last tokens always backtrace as a match,
    so the common suffix is cut first. The common prefix, of length p, is
    not cut, because repeated tokens can move an edit into it; but
    D(i, j) = |i - j| whenever min(i, j) <= p, as the shorter side is then
    a prefix of the longer, so the columns start at p rather than 0.
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

    peq: dict[str, int] = {}  # the rows of each source token, as a bit-mask
    for i in range(n):
        peq[s[i]] = peq.get(s[i], 0) | 1 << i
    mask = (1 << n) - 1  # keeps each vector to the n rows, the only bits read
    vn = (1 << p) - 1  # column p: D(i, p) = |i - p| falls to row p, then rises
    vp = mask ^ vn
    vps, vns = [vp], [vn]
    for j in range(p, m):
        eq = peq.get(t[j], 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = (vn | ~(xh | vp)) << 1 | 1  # horizontal deltas; row 0 steps +1
        mh = (vp & xh) << 1
        vp = (mh | ~(xv | ph)) & mask
        vn = ph & xv
        vps.append(vp)
        vns.append(vn)

    def dist(i: int, j: int) -> int:
        if j <= p:
            return abs(i - j)
        rows = (1 << i) - 1
        return j + (vps[j - p] & rows).bit_count() - (vns[j - p] & rows).bit_count()

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
