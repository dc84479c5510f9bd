import random

import pytest
from align_oracle import AlignOp, align, ops_to_edits
from conftest import VOCAB, random_tokens

from chunkeval import Edit, apply_edits, extract_edits


def op_kinds(ops):
    return [op.kind for op in ops]


class TestAlign:
    def test_identity(self):
        ops = align(("a", "b", "c"), ("a", "b", "c"))
        assert op_kinds(ops) == ["match", "match", "match"]

    def test_single_substitute(self):
        ops = align(("a",), ("b",))
        assert op_kinds(ops) == ["substitute"]

    def test_tie_break_selects_delete_match_substitute(self):
        source = ("the", "technologies", "were")
        target = ("technologies", "have")
        ops = align(source, target)
        assert op_kinds(ops) == ["delete", "match", "substitute"]
        assert (ops[0].src_token, ops[2].src_token, ops[2].tgt_token) == (
            "the",
            "were",
            "have",
        )
        # exhaustive DP oracle: the chosen path must be among all minimal paths
        assert tuple(op_kinds(ops)) in all_minimal_paths(source, target)

    def test_ops_tile_both_sequences(self):
        rng = random.Random(5)
        for _ in range(200):
            src = random_tokens(rng, 1, 7)
            tgt = random_tokens(rng, 0, 7)
            ops = align(src, tgt)
            spos = tpos = 0
            for op in ops:
                assert op.src_start == spos and op.tgt_start == tpos
                spos, tpos = op.src_end, op.tgt_end
            assert (spos, tpos) == (len(src), len(tgt))

    def test_deterministic(self):
        src, tgt = ("a", "b", "a"), ("b", "a", "b")
        assert align(src, tgt) == align(src, tgt)


def all_minimal_paths(source, target):
    """Every minimal-cost op-kind sequence, via exhaustive DP backtracking."""
    n, m = len(source), len(target)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (0 if source[i - 1] == target[j - 1] else 1)
            dist[i][j] = min(sub, dist[i - 1][j] + 1, dist[i][j - 1] + 1)

    paths = set()

    def walk(i, j, acc):
        if i == 0 and j == 0:
            paths.add(tuple(reversed(acc)))
            return
        if i > 0 and j > 0 and source[i - 1] == target[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
            walk(i - 1, j - 1, acc + ["match"])
        if i > 0 and j > 0 and source[i - 1] != target[j - 1] and dist[i][j] == dist[i - 1][j - 1] + 1:
            walk(i - 1, j - 1, acc + ["substitute"])
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            walk(i - 1, j, acc + ["delete"])
        if j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            walk(i, j - 1, acc + ["insert"])

    walk(n, m, [])
    return paths


class TestOpsToEdits:
    def test_fig_style_merge(self):
        source = ("the", "technologies", "were")
        edits = extract_edits(source, ("technologies", "have"))
        assert [(e.start, e.end, e.replacement) for e in edits] == [
            (0, 1, ()),
            (2, 3, ("have",)),
        ]

    def test_all_match_gives_no_edits(self):
        assert extract_edits(("a", "b"), ("a", "b")) == []

    def test_substitute_insert_run_merges(self):
        ops = [
            AlignOp("match", 0, 1, 0, 1, "a", "a"),
            AlignOp("substitute", 1, 2, 1, 2, "b", "x"),
            AlignOp("insert", 2, 2, 2, 3, None, "y"),
        ]
        edits = ops_to_edits(ops)
        assert [(e.start, e.end, e.replacement) for e in edits] == [(1, 2, ("x", "y"))]
        # splice oracle: applying the merged edit reproduces the target
        assert apply_edits(("a", "b"), edits) == ("a", "x", "y")

    def test_edits_sorted_and_disjoint(self):
        rng = random.Random(11)
        for _ in range(200):
            src = random_tokens(rng, 1, 7)
            tgt = random_tokens(rng, 0, 7)
            edits = extract_edits(src, tgt)
            # runs are separated by at least one match, so edits are
            # strictly disjoint
            for a, b in zip(edits, edits[1:]):
                assert a.end < b.start


def test_extract_apply_round_trip():
    rng = random.Random(13)
    for _ in range(500):
        src = random_tokens(rng, 1, 8)
        tgt = random_tokens(rng, 0, 8)
        assert apply_edits(src, extract_edits(src, tgt)) == tgt


def full_dp_edits(source, target):
    return ops_to_edits(align(source, target))


class TestMatchesFullDP:
    """``extract_edits`` fills bit-vector columns; the full DP is the oracle."""

    def test_random_pairs(self):
        rng = random.Random(17)
        for _ in range(3000):
            # a vocabulary of 1 to 8 tokens; the small ones repeat heavily
            vocab = VOCAB[: rng.randint(1, len(VOCAB))]
            src = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            if rng.random() < 0.5:
                tgt = list(src)
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randint(0, len(tgt))
                    tgt[pos : pos + rng.randint(0, 2)] = rng.choices(
                        vocab, k=rng.randint(0, 2)
                    )
                tgt = tuple(tgt)
            else:
                tgt = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 9)))
            assert extract_edits(src, tgt) == full_dp_edits(src, tgt), (src, tgt)

    @pytest.mark.parametrize(
        "source, target",
        [
            ((), ()),
            ((), ("a", "b")),
            (("a", "b", "c"), ()),
            (("a", "b"), ("a", "x", "y", "b")),
            (("a", "x", "y", "b"), ("a", "b")),
            (("a",) * 5, ("a",) * 3),
            (("a",) * 2, ("a",) * 6),
            (("a", "b") * 5 + ("c",), ("a", "b") * 6 + ("d",)),
        ],
    )
    def test_edge_cases(self, source, target):
        assert extract_edits(source, target) == full_dp_edits(source, target)

    @pytest.mark.parametrize(
        "source, target",
        [
            (("a",) * 8, ("b",) * 8),
            (("a", "b", "c", "d", "w", "x"), ("x", "w", "d", "c", "b", "a", "y")),
            (("a", "b", "a", "b", "a", "b"), ("b", "b", "a", "a", "b", "a")),
            (("a", "b", "c", "a", "b", "c", "a"), ("c", "b", "a", "c", "b", "a")),
        ],
    )
    def test_band_doubles_at_least_twice(self, source, target):
        # a distance above 2 * max(|n - m|, 1): the path strays far from the
        # diagonal, so cells far off it must hold their true distance
        distance = sum(op.kind != "match" for op in align(source, target))
        assert distance > 2 * max(abs(len(source) - len(target)), 1)
        assert extract_edits(source, target) == full_dp_edits(source, target)

    def test_long_pairs(self):
        # up to 140 tokens, so the columns cross the 30- and 60-bit digits
        # of an int, over vocabularies of 1 to 8 tokens that repeat heavily
        rng = random.Random(19)
        for _ in range(150):
            vocab = VOCAB[: rng.randint(1, len(VOCAB))]
            src = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 140)))
            if rng.random() < 0.5:
                tgt = list(src)
                for _ in range(rng.randint(1, 6)):
                    pos = rng.randint(0, len(tgt))
                    tgt[pos : pos + rng.randint(0, 3)] = rng.choices(
                        vocab, k=rng.randint(0, 3)
                    )
                tgt = tuple(tgt)
            else:
                tgt = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 140)))
            edits = extract_edits(src, tgt)
            assert edits == full_dp_edits(src, tgt), (src, tgt)
            assert apply_edits(src, edits) == tgt

    def test_shared_prefix_ending_in_repeats(self):
        # the shared prefix ends in a run of one token and the target has
        # more or fewer of it, so the edit slides back into the prefix
        rng = random.Random(23)
        slid = 0
        for _ in range(200):
            vocab = VOCAB[: rng.randint(2, len(VOCAB))]
            head = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 70)))
            tok = rng.choice(vocab)
            run = (tok,) * rng.randint(1, 40)
            tails = [
                tuple(rng.choice(vocab) for _ in range(rng.randint(0, 30)))
                for _ in range(2)
            ]
            extra = (tok,) * rng.randint(1, 5)
            if rng.random() < 0.5:
                src, tgt = head + run + tails[0], head + run + extra + tails[1]
            else:
                src, tgt = head + run + extra + tails[0], head + run + tails[1]
            p = next(
                (k for k, (a, b) in enumerate(zip(src, tgt)) if a != b),
                min(len(src), len(tgt)),
            )
            edits = extract_edits(src, tgt)
            assert edits == full_dp_edits(src, tgt), (src, tgt)
            assert apply_edits(src, edits) == tgt
            slid += bool(edits) and edits[0].start < p
        assert slid > 50

    def test_repeated_token_insertion_stays_at_zero(self):
        # trimming the shared prefix "a" would move this insertion to 1
        assert extract_edits(("a", "b"), ("a", "a", "b")) == [Edit(0, 0, ("a",))]
        assert full_dp_edits(("a", "b"), ("a", "a", "b")) == [Edit(0, 0, ("a",))]
