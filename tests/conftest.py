"""Shared helpers: deterministic random corpora for property tests."""

import random

from chunkeval import Edit

VOCAB = ["a", "b", "c", "d", "w", "x", "y", "z"]


def random_tokens(
    rng: random.Random, min_len: int, max_len: int, vocab: list[str] = VOCAB
) -> tuple[str, ...]:
    return tuple(
        rng.choice(vocab) for _ in range(rng.randint(min_len, max_len))
    )


def random_edit_set(
    rng: random.Random, n_tokens: int, max_edits: int = 3, vocab: list[str] = VOCAB
) -> list[Edit]:
    """A valid edit set: sorted, in bounds, non-overlapping, no double inserts."""
    edits: list[Edit] = []
    pos = 0
    while pos <= n_tokens and len(edits) < max_edits:
        if rng.random() >= 0.4:
            pos += 1
            continue
        start = rng.randint(pos, n_tokens)
        if start == n_tokens or rng.random() < 0.3:
            replacement = tuple(
                rng.choice(vocab) for _ in range(rng.randint(1, 2))
            )
            edits.append(Edit(start, start, replacement))
            pos = start + 1
        else:
            end = rng.randint(start + 1, min(n_tokens, start + 2))
            replacement = tuple(
                rng.choice(vocab) for _ in range(rng.randint(0, 2))
            )
            edits.append(Edit(start, end, replacement))
            pos = end
    return edits


def touching_edit_set(
    rng: random.Random, n_tokens: int, vocab: list[str] = VOCAB
) -> list[Edit]:
    """A valid edit set in which an insertion is often followed by an edit of
    the same set that starts at the same point, a pattern ``random_edit_set``
    never makes, and edits often touch end to start."""
    edits: list[Edit] = []
    pos = 0
    while pos <= n_tokens:
        if rng.random() < 0.4:
            edits.append(Edit(pos, pos, (rng.choice(vocab),)))
        if pos < n_tokens and rng.random() < 0.5:
            end = rng.randint(pos + 1, min(n_tokens, pos + 3))
            replacement = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 2)))
            edits.append(Edit(pos, end, replacement))
            pos = end
        else:
            pos += rng.randint(1, 2)
    return edits


def random_ref_sets(
    rng: random.Random,
    n_tokens: int,
    min_refs: int = 1,
    max_refs: int = 3,
    vocab: list[str] = VOCAB,
) -> list[tuple[int, list[Edit]]]:
    n_refs = rng.randint(min_refs, max_refs)
    ids = sorted(rng.sample(range(max(8, max_refs)), n_refs))
    return [(aid, random_edit_set(rng, n_tokens, vocab=vocab)) for aid in ids]


def random_case(rng: random.Random, min_refs: int = 1, max_refs: int = 3):
    """(source, hyp_edits, ref_edit_sets) over a small vocabulary."""
    source = random_tokens(rng, 1, 8)
    hyp_edits = random_edit_set(rng, len(source))
    refs = random_ref_sets(rng, len(source), min_refs, max_refs)
    return source, hyp_edits, refs
