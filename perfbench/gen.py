"""Seeded synthetic GEC corpora for the chunkeval benchmark (stdlib only).

    python3 perfbench/gen.py --workload conll2-text --seed 1 --out DIR

writes into DIR:

- ``refs.m2``: multi-annotator references in M2 form;
- ``source.txt``: the source sentences, one per line;
- ``systems/<name>.txt``: one hypothesis file per synthetic system;
- ``manifest.json``: the generator's own counts (planted edits, lengths,
  edit rates), which the benchmark checks the program's output against.

The same ``--workload``, ``--seed`` and ``--sentences`` give the same bytes.
Both ``bn10-*`` workloads share one reference set per seed.

Corpus shape:

- Sentence lengths are log-normal with a mean near 23 tokens, like
  CoNLL-14. Tokens come from a Zipf-like source vocabulary (``w<rank>``),
  drawn without repetition inside a sentence.
- Annotators fix shared error sites (substitutions, insertions, deletions
  and multi-token replacements). Each site has three candidate
  corrections of unequal popularity. An annotator sometimes widens a
  site's span by the next source token, copied into the replacement: the
  same correction with another boundary. Annotators also add a few
  private edits. Corrections come from a separate vocabulary
  (``c<rank>``) that sources never use.
- Because of the two rules above, no source token appears twice in a
  reference's corrected sentence. So annotator 0's correction, fed back
  as plain text, aligns to the same chunks as annotator 0's own edits,
  and the ``oracle`` system scores exactly 1.0 on the text path too.
- Systems edit a sentence by adopting annotators' site fixes and by
  spurious edits. The spurious edits include repeats of tokens from the
  same sentence (duplicated words, reused words), so the aligner's
  tie-break between equal-cost paths is exercised.
The edit density and the systems' edit rates are assumptions, not fitted
to published per-annotator counts of CoNLL-2014 or BN-10GEC. ``P_SITE``,
``P_FIX``, ``P_WIDEN`` and ``P_PRIVATE`` give about 1.5 edits per
annotator per sentence (about 6.5 per 100 source tokens). The rates of
spurious edits grow geometrically, so that the share of ``conll2-text``
hypothesis lines equal to their source runs from about 85% to 3%.
"""

import argparse
import itertools
import json
import random
from pathlib import Path

SENTENCES = 1312
SRC_VOCAB = 8000
CORR_VOCAB = 3000
ZIPF_EXPONENT = 1.0
LEN_MU, LEN_SIGMA = 3.0, 0.5  # log-normal mean exp(mu + sigma^2 / 2) ~ 22.8
MIN_LEN, MAX_LEN = 3, 100

P_SITE = 0.09  # chance that a scanned position starts an error site
P_FIX = 0.7  # chance that an annotator fixes a given site
P_WIDEN = 0.15  # chance that a fix also covers the next source token
P_PRIVATE = 0.012  # per free position, chance of an annotator-only edit
CANDIDATE_WEIGHTS = (0.6, 0.25, 0.15)

# (name, share of sites adopted, per-token rate of spurious edits)
CONLL2_SYSTEMS = tuple(
    (f"sys{k:02d}", round(0.05 * k, 2), round(0.003 * 1.45 ** (k - 1), 4))
    for k in range(1, 12)
)
BN10_SYSTEMS = (("light", 0.2, 0.01), ("heavy", 0.5, 0.1))

SHAPES = {
    "conll2": {"annotators": 2, "systems": CONLL2_SYSTEMS},
    "bn10": {"annotators": 10, "systems": BN10_SYSTEMS},
}
WORKLOADS = {
    "conll2-text": ("conll2", True),
    "bn10-m2": ("bn10", True),
    "bn10-stats": ("bn10", False),
}


class Zipf:
    """Sampler over ``prefix<rank>`` tokens with weight 1 / (rank + 1)^s."""

    def __init__(self, prefix: str, size: int, exponent: float = ZIPF_EXPONENT):
        self.tokens = [f"{prefix}{r}" for r in range(size)]
        self.cum = list(
            itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(size))
        )

    def draw(self, rng: random.Random, k: int = 1) -> list[str]:
        return rng.choices(self.tokens, cum_weights=self.cum, k=k)

    def distinct(self, rng: random.Random, k: int) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        while len(out) < k:
            (tok,) = self.draw(rng)
            if tok not in seen:
                seen.add(tok)
                out.append(tok)
        return out


def sentence_length(rng: random.Random) -> int:
    return min(MAX_LEN, max(MIN_LEN, round(rng.lognormvariate(LEN_MU, LEN_SIGMA))))


def make_sites(rng: random.Random, n: int, corr: Zipf) -> list[tuple]:
    """Error sites (start, end, kind, candidates), separated by free tokens.

    Each site keeps the token after its span free, so that a widened fix
    never reaches the next site.
    """
    sites = []
    i = 0
    while i <= n:
        if rng.random() >= P_SITE:
            i += 1
            continue
        r = rng.random()
        if i == n or r < 0.2:
            kind, end = "M", i
            candidates = [tuple(corr.draw(rng, rng.randint(1, 2))) for _ in range(3)]
        elif r < 0.35:
            kind, end = "U", i + 1
            candidates = [(), tuple(corr.draw(rng)), tuple(corr.draw(rng))]
        elif r < 0.8 or i + 2 > n:
            kind, end = "R", i + 1
            candidates = [tuple(corr.draw(rng)) for _ in range(3)]
        else:
            kind, end = "R", min(n, i + rng.randint(2, 3))
            candidates = [tuple(corr.draw(rng, rng.randint(1, 3))) for _ in range(3)]
        sites.append((i, end, kind, candidates))
        i = end + 2
    return sites


def annotate(
    rng: random.Random, src: list[str], sites: list[tuple], corr: Zipf
) -> list[tuple[int, int, str, tuple[str, ...]]]:
    """One annotator's edits (start, end, type, replacement), sorted by span."""
    n = len(src)
    edits = []
    reserved: set[int] = set()
    for start, end, kind, candidates in sites:
        reserved.update(range(start, end + 1))
        if rng.random() >= P_FIX:
            continue
        repl = rng.choices(candidates, weights=CANDIDATE_WEIGHTS)[0]
        if end < n and rng.random() < P_WIDEN:
            repl, end = repl + (src[end],), end + 1
            kind = "R"
        elif kind == "U" and repl:
            kind = "R"
        edits.append((start, end, kind, repl))
    for i in range(n):
        if i in reserved or rng.random() >= P_PRIVATE:
            continue
        if rng.random() < 0.2:
            edits.append((i, i + 1, "U", ()))
        else:
            edits.append((i, i + 1, "R", tuple(corr.draw(rng))))
    edits.sort(key=lambda e: (e[0], e[1]))
    return edits


def apply(src: list[str], edits) -> list[str]:
    out: list[str] = []
    pos = 0
    for start, end, _, repl in edits:
        out.extend(src[pos:start])
        out.extend(repl)
        pos = end
    out.extend(src[pos:])
    return out


def system_sentence(
    rng: random.Random,
    src: list[str],
    fixes: dict[int, tuple[int, list[tuple[str, ...]]]],
    adopt: float,
    noise: float,
    vocab: Zipf,
    corr: Zipf,
) -> tuple[list[str], int]:
    """A system's output for one sentence and the number of edits it made.

    ``fixes`` maps a site start to its end and candidate corrections, of
    which an adopted fix picks one by popularity. Spurious edits draw on
    the sentence's own tokens and on the head of the source vocabulary, so
    outputs repeat source tokens.
    """
    n = len(src)
    out: list[str] = []
    edits = 0
    i = 0
    while True:
        fix = fixes.get(i)
        if fix is not None and rng.random() < adopt:
            end, candidates = fix
            out.extend(rng.choices(candidates, weights=CANDIDATE_WEIGHTS)[0])
            edits += 1
            if end > i:
                i = end
                continue
        elif rng.random() < noise * 0.3:
            if rng.random() < 0.5:
                out.append(vocab.tokens[rng.randrange(20)])
            else:
                out.extend(corr.draw(rng))
            edits += 1
        if i >= n:
            return out, edits
        if rng.random() >= noise:
            out.append(src[i])
            i += 1
            continue
        edits += 1
        r = rng.random()
        if r < 0.35:
            out.extend(corr.draw(rng))
        elif r < 0.5:
            out.append(rng.choice(src))
        elif r < 0.7:
            pass
        elif r < 0.85:
            out.extend((src[i], src[i]))
        else:
            span = min(n - i, rng.randint(2, 3))
            pool = src + corr.draw(rng, 3)
            out.extend(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            i += span
            continue
        i += 1


def generate(workload: str, seed: int, out: Path, sentences: int = SENTENCES) -> dict:
    """Write one workload's corpus into ``out`` and return its manifest."""
    shape_name, with_systems = WORKLOADS[workload]
    shape = SHAPES[shape_name]
    n_ann = shape["annotators"]
    vocab = Zipf("w", SRC_VOCAB)
    corr = Zipf("c", CORR_VOCAB)

    rng = random.Random(f"refs:{shape_name}:{seed}")
    sources, refs, site_fixes = [], [], []
    for _ in range(sentences):
        src = vocab.distinct(rng, sentence_length(rng))
        sites = make_sites(rng, len(src), corr)
        sources.append(src)
        refs.append([annotate(rng, src, sites, corr) for _ in range(n_ann)])
        site_fixes.append({start: (end, cands) for start, end, _, cands in sites})

    out.mkdir(parents=True, exist_ok=True)
    blocks = []
    for src, ann in zip(sources, refs):
        lines = ["S " + " ".join(src)]
        for aid, edits in enumerate(ann):
            if not edits:
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{aid}")
            for start, end, kind, repl in edits:
                text = " ".join(repl) if repl else "-NONE-"
                lines.append(
                    f"A {start} {end}|||{kind}|||{text}|||REQUIRED|||-NONE-|||{aid}"
                )
        blocks.append("\n".join(lines) + "\n\n")
    _write(out / "refs.m2", "".join(blocks))
    _write(out / "source.txt", "".join(" ".join(s) + "\n" for s in sources))

    n_tokens = sum(len(s) for s in sources)
    planted = [sum(len(ann[a]) for ann in refs) for a in range(n_ann)]
    kinds: dict[str, int] = {}
    for ann in refs:
        for edits in ann:
            for e in edits:
                kinds[e[2]] = kinds.get(e[2], 0) + 1
    manifest = {
        "workload": workload,
        "seed": seed,
        "sentences": sentences,
        "annotators": n_ann,
        "source_tokens": n_tokens,
        "mean_sentence_length": round(n_tokens / sentences, 3),
        "max_sentence_length": max(len(s) for s in sources),
        "planted_edits": sum(planted),
        "edits_per_annotator_per_sentence": round(sum(planted) / n_ann / sentences, 3),
        "edit_types": dict(sorted(kinds.items())),
        "sentences_without_edits_share": round(
            sum(all(not e for e in ann) for ann in refs) / sentences, 4
        ),
        "holdout_passes_per_sentence": n_ann,
        "systems": {},
    }
    if with_systems:
        systems = {
            "oracle": ([apply(s, ann[0]) for s, ann in zip(sources, refs)], planted[0]),
            "source-copy": ([list(s) for s in sources], 0),
        }
        for name, adopt, noise in shape["systems"]:
            srng = random.Random(f"sys:{shape_name}:{name}:{seed}")
            lines, n_edits = [], 0
            for src, fixes in zip(sources, site_fixes):
                hyp, k = system_sentence(srng, src, fixes, adopt, noise, vocab, corr)
                lines.append(hyp)
                n_edits += k
            systems[name] = (lines, n_edits)
        (out / "systems").mkdir(exist_ok=True)
        for name, (lines, n_edits) in systems.items():
            _write(out / "systems" / f"{name}.txt", "".join(" ".join(h) + "\n" for h in lines))
            manifest["systems"][name] = {
                "edits_per_token": round(n_edits / n_tokens, 4),
                "identical_lines_share": round(
                    sum(h == s for h, s in zip(lines, sources)) / sentences, 4
                ),
            }
    _write(out / "manifest.json", json.dumps(manifest, indent=1) + "\n")
    return manifest


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--sentences", type=int, default=SENTENCES)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.sentences)


if __name__ == "__main__":
    main()
