"""Workloads, set-up, timed loops, output checks and metrics.

An operation is one CLI command on one input set, run through
``chunkeval.cli.main`` in this process. Untraced runs report the
end-to-end metrics; traced runs time each operation untraced, run it
again with a span around each library call of the CLI (see ``spans.py``),
and report per-layer self times.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from chunkeval import VARIANTS, apply_edits, extract_edits, parse_m2, tokenize
from chunkeval.cli import REPORT_COLUMNS
from chunkeval.cli import main as cli_main

import spans

HERE = Path(__file__).resolve().parent
GEN = HERE / "gen.py"
# Set up at least 3 times, and until 9 s have passed (at most 9 times),
# so that a short set-up is timed over several seconds too.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 9.0

WORKLOADS = {
    "conll2-text": {"command": "evaluate", "hyp_format": "text"},
    "bn10-m2": {"command": "evaluate", "hyp_format": "m2"},
    "bn10-stats": {"command": "stats", "hyp_format": None},
}

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "sentences_per_s": "sentences/s",
    "peak_rss_mib": "MiB",
}
# Per-layer metric -> span name whose self time it sums per operation.
LAYER_SPANS = {
    "align.extract_edits_s": "align.extract_edits",
    "corpus.tokenize_s": "corpus.tokenize",
    "corpus.parse_m2_s": "corpus.parse_m2",
    "corpus.emit_m2_s": "corpus.emit_m2",
    "chunker.partition_s": "chunker.partition",
    "scoring.compute_ell_s": "scoring.compute_ell",
    **{f"scoring.{v}_s": f"scoring.{v}" for v in VARIANTS},
    "analysis.boundary_stats_s": "analysis.boundary_stats",
    "analysis.corpus_stats_s": "analysis.corpus_stats",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    "align.cells_per_s": "cells/s",
    "cli.other_s": "s",
}


@dataclass
class Op:
    """One CLI command; ``expected`` holds its first report."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[str], list[str]]
    expected: bytes | None = None


@dataclass
class Run:
    """Failed operations and broken checks of one run."""

    failed: int = 0
    errors: list[str] = field(default_factory=list)


def hash_tree(root: Path) -> str:
    """Digest of every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def generate(workload: str, seed: int, out: Path, sentences: int | None) -> dict:
    """Run the generator in its own process, so its memory is not counted."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, str(GEN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--out", str(out)]
    if sentences is not None:
        cmd += ["--sentences", str(sentences)]
    subprocess.run(cmd, check=True)
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def report_rows(text: str) -> list[dict]:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [dict(zip(lines[0].split("\t"), l.split("\t"))) for l in lines[1:]]


def check_evaluate(text: str, system: str) -> list[str]:
    """Properties every report holds, whatever the scorer's internals."""
    rows = report_rows(text)
    errors = []
    if not rows or list(rows[0]) != list(REPORT_COLUMNS):
        return [f"{system}: unexpected report columns"]
    if [r["variant"] for r in rows] != list(VARIANTS):
        errors.append(f"{system}: report rows {[r['variant'] for r in rows]}")
    for r in rows:
        v = r["variant"]
        if r["system"] != system:
            errors.append(f"{system}/{v}: system column {r['system']!r}")
        if system == "oracle" and (
            float(r["F_beta"]) != 1.0 or float(r["Acc"]) != 1.0 or int(r["fp_n"]) != 0
        ):
            errors.append(f"oracle/{v}: F_beta={r['F_beta']} Acc={r['Acc']} fp_n={r['fp_n']}")
        if system == "source-copy":
            if int(r["tp_n"]) != 0 or int(r["fp_n"]) != 0:
                errors.append(f"source-copy/{v}: tp_n={r['tp_n']} fp_n={r['fp_n']}")
            if v in ("dep", "indep") and float(r["F_beta"]) != 0.0:
                errors.append(f"source-copy/{v}: F_beta={r['F_beta']}")
    return errors


def check_stats(text: str, manifest: dict) -> list[str]:
    values = dict(line.split("\t") for line in text.splitlines())
    n, a, planted = manifest["sentences"], manifest["annotators"], manifest["planted_edits"]
    counted = sum(int(values[k]) for k in ("icc_count", "iuc_count", "cc_count"))
    errors = []
    if int(values["sentences"]) != n or int(values["references"]) != n * a:
        errors.append(
            f"stats: sentences={values['sentences']} references={values['references']}, "
            f"generated {n} and {n * a}"
        )
    if not counted == int(values["edits_held_out"]) == planted:
        errors.append(
            f"stats: icc+iuc+cc={counted} edits_held_out={values['edits_held_out']}, "
            f"planted {planted}"
        )
    return errors


def check_aligned(triples) -> list[str]:
    """Applying the extracted edits to the source gives the hypothesis back."""
    return [
        f"extract_edits does not reproduce {' '.join(tokens)!r}"
        for source, tokens, edits in triples
        if apply_edits(source, edits) != tokens
    ]


def extract_ops(d: Path, manifest: dict) -> list[Op]:
    ops = []
    for system in manifest["systems"]:
        src, tgt = d / "source.txt", d / "systems" / f"{system}.txt"
        out = d / "systems" / f"{system}.m2"
        ops.append(
            Op(
                f"extract:{system}",
                ["extract", str(src), str(tgt), "-o", str(out)],
                out,
                lambda text: [],
            )
        )
    return ops


def main_ops(workload: str, d: Path, manifest: dict) -> list[Op]:
    spec = WORKLOADS[workload]
    refs = d / "refs.m2"
    reports = d / "reports"
    reports.mkdir(exist_ok=True)
    if spec["command"] == "stats":
        out = reports / "stats.tsv"
        return [
            Op(
                "stats",
                ["stats", str(refs), "-o", str(out)],
                out,
                lambda text: check_stats(text, manifest),
            )
        ]
    fmt = spec["hyp_format"]
    variant_flags = [flag for v in VARIANTS for flag in ("--variant", v)]
    ops = []
    for system in manifest["systems"]:
        hyp = d / "systems" / f"{system}.{'txt' if fmt == 'text' else 'm2'}"
        out = reports / f"{system}.tsv"
        ops.append(
            Op(
                f"evaluate:{system}",
                ["evaluate", str(hyp), str(refs), "--hyp-format", fmt]
                + variant_flags
                + ["-o", str(out)],
                out,
                lambda text, system=system: check_evaluate(text, system),
            )
        )
    return ops


def run_op(op: Op, run: Run) -> float | None:
    """Run one CLI command; check its report outside the timed region.

    Each operation starts from a collected heap, as a fresh CLI process
    would, so garbage left by the previous one is not charged to it.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        code = cli_main(op.argv)
    except Exception as exc:  # a crash counts as a failed operation
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"perfbench: {op.name} failed: {code}", file=sys.stderr)
        return None
    data = op.out.read_bytes()
    if op.expected is None:
        op.expected = data
        run.errors.extend(op.check(data.decode("utf-8")))
    elif data != op.expected:
        run.errors.append(f"{op.name}: report differs from the first run")
    return elapsed


def set_up(workload: str, seed: int, d: Path, sentences, run: Run, tracer=None):
    """Generate, write the M2 hypotheses if needed, warm up with one operation.

    A failed set-up step makes the run incorrect; only timed operations
    count as attempted or failed.
    """
    manifest = generate(workload, seed, d, sentences)
    steps = extract_ops(d, manifest) if WORKLOADS[workload]["hyp_format"] == "m2" else []
    ops = main_ops(workload, d, manifest)
    for op in steps + ops[:1]:
        if run_op(op, run) is None or (
            tracer is not None and op in steps and traced_op(tracer, op, run) is None
        ):
            run.errors.append(f"set-up step {op.name} failed")
    return manifest, ops


def traced_op(tracer, op: Op, run: Run) -> tuple[int, float] | None:
    """Run ``op`` again with spans; returns its operation id and traced time.

    Returns None, and counts nothing, when the traced command fails.
    """
    op_id, code, seconds = tracer.operation(op.name, op.argv)
    aligned, tracer.aligned = tracer.aligned, []
    if code != 0:
        print(f"perfbench: traced {op.name} failed: {code}", file=sys.stderr)
        return None
    if op.out.read_bytes() != op.expected:
        run.errors.append(f"{op.name}: traced report differs from the untraced one")
    run.errors.extend(check_aligned(aligned))
    return op_id, seconds


def run_untraced(workload, seed, seconds, d, sentences) -> dict:
    run = Run()
    setups = []
    digests = set()
    while len(setups) < SETUP_MIN or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
    ):
        start = time.perf_counter()
        manifest, ops = set_up(workload, seed, d, sentences, run)
        setups.append(time.perf_counter() - start)
        digests.add(hash_tree(d))
    if len(digests) != 1:
        run.errors.append("set-up wrote different bytes for the same seed")

    rounds: list[list[float]] = []
    start = time.perf_counter()
    while True:
        rounds.append([])
        for op in ops:
            elapsed = run_op(op, run)
            if elapsed is None:
                run.failed += 1
            else:
                rounds[-1].append(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if WORKLOADS[workload]["hyp_format"] == "text":
        run.errors.extend(check_aligned(sample_alignments(d, manifest)))
    # op_s is a median over rounds of a round's mean operation time. A
    # round holds every system once, so the figure does not hinge on which
    # systems' operations land in the middle. On a shared 2-vCPU host whose
    # CPU speed changes for seconds at a time, the plain median of single
    # operations swung more from run to run than the mean of a round.
    # Only whole rounds count, so that a failed operation does not change
    # which systems a round's mean is taken over.
    whole = [r for r in rounds if len(r) == len(ops)]
    if not whole:
        run.errors.append("no round ran without a failed operation")
    times = [t for r in rounds for t in r]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(statistics.fmean(r) for r in whole) if whole else None,
        "sentences_per_s": manifest["sentences"] * len(times) / sum(times) if times else None,
        "peak_rss_mib": peak_kib / 1024,
    }
    return _result(run, len(rounds) * len(ops), metrics, END_TO_END)


def sample_alignments(d: Path, manifest: dict):
    """Sentence i of system i mod k, so every system and sentence is seen."""
    samples = parse_m2((d / "refs.m2").read_text(encoding="utf-8"))
    systems = list(manifest["systems"])
    lines = {
        s: (d / "systems" / f"{s}.txt").read_text(encoding="utf-8").splitlines()
        for s in systems
    }
    triples = []
    for i, sample in enumerate(samples):
        tokens = tokenize(lines[systems[i % len(systems)]][i])
        triples.append((sample.source, tokens, extract_edits(sample.source, tokens)))
    return triples


def run_traced(workload, seed, seconds, d, sentences, trace_path: Path) -> dict:
    run = Run()
    tracer = spans.Tracer()
    manifest, ops = set_up(workload, seed, d, sentences, run, tracer)
    untraced: dict[int, float] = {}
    traced: dict[int, float] = {}
    rounds = 0
    start = time.perf_counter()
    while True:
        rounds += 1
        for op in ops:
            elapsed = run_op(op, run)
            done = traced_op(tracer, op, run) if elapsed is not None else None
            if done is None:
                run.failed += 1
                continue
            op_id, traced[op_id] = done
            untraced[op_id] = elapsed
        if time.perf_counter() - start >= seconds:
            break

    if not untraced:
        run.errors.append("no operation succeeded")
    # Self time: a span's duration minus the part its child spans cover.
    # Library spans have no children; a root span's self time is the CLI's.
    self_time: dict[int, dict[str, float]] = {}
    for name, s, e, parent, op_id in tracer.spans:
        per_op = self_time.setdefault(op_id, {})
        key = "cli" if parent < 0 else name
        per_op[key] = per_op.get(key, 0.0) + (e - s)
        if parent >= 0:
            per_op["cli"] -= e - s

    def median_over_ops(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        metric: median_over_ops([t[span] for t in self_time.values() if span in t])
        for metric, span in LAYER_SPANS.items()
    }
    metrics["align.cells_per_s"] = median_over_ops(
        [
            tracer.counts[(op_id, "align.cells")] / t["align.extract_edits"]
            for op_id, t in self_time.items()
            if "align.extract_edits" in t
        ]
    )
    metrics["cli.other_s"] = median_over_ops([self_time[i]["cli"] for i in untraced])
    if not untraced:
        metrics = dict.fromkeys(metrics)
    overhead = median_over_ops([traced[i] - untraced[i] for i in untraced])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "tracing_overhead_s": overhead,
                "ops": [
                    {
                        "id": i,
                        "name": name,
                        "untraced_s": untraced.get(i),
                        "traced_s": traced.get(i),
                    }
                    for i, name in enumerate(tracer.ops)
                ],
                "span_fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
            }
        ),
        encoding="utf-8",
    )
    return _result(run, rounds * len(ops), metrics, PER_LAYER)


def _result(run: Run, attempted: int, metrics: dict, units: dict) -> dict:
    for error in run.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, sentences=None):
    """One benchmark run; returns the object printed as the last output line."""
    d = work / f"{workload}-seed{seed}"
    try:
        if trace:
            trace_path = work / f"trace-{workload}-seed{seed}.json"
            return run_traced(workload, seed, seconds, d, sentences, trace_path)
        return run_untraced(workload, seed, seconds, d, sentences)
    finally:
        shutil.rmtree(d, ignore_errors=True)
