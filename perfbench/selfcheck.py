"""Self-check of the benchmark, on tiny corpora, in about ten seconds.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced with every output check, checks
that the traced run times every layer the workload calls and no other,
that each check rejects a report that breaks its property, that a run
whose operations all fail still prints an incorrect result, that the
generator writes the same bytes for the same seed, and that the metric
lists agree with BENCHMARK.json. Exits 0 when all hold.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / "selfcheck"
SENTENCES = 40
# Per-layer metrics that read 0 because the workload never calls the layer.
UNCALLED = {
    "conll2-text": {"corpus.emit_m2_s", "analysis.boundary_stats_s", "analysis.corpus_stats_s"},
    "bn10-m2": {"corpus.tokenize_s", "analysis.boundary_stats_s", "analysis.corpus_stats_s"},
    "bn10-stats": {"align.extract_edits_s", "align.cells_per_s", "corpus.tokenize_s"}
    | {"corpus.emit_m2_s", "chunker.partition_s", "scoring.compute_ell_s"}
    | {f"scoring.{v}_s" for v in ("dep", "indep", "sent-dep", "sent-indep")}
    | {f"scoring.{v}-acc_s" for v in ("dep", "indep", "sent-dep", "sent-indep")},
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import gen

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
        "BENCHMARK.json names the benchmark's workloads",
    )
    for key, metrics in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        expect(
            {m["name"]: m["unit"] for m in spec[key]} == metrics,
            f"BENCHMARK.json {key} metrics and units match the benchmark's",
        )

    for workload in bench.WORKLOADS:
        for trace in (False, True):
            result = bench.run(workload, 7, 0, trace, WORK, sentences=SENTENCES)
            names = bench.PER_LAYER if trace else bench.END_TO_END
            expect(
                result["correct"]
                and result["failed"] == 0
                and result["attempted"] > 0
                and set(result["metrics"]) == set(names),
                f"{workload} trace={int(trace)}: every check passes, no failed operation",
            )
            if trace:
                zero = {k for k, m in result["metrics"].items() if m["value"] == 0}
                expect(zero == UNCALLED[workload], f"{workload}: spans on every layer called")

    # Every operation fails: the run still ends with a result, marked incorrect.
    real_main = bench.cli_main
    bench.cli_main = bench.spans.cli.main = lambda argv: 3
    try:
        for workload in ("conll2-text", "bn10-m2"):
            for trace in (False, True):
                with contextlib.redirect_stderr(io.StringIO()):
                    result = bench.run(workload, 7, 0, trace, WORK, sentences=SENTENCES)
                expect(
                    not result["correct"] and result["failed"] == result["attempted"] > 0,
                    f"{workload} trace={int(trace)}: failing operations give an incorrect result",
                )
    finally:
        bench.cli_main = bench.spans.cli.main = real_main

    for workload in gen.WORKLOADS:
        a, b, c = WORK / "a", WORK / "b", WORK / "c"
        gen.generate(workload, 11, a, SENTENCES)
        gen.generate(workload, 11, b, SENTENCES)
        gen.generate(workload, 12, c, SENTENCES)
        expect(bench.hash_tree(a) == bench.hash_tree(b), f"{workload}: same seed, same bytes")
        expect(bench.hash_tree(a) != bench.hash_tree(c), f"{workload}: another seed, other bytes")
        for d in (a, b, c):
            shutil.rmtree(d)

    report = (
        "# ell: 1.0\n"
        + "\t".join(bench.REPORT_COLUMNS)
        + "\n"
        + "".join(
            f"oracle\t1\t0\t0\t1\t1\t0\t0\t1\t1.0\t1.0\t1.0\t1.0\t{v}\n"
            for v in bench.VARIANTS
        )
    )
    expect(not bench.check_evaluate(report, "oracle"), "oracle check accepts a perfect report")
    expect(
        bool(bench.check_evaluate(report.replace("1.0\t1.0\tdep\n", "0.9\t1.0\tdep\n"), "oracle")),
        "oracle check rejects F_beta below 1",
    )
    expect(
        bool(bench.check_evaluate(report.replace("oracle", "source-copy"), "source-copy")),
        "source-copy check rejects true positives",
    )
    expect(
        bool(bench.check_evaluate(report.replace("F_beta", "F"), "oracle")),
        "evaluate check rejects unknown report columns",
    )
    stats = "sentences\t2\nreferences\t4\nicc_count\t1\niuc_count\t1\ncc_count\t1\nedits_held_out\t3\n"
    manifest = {"sentences": 2, "annotators": 2, "planted_edits": 3}
    expect(not bench.check_stats(stats, manifest), "stats check accepts matching counts")
    expect(
        bool(bench.check_stats(stats, {**manifest, "planted_edits": 4})),
        "stats check rejects a lost held-out edit",
    )
    expect(
        bool(bench.check_aligned([(("a", "b"), ("a", "c"), [])])),
        "alignment check rejects edits that do not rebuild the hypothesis",
    )
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
