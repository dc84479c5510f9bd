"""chunkeval benchmark: one run of one workload.

    python3 perfbench/run.py --workload conll2-text --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the benchmark imports chunkeval from
the checkout's ``src/`` and writes only under ``.perfbench/`` at its root.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run also
writes its spans to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chunkeval benchmark run")
    parser.add_argument("--workload", choices=list(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chunkeval" / "__init__.py").is_file():
        print(f"perfbench: no chunkeval sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"python={platform.python_version()} cpus={os.cpu_count()}"
    )
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
