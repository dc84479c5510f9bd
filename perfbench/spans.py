"""Per-layer spans around the library calls of ``chunkeval.cli``.

A traced operation runs ``chunkeval.cli.main`` itself. For its duration,
each library function that ``chunkeval.cli`` imports by name (the
``WRAPPED`` names) is replaced in that module by a wrapper that records
one span per call, and the originals are put back afterwards. So the spans
follow the CLI's own call order, and what is left of the operation's root
span is the CLI's own code: argument and config parsing, file reads and
writes, checks, warnings and report formatting.

Library calls made inside another library function (``partition`` inside
``boundary_stats``, for example) go through that function's module, not
``chunkeval.cli``, and count in the caller's span.
"""

import sys
import time

import chunkeval.cli as cli

# Name imported by chunkeval.cli -> span name (layer.function).
WRAPPED = {
    "load_parallel": "corpus.load_parallel",
    "tokenize": "corpus.tokenize",
    "parse_m2": "corpus.parse_m2",
    "emit_m2": "corpus.emit_m2",
    "extract_edits": "align.extract_edits",
    "partition": "chunker.partition",
    "compute_ell": "scoring.compute_ell",
    "run_variant": "scoring",  # + "." + the variant argument
    "boundary_stats": "analysis.boundary_stats",
    "corpus_stats": "analysis.corpus_stats",
}


class Tracer:
    """Spans kept in memory: (name, start, end, parent, op_id).

    ``parent`` is the index of the operation's root span in ``spans``, or
    -1 on a root span. Alignment cells Σ(n+1)(m+1) go to
    ``counts[(op_id, "align.cells")]``, and each (source, target, edits)
    triple that ``extract_edits`` returns is appended to ``aligned``.
    """

    def __init__(self):
        self.ops: list[str] = []
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.aligned: list[tuple] = []
        self._op = -1
        self._root = -1
        missing = [name for name in WRAPPED if not hasattr(cli, name)]
        if missing:
            print(f"perfbench: chunkeval.cli no longer imports {missing}", file=sys.stderr)
        self._originals = {n: getattr(cli, n) for n in WRAPPED if n not in missing}

    def operation(self, name: str, argv: list[str]):
        """Run ``chunkeval.cli.main(argv)`` with spans.

        Returns (operation id, exit code or exception text, seconds). The
        spans of a failed operation are dropped.
        """
        self._op = len(self.ops)
        self.ops.append(name)
        self._root = len(self.spans)
        self.spans.append((name, 0.0, 0.0, -1, self._op))
        for fn_name, fn in self._originals.items():
            setattr(cli, fn_name, self._wrap(WRAPPED[fn_name], fn))
        try:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash counts as a failed operation
                code = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        finally:
            for fn_name, fn in self._originals.items():
                setattr(cli, fn_name, fn)
        if code == 0:
            self.spans[self._root] = (name, start, end, -1, self._op)
        else:
            del self.spans[self._root :]
        return self._op, code, end - start

    def _wrap(self, span: str, fn):
        spans, root, op = self.spans, self._root, self._op
        if span == "scoring":

            def run_variant(chunked, variant, *args, **kwargs):
                start = time.perf_counter()
                result = fn(chunked, variant, *args, **kwargs)
                spans.append((f"scoring.{variant}", start, time.perf_counter(), root, op))
                return result

            return run_variant
        if span == "align.extract_edits":
            key = (op, "align.cells")

            def extract_edits(source, target, *args, **kwargs):
                self.counts[key] = self.counts.get(key, 0) + (len(source) + 1) * (
                    len(target) + 1
                )
                start = time.perf_counter()
                result = fn(source, target, *args, **kwargs)
                spans.append((span, start, time.perf_counter(), root, op))
                self.aligned.append((source, target, result))
                return result

            return extract_edits

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            spans.append((span, start, time.perf_counter(), root, op))
            return result

        return wrapper
