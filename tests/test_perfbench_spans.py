"""The benchmark's per-layer spans still find every function they wrap.

``perfbench/spans.py`` times each library call of ``chunkeval.cli`` by
swapping the names listed in its ``WRAPPED`` for wrappers. A name that
``chunkeval.cli`` no longer imports only gets a line on stderr there, and
its layer then reads zero; this test makes such a refactor fail instead.
"""

import importlib.util
from pathlib import Path

import chunkeval.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_name_is_imported_by_the_cli():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [name for name in spans.WRAPPED if not hasattr(chunkeval.cli, name)]
    assert missing == []
    assert all(callable(getattr(chunkeval.cli, name)) for name in spans.WRAPPED)
