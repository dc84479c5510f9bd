"""The runtime stays on the standard library: no dependencies, no other imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\b.*$", project, re.M) == ["dependencies = []"]


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in sorted((ROOT / "src" / "chunkeval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    outside = sorted(
        (name, module)
        for name, module in imported
        if module.partition(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []
    assert len(imported) > 10  # the walk found the package's imports
