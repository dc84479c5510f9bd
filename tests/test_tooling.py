"""The runtime stays on the standard library: no dependencies, no other imports.

The package's ``__version__`` is the version ``pyproject.toml`` declares,
``__all__`` lists exactly what the package imports, each ``WeightConfig``
field has one ``evaluate`` flag, ``corpus.split_lines`` is the one line
splitter, ``chunker.splice_slots`` the one code that splices edits into
slots, and the CLI parses every M2 file block by block.
"""

import ast
import dataclasses
import re
import sys
from pathlib import Path

import chunkeval
from chunkeval import WeightConfig, cli

ROOT = Path(__file__).resolve().parents[1]


def _project_table() -> str:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)


def test_runtime_declares_no_dependencies():
    project = _project_table()
    assert re.findall(r"^dependencies\b.*$", project, re.M) == ["dependencies = []"]


def test_version_matches_the_project_version():
    version = re.search(r'^version\s*=\s*"([^"]*)"\s*$', _project_table(), re.M).group(1)
    assert chunkeval.__version__ == version


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


def test_all_lists_exactly_the_names_the_package_imports():
    tree = ast.parse((ROOT / "src" / "chunkeval" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) > 40  # the walk found the re-exports
    assert sorted(chunkeval.__all__) == sorted(imported + ["__version__"])


def _modules():
    for path in sorted((ROOT / "src" / "chunkeval").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _modules():
        if name == "__init__.py":  # it imports names to re-export them
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported[bound] = node.lineno
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [(name, line, bound) for bound, line in imported.items() if bound not in used]
    assert unused == []


def test_every_private_module_name_is_referenced():
    defined, referenced = [], set()
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(name, t) for t in targets if t.startswith("_") and not t.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert len(defined) > 5  # the walk found the package's private names
    assert [(name, t) for name, t in defined if t not in referenced] == []


def test_no_module_imports_a_private_name_of_a_sibling():
    relative, private = 0, []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative += 1
                private += [
                    (name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert relative > 10  # the walk found the package's own imports
    assert private == []


def test_every_weight_field_has_one_evaluate_flag():
    # a WeightConfig field that no flag sets is a knob nothing can turn
    names = [f.name for f in dataclasses.fields(WeightConfig)]
    assert sorted(names) == sorted(cli._WEIGHT_FLAGS)


def test_split_lines_is_the_only_line_splitter():
    # str.splitlines also breaks at \f, \x1c, \x85 and \u2028, which a name may hold
    inside, outside = [], []
    for name, tree in _modules():
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "split_lines":
                own.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            newline = [ast.unparse(a) for a in node.args] == [repr("\n")]
            if node.func.attr == "splitlines" or node.func.attr == "split" and newline:
                (inside if id(node) in own else outside).append((name, node.lineno))
    assert [name for name, _ in inside] == ["corpus.py"]
    assert outside == []


def _joins_a_replacement(node) -> bool:
    """Whether ``node`` joins an edit's ``replacement`` onto other tokens."""

    def replacement(n):
        return isinstance(n, ast.Attribute) and n.attr == "replacement"

    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        return replacement(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return replacement(node.left) or replacement(node.right)
    if isinstance(node, ast.Starred):
        return replacement(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "extend" and any(map(replacement, node.args))
    return False


def test_splice_slots_is_the_only_slot_splicer():
    # apply_edits rebuilds whole sentences; every slot is spliced by one walk
    found = set()
    for name, tree in _modules():
        owner = {}
        for func in ast.walk(tree):  # breadth first, so inner functions win
            if isinstance(func, ast.FunctionDef):
                owner.update((id(node), func.name) for node in ast.walk(func))
        found.update(
            (name, owner.get(id(node))) for node in ast.walk(tree) if _joins_a_replacement(node)
        )
    assert sorted(found) == [("chunker.py", "splice_slots"), ("corpus.py", "apply_edits")]


def test_cli_parses_every_m2_file_block_by_block():
    # a _read(...) result holds the whole file, and parse_m2 would split it whole
    tree = dict(_modules())["cli.py"]
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "parse_m2"
    ]
    assert len(calls) == 3  # the hypothesis M2, the references, and stats' references
    assert sorted(ast.unparse(call) for call in calls) == [
        "parse_m2(_read_blocks(args.hyp))",
        "parse_m2(_read_blocks(args.ref))",
        "parse_m2(_read_blocks(args.ref))",
    ]
