"""The runtime stays on the standard library: no dependencies, no other imports.

The package's ``__version__`` is the version ``pyproject.toml`` declares,
``__all__`` lists exactly what the package imports, every public name has a
caller in a package module other than ``__init__.py``, each ``WeightConfig``
field has one ``evaluate`` flag, ``corpus.split_lines`` is the one line
splitter, ``chunker.splice_slots`` the one code that splices edits into
slots, ``cli._read_blocks`` the one file reader, ``cli._write_out`` the
one file writer (called only by ``main``, with the text a command returns)
and ``cli._render`` the one JSON writer, the CLI parses every M2 file block
by block, and ``__main__.py`` is the one module entry point. Each module
parses under the Python 3.10 grammar. The README's Library example imports
only public names, runs, and scores as ``evaluate`` does.
"""

import ast
import codecs
import dataclasses
import random
import re
import sys
from pathlib import Path

from conftest import random_case

import chunkeval
from chunkeval import AnnotatedSample, WeightConfig, apply_edits, cli, emit_m2

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


def test_every_public_name_has_a_caller_in_the_package():
    # an export nothing in the package loads is a second door to a rule kept elsewhere
    loaded = set()
    for name, tree in _modules():
        if name == "__init__.py":  # it imports names to re-export them
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert len(loaded) > 100  # the walk found the package's names
    assert [name for name in chunkeval.__all__ if name not in loaded] == []


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


def test_read_blocks_is_the_only_file_reader():
    # every input file is read as open(path, encoding="utf-8-sig") reads it,
    # and every output file is written by _write_out
    found = set()
    for name, tree in _modules():
        owner = {}
        for func in ast.walk(tree):  # breadth first, so inner functions win
            if isinstance(func, ast.FunctionDef):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):  # open(...) or x.open(...), x.read_text(...), ...
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in ("open", "read_text", "read_bytes", "write_text"):
                    found.add((called, name, owner.get(id(node))))
    readers = {(name, func) for call, name, func in found if call != "write_text"}
    writers = {(name, func) for call, name, func in found if call == "write_text"}
    assert readers == {("cli.py", "_read_blocks")}
    assert writers == {("cli.py", "_write_out")}


def test_reports_leave_by_one_writer_and_one_renderer():
    # each command returns its text, main writes it, and _render alone makes JSON
    tree = dict(_modules())["cli.py"]
    owner = {}
    for func in ast.walk(tree):  # breadth first, so inner functions win
        if isinstance(func, ast.FunctionDef):
            owner.update((id(node), func.name) for node in ast.walk(func))
    calls = [
        (ast.unparse(node.func), owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    assert [func for called, func in calls if called == "_write_out"] == ["main"]
    assert [func for called, func in calls if called == "json.dumps"] == ["_render"]


def test_main_module_is_the_only_entry_point():
    # python -m chunkeval runs __main__.py; no other module runs as a script
    guarded = [
        name
        for name, tree in _modules()
        for node in tree.body
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)
    ]
    assert guarded == ["__main__.py"]


def test_every_module_parses_under_the_oldest_declared_python():
    """Each module parses with the grammar of Python 3.10, the oldest
    ``requires-python`` allows.

    This checks grammar only: a stdlib function or argument that 3.10 lacks
    still parses, so it is not caught here.
    """
    for path in sorted((ROOT / "src" / "chunkeval").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```", library, re.M | re.S).group(1)


def test_readme_library_example_scores_as_evaluate(tmp_path, monkeypatch, capsys):
    # saved with a BOM and CRLF line ends, which the CLI reads like plain LF
    rng = random.Random(25)
    samples, hyps = [], []
    for _ in range(60):
        source, hyp_edits, refs = random_case(rng, min_refs=2, max_refs=3)
        samples.append(AnnotatedSample(source, {aid: tuple(e) for aid, e in refs}))
        if rng.random() < 0.4:  # make TPs common
            hyp_edits = rng.choice(refs)[1]
        hyps.append(" ".join(apply_edits(source, hyp_edits)))
    for name, text in [
        ("references.m2", emit_m2(samples)),
        ("system_output.txt", "".join(h + "\n" for h in hyps)),
    ]:
        data = codecs.BOM_UTF8 + text.replace("\n", "\r\n").encode("utf-8")
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    example = _library_example()
    # every chunkeval import of the example is "from chunkeval import" of public names
    pairs = []  # (module, name) of each import in the example
    for node in ast.walk(ast.parse(example)):
        if isinstance(node, ast.Import):
            pairs += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs += [(node.module, alias.name) for alias in node.names]
    ours = [(module, name) for module, name in pairs if module.partition(".")[0] == "chunkeval"]
    assert len(ours) > 5
    assert all(module == "chunkeval" and name in chunkeval.__all__ for module, name in ours)
    exec(compile(example, "README.md", "exec"), {})
    f_beta, tp_n = capsys.readouterr().out.split()
    assert cli.main(["evaluate", "system_output.txt", "references.m2", "--variant", "dep"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    (row,) = [dict(zip(lines[0].split("\t"), l.split("\t"))) for l in lines[1:]]
    assert row["variant"] == "dep"
    assert (round(float(f_beta), 4), int(tp_n)) == (float(row["F_beta"]), int(row["tp_n"]))
    assert 0 < float(f_beta) < 1 and int(tp_n) > 10
