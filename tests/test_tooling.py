"""Drift between the package, its exports and its README."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import rollclust
from rollclust.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (API)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def top_level_imports(source: str) -> "set[str]":
    """The names `source` imports `from rollclust`."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "rollclust"
        for alias in node.names
    }


def test_readme_api_quick_start_runs_as_written():
    block = readme_quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md quick start", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2


def test_readme_cli_quick_start_runs_as_written(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 5 and all(argv[0] == "rollclust" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_every_exported_name_resolves():
    missing = [name for name in rollclust.__all__ if not hasattr(rollclust, name)]
    assert not missing
    assert len(set(rollclust.__all__)) == len(rollclust.__all__)


def test_exports_are_what_the_readme_and_the_benchmark_import():
    # everything else comes from the module that defines it
    readme = top_level_imports(readme_quick_start())
    perfbench = set().union(
        *(top_level_imports(path.read_text(encoding="utf-8"))
          for path in sorted((ROOT / "perfbench").glob("*.py")))
    )
    assert readme and perfbench
    assert set(rollclust.__all__) == readme | perfbench


def test_readme_counts_the_exports_and_the_mutants():
    import mutation_gate

    text = README.read_text(encoding="utf-8")
    assert re.findall(r"exports\s+(\d+)\s+names", text) == [str(len(rollclust.__all__))]
    assert re.findall(r"applies\s+each\s+of\s+its\s+(\d+)\s+mutants", text) == [
        str(len(mutation_gate.MUTANTS))
    ]


def test_only_core_knows_how_weights_are_stored():
    # SignedGraph's integer-over-scale format stays behind core.py
    leaks = [
        f"{path.name}: {needle}"
        for path in sorted((ROOT / "src" / "rollclust").glob("*.py"))
        if path.name != "core.py"
        for needle in ("._weights", "math.lcm")
        if needle in path.read_text(encoding="utf-8")
    ]
    assert not leaks


def imported_names(tree: ast.Module) -> "set[str]":
    """Names a module binds by import, other than `from __future__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> "set[str]":
    """Names a module reads, including those inside string annotations."""
    annotations = [
        ann
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str)
    ]
    trees = [tree] + [ast.parse(ann.value, mode="eval") for ann in annotations]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_src_and_test_modules_use_every_name_they_import():
    unused = []
    paths = sorted((ROOT / "src" / "rollclust").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":  # imports only to re-export
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused += [f"{path.parent.name}/{path.name}: {name}"
                   for name in sorted(imported_names(tree) - used_names(tree))]
    assert not unused


def test_no_class_hand_rolls_record_machinery():
    # records are frozen dataclasses, the one immutability idiom in src/.
    # A record lists its own __slots__: on Python 3.11 the __setattr__ that
    # slots=True generates raises TypeError for a name that is not a field
    hand_rolled = []
    for path in sorted((ROOT / "src" / "rollclust").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            options = {
                keyword.arg: ast.unparse(keyword.value)
                for dec in cls.decorator_list
                if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "dataclass"
                for keyword in dec.keywords
            }
            if "slots" in options:
                hand_rolled.append(f"{path.name}: {cls.name} slots={options['slots']}")
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name] if node.name in ("__setattr__", "__eq__") else []
                elif options.get("frozen") == "True":
                    names = []
                else:
                    targets = getattr(node, "targets", [getattr(node, "target", None)])
                    names = [t.id for t in targets if isinstance(t, ast.Name) and t.id == "__slots__"]
                hand_rolled += [f"{path.name}: {cls.name}.{name}" for name in names]
    assert not hand_rolled


def code_references(tree: ast.AST) -> "set[str]":
    """Names the code under `tree` reads: Name ids, attribute names and
    `from ... import` names. Comments and docstrings are not code."""
    names = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_top_level_name_in_src_is_read_somewhere_else():
    # production code that no other code in the package reads is dead: delete it
    tops = [
        (path.name, node)
        for path in sorted((ROOT / "src" / "rollclust").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [code_references(node) for _, node in tops]
    dead = [
        f"{module}: {node.name}"
        for i, (module, node) in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in rollclust.__all__
        and not any(node.name in names for j, names in enumerate(reads) if j != i)
    ]
    assert not dead


def unread_members(src: Path) -> "list[str]":
    """Methods, properties and dataclass fields of the classes in src's
    modules whose name no code in src reads as an attribute."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    member = node.target.id
                else:
                    continue
                if not (member.startswith("__") and member.endswith("__")) and member not in read:
                    unread.append(f"{module}: {cls.name}.{member}")
    return unread


def test_every_class_member_in_src_is_read_somewhere_in_src():
    # a member that only the tests read is dead: delete it. The check goes
    # by name, so a member named like one that is read passes unseen (a
    # record's `rows` next to RolledGraph.rows, or its `config` next to
    # TrialAggregate.config); those need a reader's eye
    assert not unread_members(ROOT / "src" / "rollclust")


def test_every_mutation_gate_edit_still_applies():
    # the gate runs outside tier-1; this keeps its edits and test names
    # current, and its edits in the package, never in a test oracle
    import mutation_gate

    for name, (module, old, _, tests) in mutation_gate.MUTANTS.items():
        assert module.startswith("src/"), name
        assert (ROOT / module).read_text(encoding="utf-8").count(old) == 1, name
        for test in tests:
            path, function = test.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
