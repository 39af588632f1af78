"""Drift between the package, its exports and its README."""

import contextlib
import io
import re
from pathlib import Path

import rollclust

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_api_quick_start_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md quick start", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2


def test_every_exported_name_resolves():
    missing = [name for name in rollclust.__all__ if not hasattr(rollclust, name)]
    assert not missing
    assert len(set(rollclust.__all__)) == len(rollclust.__all__)


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
