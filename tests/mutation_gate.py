"""Mutation gate: each mutant of the roll layer or the exact solver must fail
the tests named for it.

A mutant is one textual edit to a module of the package. For each mutant the
gate copies src/, tests/ and pyproject.toml into a temporary directory,
applies the edit there, and runs the named tests with pytest. The mutant is
killed when those tests fail. First, the named tests must pass on the
unmutated copy, or no kill would mean anything. The working tree is only
read.

    python tests/mutation_gate.py

It prints one line per mutant, the kill count and the wall time. It exits 1
if a mutant survives, and 2 if the named tests fail on the unmutated copy,
if an edit no longer matches its module exactly once, or if a mutant stops
the tests from being collected at all.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROLL = "src/rollclust/roll.py"
SOLVERS = "src/rollclust/solvers.py"

# name -> (module, original text, mutated text, tests that must fail)
MUTANTS = {
    "cells run backwards (start - j*slope)": (
        ROLL,
        "((start + j * slope) % rows)",
        "((start - j * slope) % rows)",
        [
            "tests/test_roll.py::test_duplicate_cells_wrap",
            "tests/test_roll.py::test_duplicate_cells_closed_form_matches_the_grid_nodes",
            "tests/test_golden.py::test_roll_command_output_is_byte_identical",
        ],
    ),
    "duplicate_of slope bound < instead of <=": (
        ROLL,
        "slope <= max_slope(rows, cols)",
        "slope < max_slope(rows, cols)",
        [
            "tests/test_roll.py::test_grid_bone_examples",
            "tests/test_roll.py::test_duplicate_of_examples",
            "tests/test_roll.py::test_bone_partition_exhaustive",
            "tests/test_harness.py::test_structural_checks_report_counts",
        ],
    ),
    "two-duplicates count check dropped": (
        ROLL,
        "        if len(weights) != len(active) * len(base_edges):\n"
        '            raise AssertionError("a bone is claimed by two active duplicates")\n',
        "",
        [
            "tests/test_roll.py::test_build_roll_rejects_two_active_duplicates_on_one_bone",
            "tests/test_harness.py::test_negative_control_double_claim_is_caught",
        ],
    ),
    "induced_clustering reads its cells rotated by one column": (
        ROLL,
        "[labels[i] for i in cells]",
        "[labels[i] for i in cells[1:] + cells[:1]]",
        [
            "tests/test_roll.py::test_induced_clustering_matches_a_from_scratch_reading",
            "tests/test_roll.py::test_value_decomposition_over_duplicates",
            "tests/test_harness.py::test_structural_checks_do_not_read_the_cached_cells",
        ],
    ),
    "RolledGraph caches the next duplicate's cells": (
        ROLL,
        'object.__setattr__(self, "_cells", cells)',
        'object.__setattr__(self, "_cells", dict(zip(active, [cells[d] for d in active[1:] + active[:1]])))',
        [
            # a permutation of the cells keeps every sum over the active
            # duplicates, so only a reading of each duplicate's own cells sees it
            "tests/test_roll.py::test_induced_clustering_matches_a_from_scratch_reading",
        ],
    ),
    "solve_exact does not raise top[x] along a positive edge": (
        SOLVERS,
        "if s > top[x]:\n                        top[x] = s",
        "if s > top[x]:\n                        pass",
        [
            "tests/test_solvers.py::test_exact_triangle",
            "tests/test_solvers.py::test_exact_matches_two_objective_oracle",
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
        ],
    ),
    "solve_exact does not rescan top[x] along a negative edge": (
        SOLVERS,
        "elif s - w == top[x]:\n                    top[x] = max(row)",
        "elif s - w == top[x]:\n                    pass",
        [
            # top[x] only stays too high, so the bound is loose but valid
            # and only the node counts see it
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
            "tests/test_solvers.py::test_suffix_bounds_keep_the_result_and_prune_the_main_walk",
        ],
    ),
    "solve_exact does not restore top on backtracking": (
        SOLVERS,
        "            top[v + 1 :] = saved\n",
        "",
        [
            "tests/test_solvers.py::test_exact_matches_two_objective_oracle",
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
        ],
    ),
    "solve_exact drops v's row from the front-half opt[v]": (
        SOLVERS,
        "        opt[v] += opt[v + 1]\n",
        "        opt[v] = opt[v + 1] if v < n // 2 else opt[v] + opt[v + 1]\n",
        [
            # too low a bound: optima get pruned
            "tests/test_solvers.py::test_exact_triangle",
            "tests/test_solvers.py::test_exact_matches_two_objective_oracle",
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
        ],
    ),
    "solve_exact starts a suffix walk's incumbent one above its attained value": (
        SOLVERS,
        "best_val = opt[v + 1] + fresh[v]",
        "best_val = opt[v + 1] + fresh[v] + 1",
        [
            # opt[v] can only come out one too high: a loose but valid bound
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
            "tests/test_solvers.py::test_suffix_bounds_keep_the_result_and_prune_the_main_walk",
        ],
    ),
}


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(dest: Path, module: str, old: str, new: str) -> None:
    path = dest / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant edit matches {module} {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_pytest(dest: Path, tests: "list[str]") -> int:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=dest, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    named = sorted({test for *_, tests in MUTANTS.values() for test in tests})
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        if run_pytest(clean, named) != 0:
            print("the named tests fail on the unmutated copy", file=sys.stderr)
            return 2
        killed = 0
        for i, (name, (module, old, new, tests)) in enumerate(MUTANTS.items()):
            dest = Path(tmp) / f"mutant-{i}"
            copy_tree(dest)
            apply(dest, module, old, new)
            code = run_pytest(dest, tests)
            if code not in (0, 1):
                print(f"{name}: pytest exited {code}, so the tests did not run", file=sys.stderr)
                return 2
            killed += code == 1
            print(f"{'killed' if code == 1 else 'SURVIVED'}: {name}")
    elapsed = time.perf_counter() - start
    print(f"{killed} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
