"""Mutation gate: each mutant of the graph constructor, the roll layer, the
rounding, the exact solver, the reduction, the generator or the CLI must
fail the tests named for it.

A mutant is one textual edit to a module of the package. For each mutant the
gate copies src/, tests/, perfbench/, README.md and pyproject.toml into a
temporary directory, applies the edit there, and runs the named tests with
pytest; the tests that read README.md or perfbench/ can be named too. The
mutant is killed when those tests fail. First, the named tests must pass on
the unmutated copy, or no kill would mean anything. The working tree is
only read.

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

CORE = "src/rollclust/core.py"
ROLL = "src/rollclust/roll.py"
ROUNDING = "src/rollclust/rounding.py"
SOLVERS = "src/rollclust/solvers.py"
REDUCTION = "src/rollclust/reduction.py"
HARNESS = "src/rollclust/harness.py"
CLI = "src/rollclust/cli.py"

# name -> (module, original text, mutated text, tests that must fail)
MUTANTS = {
    "SignedGraph does not record a zero weight, so a later nonzero one passes": (
        CORE,
        "            store[key] = w\n",
        "            if w:\n                store[key] = w\n",
        ["tests/test_core.py::test_a_zero_and_a_nonzero_weight_for_one_pair_conflict_in_either_order"],
    ),
    "every candidate takes the first candidate's score": (
        CORE,
        "    return [value[lab] for lab in labelings]\n",
        "    return [value[labelings[0]] for lab in labelings]\n",
        [
            "tests/test_reduction.py::test_report_accounting_fields",
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
        ],
    ),
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
        '("_cells", cells)',
        '("_cells", dict(zip(active, [cells[d] for d in active[1:] + active[:1]])))',
        [
            # a permutation of the cells keeps every sum over the active
            # duplicates, so only a reading of each duplicate's own cells sees it
            "tests/test_roll.py::test_induced_clustering_matches_a_from_scratch_reading",
        ],
    ),
    "the roll ceiling refuses a grid of exactly MAX_NODES nodes": (
        ROLL,
        "if rows * n > MAX_NODES:",
        "if rows * n >= MAX_NODES:",
        ["tests/test_roll.py::test_valid_roll_size_admits_grids_up_to_the_node_ceiling"],
    ),
    "the roll keeps one start row too few per slope": (
        ROLL,
        "for start in range(rows))",
        "for start in range(rows - 1))",
        [
            "tests/test_acceptance.py::test_criterion_01_duplicate_count",
            "tests/test_roll.py::test_build_roll_structure",
            "tests/test_roll.py::test_build_roll_matches_the_public_constructor",
            "tests/test_golden.py::test_roll_command_output_is_byte_identical",
        ],
    ),
    "the roll stores a bone's pair as (a, b), uncanonicalized": (
        ROLL,
        "weights[(a, b) if a < b else (b, a)] = w",
        "weights[(a, b)] = w",
        [
            # SignedGraph._from_scaled does not check its pairs, so only the
            # graph's contents show the mutant
            "tests/test_roll.py::test_build_roll_matches_the_public_constructor",
            "tests/test_roll.py::test_active_duplicates_partition_rolled_edges",
            "tests/test_golden.py::test_roll_command_output_is_byte_identical",
        ],
    ),
    "round_graph without its normalization check": (
        ROUNDING,
        "        if abs(w) > g.scale:\n"
        '            raise ValueError("graph must be normalized to |weight| <= 1 before rounding")\n',
        "",
        [
            "tests/test_rounding.py::test_rejects_unnormalized_weights",
            "tests/test_reduction.py::test_reduce_rejects_unnormalized",
        ],
    ),
    "round_graph checks only the first distinct weight": (
        ROUNDING,
        "if abs(w) > g.scale:",
        "if not tie and abs(w) > g.scale:",
        # the over-bound weight must come after other distinct weights
        ["tests/test_rounding.py::test_rejects_an_unnormalized_weight_that_comes_after_fractional_draws"],
    ),
    "the rounding keeps a pair whose word equals its threshold, x <= T": (
        ROUNDING,
        "if x < (t := limit[w])",
        "if x <= (t := limit[w])",
        ["tests/test_rounding.py::test_the_keep_rule_is_exactly_x_below_T_with_a_tie_draw_at_T"],
    ),
    "the tie draw keeps a pair on randrange(den) <= r": (
        ROUNDING,
        ".randrange(tie[w][0]) < tie[w][1]",
        ".randrange(tie[w][0]) <= tie[w][1]",
        ["tests/test_rounding.py::test_the_keep_rule_is_exactly_x_below_T_with_a_tie_draw_at_T"],
    ),
    "pair k reads word k + 1 of the rounding's stream": (
        ROUNDING,
        'zip(items, uniform_words(len(items), seed, "round"))',
        'zip(items, uniform_words(len(items) + 1, seed, "round")[1:])',
        ["tests/test_rounding.py::test_round_graph_matches_the_fraction_oracle"],
    ),
    "the rounding's word stream is not keyed by the seed": (
        ROUNDING,
        'uniform_words(len(items), seed, "round")',
        'uniform_words(len(items), 0, "round")',
        [
            "tests/test_rounding.py::test_round_graph_matches_the_fraction_oracle",
            "tests/test_rounding.py::test_determinism_and_order_independence",
        ],
    ),
    "reduce_and_solve without its roll check": (
        REDUCTION,
        "    if rolled.t != cfg.t:\n"
        '        raise ValueError(f"rolled is {rolled!r}, not its base\'s roll at t={cfg.t}")\n',
        "",
        ["tests/test_reduction.py::test_reduce_and_solve_rejects_a_roll_at_another_t"],
    ),
    "the sum check only catches a sum above the rolled value": (
        REDUCTION,
        "if sum(scaled) * before.scale != pre * g.scale:",
        "if sum(scaled) * before.scale > pre * g.scale:",
        ["tests/test_reduction.py::test_reduce_and_solve_refuses_candidates_that_do_not_sum"],
    ),
    "reduce_and_solve without its post-rounding check": (
        REDUCTION,
        "    if kept * post.denominator != post.numerator * after.scale:\n"
        '        raise RuntimeError("post-rounding value disagrees with the contributing-set sum")\n',
        "",
        ["tests/test_reduction.py::test_post_rounding_failure_names_trial_and_seeds"],
    ),
    "reduce_and_solve without its solver-value check": (
        REDUCTION,
        "    if grid_res.value.numerator * post.denominator != post.numerator * grid_res.value.denominator:\n"
        '        raise RuntimeError("solver-reported value disagrees with direct evaluation")\n',
        "",
        ["tests/test_reduction.py::test_accounting_failure_names_trial_and_seeds"],
    ),
    "the post-rounding check sums the pre-rounding weights": (
        REDUCTION,
        "if kept * post.denominator != post.numerator * after.scale:",
        "if pre * post.denominator != post.numerator * after.scale:",
        # any trial whose rounding changes a contributing weight raises
        ["tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle"],
    ),
    "s1 is computed as pre - kept": (
        ROUNDING,
        "s1 = (kept * b - pre * a) * lam.numerator",
        "s1 = (pre * a - kept * b) * lam.numerator",
        [
            "tests/test_rounding.py::test_deviation_stats_match_per_pair_sums",
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
        ],
    ),
    "s2 is not divided by lam": (
        ROUNDING,
        "before.abs_weight(ref) * a) * lam.denominator",
        "before.abs_weight(ref) * a) * lam.numerator",
        [
            "tests/test_rounding.py::test_deviation_stats_refuses_a_float_lambda",
            "tests/test_reduction.py::test_stats_gating_on_lambda",
        ],
    ),
    "the gap adds the reference drift instead of subtracting it": (
        ROUNDING,
        "return Fraction(s1 - s2, a * b * lam.numerator)",
        "return Fraction(s1 + s2, a * b * lam.numerator)",
        ["tests/test_rounding.py::test_deviation_stats_match_per_pair_sums"],
    ),
    "a positive weight's keep probability is read over alpha": (
        ROUNDING,
        "(w * b_den, g.scale * b_num) if w > 0",
        "(w * a_den, g.scale * a_num) if w > 0",
        ["tests/test_rounding.py::test_round_graph_matches_the_fraction_oracle"],
    ),
    "a MaxAgree best exactly at OPT/(lambda+eps) counts as bad": (
        REDUCTION,
        "bad = best * target < opt.value",
        "bad = best * target <= opt.value",
        ["tests/test_reduction.py::test_a_best_value_exactly_at_the_target_is_not_a_bad_event"],
    ),
    "a MinDisagree best exactly at (lambda+eps)*OPT counts as bad": (
        REDUCTION,
        "else best > target * opt.value",
        "else best >= target * opt.value",
        ["tests/test_reduction.py::test_a_best_value_exactly_at_the_target_is_not_a_bad_event"],
    ),
    "the spread note fires at ((alpha+beta)/max|w|)^2 == rows*n": (
        REDUCTION,
        "if q and p * p > rows * g.n * q * q:",
        "if q and p * p >= rows * g.n * q * q:",
        # alpha = 5/4, beta = 7/4 at max|w| = 1 on the 9-node t=0 grid sits on the boundary
        ["tests/test_reduction.py::test_spread_note_emitted"],
    ),
    "every trial rounds with the same seed": (
        REDUCTION,
        "round_graph(rolled.graph, replace(cfg.rounding, seed=seed))",
        "round_graph(rolled.graph, cfg.rounding)",
        [
            # a replay calls the same trial, so only an independent
            # reading of the seeds sees it
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
            "tests/test_golden.py::test_seeded_report_is_byte_identical",
        ],
    ),
    "a trial rounds with seed ^ 1 and reports seed": (
        REDUCTION,
        "replace(cfg.rounding, seed=seed))",
        "replace(cfg.rounding, seed=seed ^ 1))",
        [
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
            "tests/test_golden.py::test_seeded_report_is_byte_identical",
        ],
    ),
    "every trial reports the config's rounding seed": (
        REDUCTION,
        "TrialSummary(seed, best,",
        "TrialSummary(cfg.rounding.seed, best,",
        ["tests/test_reduction.py::test_each_trial_replays_from_its_seeds"],
    ),
    "a trial's row drops its notes": (
        REDUCTION,
        "gap, tuple(notes))",
        "gap, ())",
        ["tests/test_reduction.py::test_budget_cut_off_note"],
    ),
    "the best candidate's value is read over the rounded graph's scale": (
        REDUCTION,
        "(scaled), g.scale)",
        "(scaled), outcome.after.scale)",
        [
            # the scales differ only on a base with a fractional weight
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
            "tests/test_golden.py::test_seeded_report_is_byte_identical",
        ],
    ),
    "run_trials refuses a base whose largest |w| is exactly 1": (
        REDUCTION,
        "if g.max_abs_weight() > g.scale:",
        "if g.max_abs_weight() >= g.scale:",
        [
            "tests/test_reduction.py::test_run_trials_rejects_an_unnormalized_base_before_rolling",
            "tests/test_reduction.py::test_run_trials_identity_regime",
        ],
    ),
    "run_trials counts the good trials as bad": (
        REDUCTION,
        "Fraction(sum(s.bad for s in summaries), trials)",
        "Fraction(sum(True for s in summaries), trials)",
        [
            "tests/test_reduction.py::test_run_trials_identity_regime",
            "tests/test_reduction.py::test_bad_events_thin_out_as_the_roll_grows",
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
        ],
    ),
    "the report drops the first gap from its gap summary": (
        REDUCTION,
        "gaps = [s.gap for s in agg.per_trial if s.gap is not None]",
        "gaps = [s.gap for s in agg.per_trial if s.gap is not None][1:]",
        [
            "tests/test_reduction.py::test_run_trials_gap_stats_present",
            "tests/test_reduction.py::test_run_trials_matches_the_fraction_oracle",
        ],
    ),
    "the CLI reports each note as raised once": (
        CLI,
        "Counter(note for s in agg.per_trial for note in s.notes)",
        "dict.fromkeys((note for s in agg.per_trial for note in s.notes), 1)",
        ["tests/test_cli.py::test_trial_notes_are_counted_in_first_seen_order"],
    ),
    "gen drops its pair ceiling": (
        HARNESS,
        "        if pairs > MAX_ROLL_PAIRS:\n"
        '            raise ValueError(f"n = {shown(self.n, quote=True)} needs n(n-1)/2 pair draws,"\n'
        '                             f" above the {MAX_ROLL_PAIRS}-pair limit")\n',
        "",
        # only the arithmetic boundary test: the CLI repros would generate
        ["tests/test_harness.py::test_gen_spec_refuses_more_pair_draws_than_the_pair_limit"],
    ),
    "gen counts n^2 pairs": (
        HARNESS,
        "pairs = self.n * (self.n - 1) // 2",
        "pairs = self.n * self.n",
        # 4,899^2 is above the limit, so n = 4,899 is refused
        ["tests/test_harness.py::test_gen_spec_refuses_more_pair_draws_than_the_pair_limit"],
    ),
    "gen writes a refused n in full": (
        HARNESS,
        "{shown(self.n, quote=True)}",
        "{str(self.n)!r}",
        # past 4,300 digits str() raises Python's own int-limit error
        ["tests/test_harness.py::test_gen_spec_refuses_more_pair_draws_than_the_pair_limit"],
    ),
    "GenSpec drops its unknown-model refusal": (
        HARNESS,
        "        if not isinstance(self.model, Model):\n"
        '            raise TypeError(f"unknown model {self.model!r}")\n',
        "",
        # generate then fails on the str's missing draw, an AttributeError
        ["tests/test_harness.py::test_model_validation"],
    ),
    "a planted partition puts node i in cluster i // k": (
        HARNESS,
        "w = 1 if u % self.clusters == v % self.clusters else -1",
        "w = 1 if u // self.clusters == v // self.clusters else -1",
        [
            "tests/test_harness.py::test_planted_no_flips_is_perfectly_clusterable",
            "tests/test_golden.py::test_generated_graphs_are_frozen",
        ],
    ),
    "a uniform weight takes the bound as its denominator": (
        HARNESS,
        "return Fraction(-p if rng.random() < 0.5 else p, q)",
        "return Fraction(-p if rng.random() < 0.5 else p, self.denominator_bound)",
        # every drawn q is at most the bound, so only the frozen graphs see it
        ["tests/test_golden.py::test_generated_graphs_are_frozen"],
    ),
    "a complete sign is +1 with probability 1 - plus_prob": (
        HARNESS,
        "return Fraction(1 if rng.random() < self.plus_prob else -1)",
        "return Fraction(-1 if rng.random() < self.plus_prob else 1)",
        [
            "tests/test_harness.py::test_complete_signed_model",
            "tests/test_golden.py::test_generated_graphs_are_frozen",
        ],
    ),
    "--density converts with argparse's own float": (
        CLI,
        'p.add_argument("--density", type=_float, default=0.5)',
        'p.add_argument("--density", type=float, default=0.5)',
        ["tests/test_cli.py::test_a_long_float_flag_value_is_shortened"],
    ),
    "a roll above the node limit writes t in full": (
        ROLL,
        'raise ValueError(f"t={shown(t)} rolls',
        'raise ValueError(f"t={t} rolls',
        ["tests/test_cli.py::test_a_long_t_is_shown_by_its_head_its_tail_and_its_length"],
    ),
    "shown writes every long int with str()": (
        CORE,
        "    if x < 10**MAX_EXPONENT:\n        return quoted(str(x))\n",
        "    return quoted(str(x))\n",
        # past 4,300 digits str() raises Python's own int-limit error
        [
            "tests/test_core.py::test_a_long_int_is_shown_as_quoted_shows_its_decimal",
            "tests/test_harness.py::test_gen_spec_refuses_more_pair_draws_than_the_pair_limit",
        ],
    ),
    "shown trusts its float estimate of the digit count": (
        CORE,
        "    digits += (x >= 10**digits) - (x < 10 ** (digits - 1))\n",
        "",
        ["tests/test_core.py::test_a_long_int_is_shown_as_quoted_shows_its_decimal"],
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
    "solve_exact's cheap child pre-check leaves out lift[v]": (
        SOLVERS,
        "            if bound + lift[v] <= best_val:\n",
        "            if bound <= best_val:\n",
        [
            # v's positive edges can raise the child's bound: optima get pruned
            "tests/test_solvers.py::test_exact_triangle",
            "tests/test_solvers.py::test_exact_matches_two_objective_oracle",
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
        ],
    ),
    "solve_exact's child pre-check adds a negative d to its per-edge sum": (
        SOLVERS,
        "                if d > 0:\n                    bound += d\n",
        "                bound += d\n",
        [
            # a top[x] that placing v leaves as it is lowers the bound
            "tests/test_solvers.py::test_exact_matches_two_objective_oracle",
            "tests/test_solvers.py::test_exact_matches_rescanning_oracle",
        ],
    ),
}


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    # perfbench/out holds benchmark results, which no test reads
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


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
