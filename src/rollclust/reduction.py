"""The roll-round-solve pipeline and its trial harness.

reduce_and_solve takes a base graph's roll, rounds the rolled weights,
hands the rounded graph to a solver, and reads one candidate clustering of
the base graph out of every active duplicate. Candidates are always scored
against the original base weights. The call checks its accounting exactly:
the candidate values must sum to the solver clustering's value on the
pre-rounding rolled graph, the post-rounding value must agree whether
computed directly or summed as |rounded weight| over the pre-rounding
contributing set, and the solver's reported value must equal that direct
evaluation. A failed check raises RuntimeError.

run_trials repeats the pipeline with per-trial derived seeds against the
exact optimum of the base graph and reports how often the best candidate
fails the (lambda+epsilon) target, the distribution of best/OPT ratios,
and drift statistics when available. The roll depends only on the base
and t, so run_trials builds it once per call, and its trials share the
roll and its duplicate cells; each trial rounds it afresh. Frequencies
are measurements, not certificates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import (
    Clustering, ObjectiveKind, SignedGraph, as_fraction, clustering_value, contributing_edges,
    scaled_value,
)
from .jsonutil import frac_to_str, opt_frac_to_str
from .roll import (
    RolledGraph, build_roll, duplication_clustering, induced_clustering, valid_roll_size,
)
from .rounding import DeviationStats, RoundingParams, deviation_stats, round_graph
from .solvers import (
    EXACT_NODE_LIMIT, SolveResult, SolverKind, SolverSpec, budget_note, run_solver, solve_exact,
)
from .streams import derive_seed


@dataclass(frozen=True)
class ReductionConfig:
    objective: ObjectiveKind
    t: int
    rounding: RoundingParams
    solver: SolverSpec
    epsilon: Fraction
    lambda_ref: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "lambda_ref", as_fraction(self.lambda_ref))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lambda_ref < 1:
            raise ValueError("lambda_ref must be at least 1")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        # pairs that could never run: run_solver would reject them on every
        # trial, but only after the exact oracle has run on the base
        kind = self.solver.kind
        if kind is SolverKind.PIVOT:
            raise ValueError("pivot needs a complete graph, and a rolled grid never is one"
                             " (same-column pairs are never bones)")
        if kind is SolverKind.TRIVIAL_MAX and self.objective is not ObjectiveKind.MAX_AGREE:
            raise ValueError("the trivial solver only targets MaxAgree")


@dataclass(frozen=True)
class ReductionReport:
    best: SolveResult
    stats: Optional[DeviationStats]
    notes: "tuple[str, ...]"


def reduce_and_solve(rolled: RolledGraph, cfg: ReductionConfig, u_ref: Clustering) -> ReductionReport:
    """Round a base's roll once, solve it, check the accounting identities
    and report the best candidate.

    rolled must be its base's roll at cfg.t, and round_graph rejects a base
    that is not normalized (all |weight| <= 1). When lambda_ref > 1,
    deviation statistics against u_ref's duplication clustering are
    included.
    """
    g, rows = rolled.base, rolled.rows
    if rolled.t != cfg.t:
        raise ValueError(f"rolled is {rolled!r}, not its base's roll at t={cfg.t}")
    notes: "list[str]" = []
    spread = cfg.rounding.alpha + cfg.rounding.beta
    if spread * spread > rows * g.n:
        notes.append("alpha+beta exceeds sqrt(rows*n); tail bounds are weak at this size")

    outcome = round_graph(rolled.graph, cfg.rounding)
    grid_res = run_solver(outcome.after, cfg.objective, cfg.solver)
    if grid_res.budget_exhausted:
        notes.append(budget_note(cfg.solver.budget))

    candidates = [induced_clustering(rolled, grid_res.clustering, d) for d in rolled.active]
    # scored in ints over g.scale; a Fraction only for the best
    scaled = [scaled_value(g, c, cfg.objective) for c in candidates]

    best_index = scaled.index((max if cfg.objective is ObjectiveKind.MAX_AGREE else min)(scaled))
    best = SolveResult(candidates[best_index], Fraction(scaled[best_index], g.scale))

    rolled_value_pre = clustering_value(rolled.graph, grid_res.clustering, cfg.objective)
    if Fraction(sum(scaled), g.scale) != rolled_value_pre:
        raise RuntimeError("candidate values do not sum to the pre-rounding rolled value")

    rolled_value_post = clustering_value(outcome.after, grid_res.clustering, cfg.objective)
    pre_set = contributing_edges(rolled.graph, grid_res.clustering, cfg.objective)
    surviving = outcome.after.abs_weight(pre_set)
    if surviving != rolled_value_post:
        raise RuntimeError("post-rounding value disagrees with the contributing-set sum")
    if grid_res.value != rolled_value_post:
        raise RuntimeError("solver-reported value disagrees with direct evaluation")

    stats = None
    if cfg.lambda_ref > 1:
        u_n = duplication_clustering(u_ref, rows)
        stats = deviation_stats(outcome, grid_res.clustering, u_n, cfg.lambda_ref, cfg.objective)
    else:
        notes.append("deviation stats skipped: lambda_ref is 1")

    return ReductionReport(best=best, stats=stats, notes=tuple(notes))


@dataclass(frozen=True)
class TrialSummary:
    rounding_seed: int
    solver_seed: int
    best_value: Fraction
    ratio: Optional[Fraction]
    bad: bool
    gap: Optional[Fraction]


@dataclass(frozen=True)
class TrialAggregate:
    config: ReductionConfig
    trials: int
    opt_value: Fraction
    opt_clustering: Clustering
    opt_below_one: bool
    bad_event_freq: Fraction
    ratios: "tuple[Optional[Fraction], ...]"
    gap_mean: Optional[Fraction]
    gap_min: Optional[Fraction]
    gap_max: Optional[Fraction]
    per_trial: "tuple[TrialSummary, ...]"
    # each distinct trial note with the number of trials that raised it,
    # in first-seen order; reports leave them out
    notes: "tuple[tuple[str, int], ...]"


def run_trials(g: SignedGraph, cfg: ReductionConfig, trials: int) -> TrialAggregate:
    """Repeat reduce_and_solve with derived per-trial seeds and measure the
    bad event: best candidate worse than OPT/(lambda+eps) for MaxAgree, or
    worse than (lambda+eps)*OPT for MinDisagree. Needs the base graph to be
    small enough for the exact oracle. A failed accounting identity raises
    RuntimeError naming the trial index and both derived seeds."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if g.max_abs_weight() > 1:
        raise ValueError("base graph must be normalized to |weight| <= 1")
    # refuse a grid the exact solver cannot take before solving the base
    nodes = valid_roll_size(g.n, cfg.t) * g.n
    if cfg.solver.kind is SolverKind.EXACT and nodes > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver cannot solve the t={cfg.t} roll of a {g.n}-node base:"
                         f" {nodes} nodes, more than {EXACT_NODE_LIMIT}")
    opt = solve_exact(g, cfg.objective)
    target = cfg.lambda_ref + cfg.epsilon
    # the roll depends only on (g, t): every trial rounds the same one
    rolled = build_roll(g, cfg.t)

    summaries = []
    note_counts: "Counter[str]" = Counter()
    for i in range(trials):
        r_seed = derive_seed(cfg.rounding.seed, "trial", i, "round")
        s_seed = derive_seed(cfg.solver.seed, "trial", i, "solve")
        cfg_i = replace(
            cfg,
            rounding=replace(cfg.rounding, seed=r_seed),
            solver=replace(cfg.solver, seed=s_seed),
        )
        try:
            rep = reduce_and_solve(rolled, cfg_i, opt.clustering)
        except RuntimeError as exc:
            # name the seeds that replay the failing trial on its own
            raise RuntimeError(
                f"trial {i} (rounding seed {r_seed}, solver seed {s_seed}): {exc}"
            ) from exc
        if cfg.objective is ObjectiveKind.MAX_AGREE:
            bad = rep.best.value < opt.value / target
        else:
            bad = rep.best.value > target * opt.value
        note_counts.update(rep.notes)
        summaries.append(
            TrialSummary(
                rounding_seed=r_seed,
                solver_seed=s_seed,
                best_value=rep.best.value,
                ratio=None if opt.value == 0 else rep.best.value / opt.value,
                bad=bad,
                gap=rep.stats.gap if rep.stats is not None else None,
            )
        )
    gaps = [s.gap for s in summaries if s.gap is not None]

    return TrialAggregate(
        config=cfg,
        trials=trials,
        opt_value=opt.value,
        opt_clustering=opt.clustering,
        opt_below_one=opt.value < 1,
        bad_event_freq=Fraction(sum(s.bad for s in summaries), trials),
        ratios=tuple(s.ratio for s in summaries),
        gap_mean=(sum(gaps, Fraction(0)) / len(gaps)) if gaps else None,
        gap_min=min(gaps) if gaps else None,
        gap_max=max(gaps) if gaps else None,
        per_trial=tuple(summaries),
        notes=tuple(note_counts.items()),
    )


# --- JSON reports ---------------------------------------------------------


def config_to_dict(cfg: ReductionConfig) -> dict:
    return {
        "objective": cfg.objective.value,
        "t": cfg.t,
        "alpha": frac_to_str(cfg.rounding.alpha),
        "beta": frac_to_str(cfg.rounding.beta),
        "rounding_seed": cfg.rounding.seed,
        "solver": cfg.solver.kind.value,
        "solver_seed": cfg.solver.seed,
        "budget": cfg.solver.budget,
        "epsilon": frac_to_str(cfg.epsilon),
        "lambda": frac_to_str(cfg.lambda_ref),
    }


def aggregate_to_dict(agg: TrialAggregate) -> dict:
    return {
        "config": config_to_dict(agg.config),
        "trials": agg.trials,
        "opt_value": frac_to_str(agg.opt_value),
        "opt_clustering": list(agg.opt_clustering.labels),
        "opt_below_one": agg.opt_below_one,
        "bad_event_freq": frac_to_str(agg.bad_event_freq),
        "ratios": [opt_frac_to_str(r) for r in agg.ratios],
        "gap_mean": opt_frac_to_str(agg.gap_mean),
        "gap_min": opt_frac_to_str(agg.gap_min),
        "gap_max": opt_frac_to_str(agg.gap_max),
        "per_trial": [
            {
                "rounding_seed": s.rounding_seed,
                "solver_seed": s.solver_seed,
                "best_value": frac_to_str(s.best_value),
                "ratio": opt_frac_to_str(s.ratio),
                "bad": s.bad,
                "gap": opt_frac_to_str(s.gap),
            }
            for s in agg.per_trial
        ],
    }
