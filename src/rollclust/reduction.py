"""The roll-round-solve pipeline and its trial harness.

reduce_and_solve is one trial: it rounds a base graph's roll with the
trial's rounding seed, solves the rounded graph, reads one candidate
clustering of the base graph out of every active duplicate, scores them
all in one pass against the base weights, and returns the trial's report
row, a TrialSummary. Its accounting stays in ints over each graph's
scale: the solver clustering's pre-rounding contributing set is built
once, and its |weight| sums before rounding (pre) and after (kept) feed
the identities and the drift gap. By integer cross-multiplication it
checks that kept equals the post-rounding value, that the candidate
values sum to pre, and that the solver's reported value equals the
post-rounding value. A failed check raises RuntimeError.

run_trials repeats the trial against the exact optimum of the base graph.
Rounding is its only random step: each trial derives one rounding seed
and passes cfg.solver on unchanged, as no solver that a ReductionConfig
accepts reads a seed. It keeps every trial's row and how often the best
candidate fails the (lambda+epsilon) target; aggregate_to_dict reads the
report's best/OPT ratios, opt_below_one and the drift gaps' mean, minimum
and maximum off the rows and the optimum. The roll depends only on the
base and t, so run_trials builds it once per call, and its trials share
the roll and its duplicate cells; each trial rounds it afresh.
Frequencies are measurements, not certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .core import (
    Clustering, ObjectiveKind, SignedGraph, as_fraction, clustering_value, contributing_edges,
    scaled_values,
)
from .jsonutil import frac_to_str, opt_frac_to_str
from .roll import (
    RolledGraph, build_roll, duplication_clustering, induced_clustering, valid_roll_size,
)
from .rounding import RoundingParams, deviation_stats, round_graph
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
class TrialSummary:
    rounding_seed: int
    best_value: Fraction
    ratio: Optional[Fraction]
    bad: bool
    gap: Optional[Fraction]
    notes: "tuple[str, ...]"


def reduce_and_solve(rolled: RolledGraph, cfg: ReductionConfig, opt: SolveResult,
                     seed: int) -> TrialSummary:
    """One trial: round a base's roll with the given rounding seed, solve
    it, check the accounting identities and judge the best candidate
    against opt, the base's exact optimum. rolled must be its base's roll
    at cfg.t, and round_graph rejects a base that is not normalized (all
    |weight| <= 1). The trial is bad when its best is worse than
    OPT/(lambda+eps) for MaxAgree, or (lambda+eps)*OPT for MinDisagree.
    When lambda_ref > 1, gap is the drift gap against opt's duplication
    clustering; otherwise it is None."""
    g, rows = rolled.base, rolled.rows
    if rolled.t != cfg.t:
        raise ValueError(f"rolled is {rolled!r}, not its base's roll at t={cfg.t}")
    notes: "list[str]" = []
    # ((alpha+beta)/max|w|)^2 > rows*n, in ints over g.scale: rounding
    # reads alpha and beta only against |w|, so scaling all three together
    # keeps the note; an edgeless base (q = 0) raises none
    spread = cfg.rounding.alpha + cfg.rounding.beta
    p, q = spread.numerator * g.scale, spread.denominator * g.max_abs_weight()
    if q and p * p > rows * g.n * q * q:
        notes.append("(alpha+beta)/max|w| exceeds sqrt(rows*n); tail bounds are weak at this size")

    outcome = round_graph(rolled.graph, replace(cfg.rounding, seed=seed))
    grid_res = run_solver(outcome.after, cfg.objective, cfg.solver)
    if grid_res.budget_exhausted:
        notes.append(budget_note(cfg.solver.budget))

    grid = grid_res.clustering
    candidates = [induced_clustering(rolled, grid, d) for d in rolled.active]
    # scored in ints over g.scale; a Fraction only for the best
    scaled = scaled_values(g, candidates, cfg.objective)
    maximize = cfg.objective is ObjectiveKind.MAX_AGREE
    best = Fraction((max if maximize else min)(scaled), g.scale)

    before, after = rolled.graph, outcome.after
    pre_set = contributing_edges(before, grid, cfg.objective)
    pre, kept = before.abs_weight(pre_set), after.abs_weight(pre_set)
    post = clustering_value(after, grid, cfg.objective)
    if kept * post.denominator != post.numerator * after.scale:
        raise RuntimeError("post-rounding value disagrees with the contributing-set sum")
    if sum(scaled) * before.scale != pre * g.scale:
        raise RuntimeError("candidate values do not sum to the pre-rounding rolled value")
    if grid_res.value.numerator * post.denominator != post.numerator * grid_res.value.denominator:
        raise RuntimeError("solver-reported value disagrees with direct evaluation")

    gap = None
    if cfg.lambda_ref > 1:
        u_n = duplication_clustering(opt.clustering, rows)
        gap = deviation_stats(outcome, pre, kept, u_n, cfg.lambda_ref, cfg.objective)
    else:
        notes.append("deviation stats skipped: lambda_ref is 1")

    # strictly below OPT/(lambda+eps) for MaxAgree, above (lambda+eps)*OPT for MinDisagree
    target = cfg.lambda_ref + cfg.epsilon
    bad = best * target < opt.value if maximize else best > target * opt.value
    ratio = None if opt.value == 0 else best / opt.value
    return TrialSummary(seed, best, ratio, bad, gap, tuple(notes))


@dataclass(frozen=True)
class TrialAggregate:
    config: ReductionConfig
    trials: int
    opt_value: Fraction
    opt_clustering: Clustering
    bad_event_freq: Fraction
    per_trial: "tuple[TrialSummary, ...]"


def run_trials(g: SignedGraph, cfg: ReductionConfig, trials: int) -> TrialAggregate:
    """Repeat reduce_and_solve with a derived rounding seed per trial and
    measure how often its bad event happens; the aggregate keeps each
    trial's row, from which the report and the CLI read everything else.
    Needs the base graph to be
    small enough for the exact oracle. Before solving it, a base with some
    |weight| > 1 (an int compare over its scale), a roll that
    valid_roll_size refuses or a grid the exact solver cannot take is a
    ValueError. A failed accounting identity raises RuntimeError naming
    the trial and its rounding seed."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if g.max_abs_weight() > g.scale:
        raise ValueError("base graph must be normalized to |weight| <= 1")
    # refuse a grid the exact solver cannot take before solving the base
    nodes = valid_roll_size(g.n, cfg.t, g.edge_count) * g.n
    if cfg.solver.kind is SolverKind.EXACT and nodes > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver cannot solve the t={cfg.t} roll of a {g.n}-node base:"
                         f" {nodes} nodes, more than {EXACT_NODE_LIMIT}")
    opt = solve_exact(g, cfg.objective)
    # the roll depends only on (g, t): every trial rounds the same one
    rolled = build_roll(g, cfg.t)

    summaries = []
    for i in range(trials):
        seed = derive_seed(cfg.rounding.seed, "trial", i, "round")
        try:
            summaries.append(reduce_and_solve(rolled, cfg, opt, seed))
        except RuntimeError as exc:
            # name the seed that replays the failing trial on its own
            raise RuntimeError(f"trial {i} (rounding seed {seed}): {exc}") from exc
    return TrialAggregate(
        config=cfg,
        trials=trials,
        opt_value=opt.value,
        opt_clustering=opt.clustering,
        bad_event_freq=Fraction(sum(s.bad for s in summaries), trials),
        per_trial=tuple(summaries),
    )


# --- JSON reports ---------------------------------------------------------


def aggregate_to_dict(agg: TrialAggregate) -> dict:
    cfg = agg.config
    gaps = [s.gap for s in agg.per_trial if s.gap is not None]
    return {
        "config": {
            "objective": cfg.objective.value,
            "t": cfg.t,
            "alpha": frac_to_str(cfg.rounding.alpha),
            "beta": frac_to_str(cfg.rounding.beta),
            "rounding_seed": cfg.rounding.seed,
            "solver": cfg.solver.kind.value,
            "budget": cfg.solver.budget,
            "epsilon": frac_to_str(cfg.epsilon),
            "lambda": frac_to_str(cfg.lambda_ref),
        },
        "trials": agg.trials,
        "opt_value": frac_to_str(agg.opt_value),
        "opt_clustering": list(agg.opt_clustering.labels),
        "opt_below_one": agg.opt_value < 1,
        "bad_event_freq": frac_to_str(agg.bad_event_freq),
        "ratios": [opt_frac_to_str(s.ratio) for s in agg.per_trial],
        "gap_mean": frac_to_str(sum(gaps, Fraction(0)) / len(gaps)) if gaps else None,
        "gap_min": opt_frac_to_str(min(gaps, default=None)),
        "gap_max": opt_frac_to_str(max(gaps, default=None)),
        "per_trial": [
            {
                "rounding_seed": s.rounding_seed,
                "best_value": frac_to_str(s.best_value),
                "ratio": opt_frac_to_str(s.ratio),
                "bad": s.bad,
                "gap": opt_frac_to_str(s.gap),
            }
            for s in agg.per_trial
        ],
    }
