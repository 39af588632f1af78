"""Independent checks of the roll's structure, for the tests to run on
generated and on deliberately corrupted rolls.

all_duplicates lists the paper's full duplicate family on an N x n grid:
one duplicate per start row and slope 0..(N-1)/(n-1), N*((N-1)/(n-1)+1) in
all, more than fit disjoint copies of the edge set. The roll keeps the
first N^2/n of them in (slope, start_row) order as its active copies, and
the trimmed duplicates' bones carry no weight in the rolled graph.
duplicate_of inverts duplicate_cells from the grid geometry alone: it names
the duplicate that owns a pair of cells, or None when the pair is not a
bone. Each check_* returns the first failure it finds as a string, or None.
total_abs_weight sums |weight| over a graph's edges() as they are listed.

oracle_run_trials is run_trials as it was written before its accounting
moved to scaled integers: a fresh roll per trial, candidates read through
freshly computed duplicate cells and scored one by one with
clustering_value, the bad event and every report value in Fractions, each
row carrying its trial's notes, and the drift sums of
oracle_deviation_stats rebuilt from both clusterings' contributing sets,
pair by pair through weight(). Next to the aggregate it returns what the
report and the CLI derive from the rows, computed on its own: the drift
gaps' mean, minimum and maximum, and each distinct note with the number of
trials that raised it, in first-seen order. It shares round_graph, the
solvers and the exact optimum with run_trials; each has its own oracle.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value, contributing_edges
from rollclust.reduction import TrialAggregate, TrialSummary
from rollclust.roll import (
    DuplicateId, RolledGraph, build_roll, duplicate_cells, duplication_clustering, induced_clustering,
)
from rollclust.rounding import round_graph
from rollclust.solvers import budget_note, run_solver, solve_exact
from rollclust.streams import derive_seed


def total_abs_weight(g: SignedGraph) -> Fraction:
    """MaxAgree + MinDisagree of every clustering of g."""
    return sum((abs(w) for _, _, w in g.edges()), Fraction(0))


def max_slope(rows: int, cols: int) -> int:
    # valid rolls have (rows-1) divisible by (cols-1)
    return (rows - 1) // (cols - 1)


def all_duplicates(rows: int, cols: int) -> "list[DuplicateId]":
    """Every duplicate, active and trimmed, in (slope, start_row) order."""
    return [DuplicateId(start, slope)
            for slope in range(max_slope(rows, cols) + 1) for start in range(rows)]


def duplicate_of(a: int, b: int, rows: int, cols: int) -> "DuplicateId | None":
    """The duplicate that owns the pair of flat cells {a, b}, or None when
    the pair is not a grid bone."""
    (row_a, col_a), (row_b, col_b) = divmod(a, cols), divmod(b, cols)
    if col_a == col_b:
        return None
    if col_a > col_b:
        row_a, col_a, row_b, col_b = row_b, col_b, row_a, col_a
    slope, rest = divmod((row_b - row_a) % rows, col_b - col_a)
    if rest == 0 and slope <= max_slope(rows, cols):
        return DuplicateId((row_a - col_a * slope) % rows, slope)
    return None


def check_edge_disjointness(r: RolledGraph) -> "str | None":
    """Active duplicates' bone sets are pairwise disjoint and cover every
    nonzero edge of the rolled graph. Recomputed from scratch so corrupted
    structures are caught."""
    claimed: dict = {}
    for d in r.active:
        for a, b in itertools.combinations(duplicate_cells(d, r.rows, r.base.n), 2):
            key = (a, b) if a < b else (b, a)
            if key in claimed:
                return f"edge {key} claimed by {claimed[key]} and {d}"
            claimed[key] = d
    for u, v, _ in r.graph.edges():
        if (u, v) not in claimed:
            return f"rolled edge ({u},{v}) belongs to no active duplicate"


def check_isomorphism(r: RolledGraph) -> "str | None":
    """Each active duplicate's induced subgraph matches the base graph
    weight for weight under the column map."""
    n = r.base.n
    for d in r.active:
        cells = duplicate_cells(d, r.rows, n)
        for j1, j2 in itertools.combinations(range(n), 2):
            got = r.graph.weight(cells[j1], cells[j2])
            want = r.base.weight(j1, j2)
            if got != want:
                return f"duplicate {d}: pair ({j1},{j2}) weight {got} != {want}"


def check_value_decomposition(r: RolledGraph, c: Clustering) -> "str | None":
    """A grid clustering's value equals the sum of its induced clusterings'
    values on the base graph, exactly, for both objectives."""
    for objective in ObjectiveKind:
        whole = clustering_value(r.graph, c, objective)
        parts = sum(
            (
                clustering_value(r.base, induced_clustering(r, c, d), objective)
                for d in r.active
            ),
            Fraction(0),
        )
        if whole != parts:
            return f"{objective.value}: rolled value {whole} != sum of parts {parts}"


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x), within a relative 1e-6 of it,
    computed in integers so that no x underflows or overflows a float."""
    p, q = x.numerator, x.denominator
    return Fraction(math.isqrt(p * q * 10**12) + (p != 0), q * 10**6)


def oracle_drift(out, c: Clustering, objective: ObjectiveKind) -> Fraction:
    """Sum of |rounded weight| - |weight| over c's pre-rounding contributing set."""
    return sum(
        (abs(out.after.weight(u, v)) - abs(out.before.weight(u, v))
         for u, v in contributing_edges(out.before, c, objective)),
        Fraction(0),
    )


def oracle_deviation_stats(out, candidate: Clustering, reference: Clustering, lam: Fraction,
                           objective: ObjectiveKind) -> "tuple[Fraction, Fraction]":
    """The two sides of deviation_stats' gap, from both clusterings'
    contributing sets: s1, the candidate's drift, and s2, the reference's
    drift over lam. The gap is s1 - s2."""
    return oracle_drift(out, candidate, objective), oracle_drift(out, reference, objective) / lam


def oracle_trial(g: SignedGraph, cfg, u_ref: Clustering):
    """(best candidate value, gap or None, notes) of one trial."""
    rolled = build_roll(g, cfg.t)
    rows = rolled.rows
    notes = []
    top = max((abs(w) for _, _, w in g.edges()), default=0)
    if top and ((cfg.rounding.alpha + cfg.rounding.beta) / top) ** 2 > rows * g.n:
        notes.append("(alpha+beta)/max|w| exceeds sqrt(rows*n); tail bounds are weak at this size")
    outcome = round_graph(rolled.graph, cfg.rounding)
    res = run_solver(outcome.after, cfg.objective, cfg.solver)
    if res.budget_exhausted:
        notes.append(budget_note(cfg.solver.budget))
    grid = res.clustering
    candidates = [
        Clustering(grid.labels[i] for i in duplicate_cells(d, rows, g.n))
        for d in rolled.active
    ]
    values = [clustering_value(g, c, cfg.objective) for c in candidates]
    assert sum(values, Fraction(0)) == clustering_value(rolled.graph, grid, cfg.objective)
    best = (max if cfg.objective is ObjectiveKind.MAX_AGREE else min)(values)
    if cfg.lambda_ref == 1:
        notes.append("deviation stats skipped: lambda_ref is 1")
        return best, None, notes
    u_n = duplication_clustering(u_ref, rows)
    s1, s2 = oracle_deviation_stats(outcome, grid, u_n, cfg.lambda_ref, cfg.objective)
    return best, s1 - s2, notes


def oracle_run_trials(g: SignedGraph, cfg, trials: int) -> "tuple[TrialAggregate, tuple]":
    """(aggregate, (gap mean, gap min, gap max, note counts)); the gap
    summary is None three times when lambda_ref is 1."""
    opt = solve_exact(g, cfg.objective)
    target = cfg.lambda_ref + cfg.epsilon
    summaries = []
    note_counts: "Counter[str]" = Counter()
    for i in range(trials):
        r_seed = derive_seed(cfg.rounding.seed, "trial", i, "round")
        cfg_i = replace(cfg, rounding=replace(cfg.rounding, seed=r_seed))
        best, gap, notes = oracle_trial(g, cfg_i, opt.clustering)
        note_counts.update(notes)
        if cfg.objective is ObjectiveKind.MAX_AGREE:
            bad = best < opt.value / target
        else:
            bad = best > target * opt.value
        ratio = None if opt.value == 0 else best / opt.value
        summaries.append(TrialSummary(r_seed, best, ratio, bad, gap, tuple(notes)))
    gaps = [s.gap for s in summaries if s.gap is not None]
    agg = TrialAggregate(
        config=cfg,
        trials=trials,
        opt_value=opt.value,
        opt_clustering=opt.clustering,
        bad_event_freq=Fraction(sum(s.bad for s in summaries), trials),
        per_trial=tuple(summaries),
    )
    gap_summary = ((sum(gaps, Fraction(0)) / len(gaps), min(gaps), max(gaps)) if gaps
                   else (None, None, None))
    return agg, (*gap_summary, tuple(note_counts.items()))
