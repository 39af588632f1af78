import json
import math
import random
from array import array
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from rollclust.harness import GenSpec, PlantedPartition, UniformRational, generate
from rollclust.jsonutil import opt_frac_to_str
from rollclust.reduction import (
    ReductionConfig,
    aggregate_to_dict,
    reduce_and_solve,
    run_trials,
)
from rollclust.roll import (
    build_roll,
    duplication_clustering,
    induced_clustering,
    valid_roll_size,
)
from rollclust.rounding import RoundingParams, round_graph
from rollclust.solvers import (
    SolverKind,
    SolverSpec,
    solve_exact,
    solve_pivot,
)
from rollclust.streams import derive_seed, make_rng

from invariants import oracle_deviation_stats, oracle_run_trials, total_abs_weight

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def pm1_graph(rng, n, density=1.0):
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                weights[(u, v)] = Fraction(rng.choice((-1, 1)))
    return SignedGraph(n, weights)


def identity_config(objective, t=0, seed=0):
    return ReductionConfig(
        objective=objective,
        t=t,
        rounding=RoundingParams(alpha=1, beta=1, seed=seed),
        solver=SolverSpec(SolverKind.EXACT),
        epsilon=Fraction(1, 20),
        lambda_ref=Fraction(1),
    )


def reduce_on_roll(g, cfg):
    """reduce_and_solve on g's roll at cfg.t against g's exact optimum,
    rounding with the config's own seed."""
    rolled = build_roll(g, cfg.t)
    return reduce_and_solve(rolled, cfg, solve_exact(g, cfg.objective), cfg.rounding.seed)


def reduce_reading_candidates(g, cfg):
    """reduce_on_roll, plus what its induced_clustering calls read and
    returned: (report, roll, grid clustering, candidates), the candidates
    in active-duplicate order."""
    import rollclust.reduction

    real = rollclust.reduction.induced_clustering
    calls = []

    def recording(r, c, d):
        calls.append((r, c, d, real(r, c, d)))
        return calls[-1][3]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rollclust.reduction, "induced_clustering", recording)
        rep = reduce_on_roll(g, cfg)
    rolled, grid = calls[0][0], calls[0][1]
    assert all(r is rolled and c is grid for r, c, _, _ in calls)
    assert tuple(d for _, _, d, _ in calls) == tuple(rolled.active)
    return rep, rolled, grid, [cand for *_, cand in calls]


def test_duplication_value_identity():
    rng = random.Random(11)
    for n, t in ((3, 0), (3, 1), (4, 0), (5, 0)):
        rows = valid_roll_size(n, t)
        g = pm1_graph(rng, n, density=0.9)
        rolled = build_roll(g, t)
        copies = Fraction(rows * rows, n)
        for _ in range(5):
            u = Clustering([rng.randrange(n) for _ in range(n)])
            lifted = duplication_clustering(u, rows)
            for objective in (MAX, MIN):
                assert clustering_value(rolled.graph, lifted, objective) == copies * clustering_value(g, u, objective)


def test_duplication_then_induce_is_identity():
    rng = random.Random(23)
    for n, t in ((3, 0), (4, 0), (3, 1)):
        rows = valid_roll_size(n, t)
        g = pm1_graph(rng, n)
        rolled = build_roll(g, t)
        for _ in range(5):
            u = Clustering([rng.randrange(n) for _ in range(n)])
            lifted = duplication_clustering(u, rows)
            for d in rolled.active:
                assert induced_clustering(rolled, lifted, d) == u


def test_identity_regime_recovers_optimum():
    # weights in {-1, 0, 1} with alpha = beta = 1: rounding changes nothing,
    # so every candidate scores OPT and the report must say so
    rng = random.Random(5)
    for objective in (MAX, MIN):
        for trial in range(10):
            g = pm1_graph(rng, 3, density=0.8)
            opt = solve_exact(g, objective)
            cfg = identity_config(objective, seed=trial)
            rep, _, _, candidates = reduce_reading_candidates(g, cfg)
            assert rep.best_value == opt.value
            assert all(clustering_value(g, c, objective) == opt.value for c in candidates)


def test_report_accounting_fields():
    rng = random.Random(77)
    g = pm1_graph(rng, 3)
    cfg = identity_config(MAX)
    rep, rolled, grid, candidates = reduce_reading_candidates(g, cfg)
    rows = valid_roll_size(3, 0)
    assert len(candidates) == rows * rows // 3
    values = [clustering_value(g, c, MAX) for c in candidates]
    pre = clustering_value(rolled.graph, grid, MAX)
    assert sum(values, Fraction(0)) == pre
    rounded = round_graph(rolled.graph, cfg.rounding).after
    assert clustering_value(rounded, grid, MAX) == pre  # identity rounding
    assert rep.best_value == max(values)


def test_reduce_with_real_rounding_and_local_search():
    rng = random.Random(13)
    weights = {}
    for u in range(3):
        for v in range(u + 1, 3):
            weights[(u, v)] = Fraction(rng.randint(-3, 3), 4)
    g = SignedGraph(3, {k: w for k, w in weights.items() if w})
    cfg = ReductionConfig(
        objective=MIN,
        t=1,
        rounding=RoundingParams(alpha=Fraction(3, 2), beta=Fraction(3, 2), seed=9),
        solver=SolverSpec(SolverKind.LOCAL_SEARCH, seed=2, budget=400),
        epsilon=Fraction(1, 10),
        lambda_ref=Fraction(1),
    )
    rep, rolled, grid, candidates = reduce_reading_candidates(g, cfg)
    # accounting ran without raising; the best candidate cannot beat OPT
    assert rep.best_value >= solve_exact(g, MIN).value
    values = [clustering_value(g, c, MIN) for c in candidates]
    assert sum(values, Fraction(0)) == clustering_value(rolled.graph, grid, MIN)
    assert rep.best_value == min(values)


def test_reduce_rejects_unnormalized():
    g = SignedGraph(3, {(0, 1): 2})
    # round_graph refuses it: the roll carries the base's weights
    with pytest.raises(ValueError, match="must be normalized"):
        reduce_on_roll(g, identity_config(MAX))


def test_spread_note_emitted():
    # the note compares ((alpha+beta)/max|w|)^2 with rows*n = 9 on the
    # 9-node t=0 grid: a third of the weights at alpha = beta = 1 reads as
    # 6^2, alpha+beta = 3 at max|w| = 1 sits on the boundary, and an
    # edgeless base raises none
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    third = SignedGraph(3, {(0, 1): Fraction(1, 3), (1, 2): Fraction(-1, 3)})
    cases = [(g, 3, 3, True), (g, 1, 1, False), (third, 1, 1, True),
             (g, Fraction(5, 4), Fraction(7, 4), False), (SignedGraph(3), 3, 3, False)]
    for base, alpha, beta, noted in cases:
        cfg = replace(identity_config(MAX), rounding=RoundingParams(alpha, beta, seed=0))
        notes = reduce_on_roll(base, cfg).notes
        assert ("(alpha+beta)/max|w| exceeds sqrt(rows*n); tail bounds are weak at this size"
                in notes) == noted, (base, alpha, beta)


def local_config(budget=1000):
    return ReductionConfig(
        objective=MIN,
        t=1,
        rounding=RoundingParams(alpha=1, beta=1, seed=4),
        solver=SolverSpec(SolverKind.LOCAL_SEARCH, seed=1, budget=budget),
        epsilon=Fraction(1, 20),
        lambda_ref=Fraction(1),
    )


def test_budget_cut_off_note():
    # mostly negative weight: the grid starts from singletons and merges the
    # ends of its 27 positive edges one move at a time
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1, (0, 2): -1})
    cut = reduce_on_roll(g, local_config(budget=1))
    assert any("budget of 1 moves" in note for note in cut.notes)
    full = reduce_on_roll(g, local_config())
    assert not any("budget" in note for note in full.notes)


@pytest.mark.parametrize(
    "kind, objective",
    [(SolverKind.PIVOT, MIN), (SolverKind.PIVOT, MAX), (SolverKind.TRIVIAL_MAX, MIN)],
)
def test_config_rejects_solvers_that_cannot_run_on_the_grid(kind, objective):
    with pytest.raises(ValueError):
        replace(identity_config(objective), solver=SolverSpec(kind))


def test_pivot_cannot_run_on_a_rolled_grid():
    # why the config rejects pivot: same-column pairs are never bones, so
    # even a complete +-1 base rolls into an incomplete grid
    g = pm1_graph(random.Random(3), 3)
    with pytest.raises(ValueError):
        solve_pivot(build_roll(g, 0).graph)


def test_local_pipeline_on_216_node_grid():
    # n=6, t=1: 36 rows of 6 columns and 216 active copies of a base whose
    # MinDisagree optimum is 2; reduce_and_solve checks its accounting
    # identities and the solver's running value on the way
    g = generate(GenSpec(n=6, model=PlantedPartition(clusters=2, flip_prob=0.1), seed=2))
    rep, rolled, grid, candidates = reduce_reading_candidates(g, local_config())
    assert len(grid.labels) == 216
    assert len(candidates) == 216
    values = [clustering_value(g, c, MIN) for c in candidates]
    assert sum(values, Fraction(0)) == clustering_value(rolled.graph, grid, MIN)
    assert rep.best_value >= solve_exact(g, MIN).value
    assert not any("budget" in note for note in rep.notes)


def test_stats_gating_on_lambda():
    rng = random.Random(31)
    g = pm1_graph(rng, 3)
    rep = reduce_on_roll(g, identity_config(MAX))
    assert rep.gap is None
    assert any("lambda_ref" in note for note in rep.notes)

    cfg2 = ReductionConfig(
        objective=MAX,
        t=0,
        rounding=RoundingParams(alpha=1, beta=1, seed=0),
        solver=SolverSpec(SolverKind.EXACT),
        epsilon=Fraction(1, 20),
        lambda_ref=Fraction(6, 5),
    )
    rep2 = reduce_on_roll(g, cfg2)
    # identity rounding leaves no per-edge drift
    assert rep2.gap == 0
    # at alpha = beta = 2 the reference drifts, so the gap shows which
    # lambda reached deviation_stats
    cfg3 = replace(cfg2, rounding=RoundingParams(alpha=2, beta=2, seed=0))
    rep3, rolled, grid, _ = reduce_reading_candidates(g, cfg3)
    outcome = round_graph(rolled.graph, cfg3.rounding)
    ref = duplication_clustering(solve_exact(g, MAX).clustering, rolled.rows)
    s1, s2 = oracle_deviation_stats(outcome, grid, ref, Fraction(6, 5), MAX)
    assert s2 != 0
    assert rep3.gap == s1 - s2


def test_config_validation():
    rp = RoundingParams(alpha=1, beta=1)
    spec = SolverSpec(SolverKind.EXACT)
    with pytest.raises(ValueError):
        ReductionConfig(MAX, 0, rp, spec, epsilon=0, lambda_ref=1)
    with pytest.raises(ValueError):
        ReductionConfig(MAX, 0, rp, spec, epsilon=Fraction(1, 2), lambda_ref=Fraction(1, 2))
    with pytest.raises(ValueError):
        ReductionConfig(MAX, -1, rp, spec, epsilon=Fraction(1, 2), lambda_ref=1)


@pytest.mark.parametrize("field", ["epsilon", "lambda_ref"])
def test_config_refuses_float_epsilon_and_lambda(field):
    rp = RoundingParams(alpha=1, beta=1)
    spec = SolverSpec(SolverKind.EXACT)
    values = {"epsilon": Fraction(1, 20), "lambda_ref": Fraction(3, 2)}
    assert getattr(ReductionConfig(MAX, 0, rp, spec, **values), field) == values[field]
    values[field] = 1.5
    with pytest.raises(TypeError, match="not the float 1.5"):
        ReductionConfig(MAX, 0, rp, spec, **values)


def test_run_trials_identity_regime():
    rng = random.Random(2)
    g = pm1_graph(rng, 3)
    agg = run_trials(g, identity_config(MAX), trials=8)
    assert agg.trials == 8
    assert agg.opt_value == solve_exact(g, MAX).value
    assert agg.bad_event_freq == 0
    assert all(s.ratio == 1 for s in agg.per_trial)
    report = aggregate_to_dict(agg)
    assert not report["opt_below_one"]
    # lambda_ref == 1, no stats
    assert [report[k] for k in ("gap_mean", "gap_min", "gap_max")] == [None] * 3
    for i, s in enumerate(agg.per_trial):
        assert s.rounding_seed == derive_seed(0, "trial", i, "round")
        assert not s.bad


def scaled_base(g, k):
    return SignedGraph(g.n, {(u, v): w * k for u, v, w in g.edges()})


# (solver, objective, t) for the pipeline-level metamorphic relations; the
# exact solver takes only the 9-node grid of a 3-node base at t = 0
PIPELINE = [
    (kind, objective, t)
    for kind, objective in [(SolverKind.LOCAL_SEARCH, MAX), (SolverKind.LOCAL_SEARCH, MIN),
                            (SolverKind.TRIVIAL_MAX, MAX), (SolverKind.EXACT, MAX),
                            (SolverKind.EXACT, MIN)]
    for t in (0, 1, 2)
    if kind is not SolverKind.EXACT or t == 0
]


def pipeline_bases(kind):
    sizes = (3,) if kind is SolverKind.EXACT else (3, 4, 5)
    return [generate(GenSpec(n=n, model=UniformRational(density=0.9), seed=seed))
            for seed, n in enumerate(sizes)]


@pytest.mark.parametrize("kind, objective, t", PIPELINE)
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2)])
def test_run_trials_keeps_its_verdicts_when_weights_and_magnitudes_scale_together(
    kind, objective, t, lam
):
    # rounding reads alpha and beta only against |w|, so a base with alpha
    # = 9/2, beta = 6 draws what its third does with alpha = 3/2, beta = 2,
    # and every value in the report is three times the third's
    for seed, g in enumerate(pipeline_bases(kind)):
        cfg = ReductionConfig(objective, t, RoundingParams(Fraction(3, 2), 2, seed=seed),
                              SolverSpec(kind, seed=seed + 5, budget=1000), Fraction(1, 20), lam)
        small = run_trials(scaled_base(g, Fraction(1, 3)), cfg, 2)
        big = run_trials(g, replace(cfg, rounding=RoundingParams(Fraction(9, 2), 6, seed=seed)), 2)
        assert big.opt_value == 3 * small.opt_value
        assert aggregate_to_dict(big)["ratios"] == aggregate_to_dict(small)["ratios"]
        assert [s.notes for s in big.per_trial] == [s.notes for s in small.per_trial]
        for a, b in zip(small.per_trial, big.per_trial):
            assert b.bad == a.bad and b.best_value == 3 * a.best_value
            assert b.gap == (None if lam == 1 else 3 * a.gap)


@pytest.mark.parametrize("kind, t", [(kind, t) for kind, objective, t in PIPELINE if objective is MIN])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("budget", [1000, 3])
def test_max_agree_and_min_disagree_trials_add_up_to_the_total_weight(kind, t, lam, budget):
    # both objectives solve the same rounded grid to the same clustering, so
    # their best candidates are one candidate, whose values sum to the total
    for seed, g in enumerate(pipeline_bases(kind)):
        total = total_abs_weight(g)
        cfg = ReductionConfig(MAX, t, RoundingParams(Fraction(5, 4), Fraction(3, 2), seed=seed),
                              SolverSpec(kind, seed=seed + 5, budget=budget), Fraction(1, 20), lam)
        hi, lo = run_trials(g, cfg, 3), run_trials(g, replace(cfg, objective=MIN), 3)
        assert hi.opt_value + lo.opt_value == total
        assert [a.best_value + b.best_value for a, b in zip(hi.per_trial, lo.per_trial)] == [total] * 3


@pytest.mark.parametrize("kind, objective, t", PIPELINE)
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2)])
def test_a_reduction_does_not_depend_on_the_solver_seed(kind, objective, t, lam):
    # rounding is the only random step: no grid solver reads the seed
    for seed, g in enumerate(pipeline_bases(kind)):
        cfg = ReductionConfig(objective, t, RoundingParams(1, Fraction(3, 2), seed=seed),
                              SolverSpec(kind, seed=3), Fraction(1, 20), lam)
        other = replace(cfg, solver=SolverSpec(kind, seed=4))
        assert aggregate_to_dict(run_trials(g, cfg, 2)) == aggregate_to_dict(run_trials(g, other, 2))


def test_accounting_failure_names_trial_and_seeds(monkeypatch):
    import rollclust.reduction

    real = rollclust.reduction.run_solver
    calls = []

    def misreports_second_call(g, objective, spec):
        res = real(g, objective, spec)
        calls.append(spec)
        return replace(res, value=res.value + 1) if len(calls) == 2 else res

    monkeypatch.setattr(rollclust.reduction, "run_solver", misreports_second_call)
    g = pm1_graph(random.Random(2), 3)
    cfg = identity_config(MAX, seed=9)
    with pytest.raises(RuntimeError) as info:
        run_trials(g, cfg, trials=3)
    r_seed = derive_seed(9, "trial", 1, "round")
    assert str(info.value).startswith(
        f"trial 1 (rounding seed {r_seed}): solver-reported value disagrees"
    )
    # every trial hands the config's solver spec on unchanged
    assert calls == [cfg.solver] * 2


def test_post_rounding_failure_names_trial_and_seeds(monkeypatch):
    # with one pair missing from the grid clustering's pre-rounding
    # contributing set, its rounded weights no longer sum to the
    # post-rounding value
    import rollclust.reduction

    real = rollclust.reduction.contributing_edges

    def drops_a_pair(g, c, objective):
        return sorted(real(g, c, objective))[1:]

    monkeypatch.setattr(rollclust.reduction, "contributing_edges", drops_a_pair)
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1, (0, 2): 1})
    r_seed = derive_seed(9, "trial", 0, "round")
    message = (f"trial 0 (rounding seed {r_seed}): "
               "post-rounding value disagrees with the contributing-set sum")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        run_trials(g, identity_config(MAX, seed=9), trials=2)


def test_run_trials_gap_stats_present():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(-1, 2), (0, 2): 1})
    cfg = ReductionConfig(
        objective=MAX,
        t=0,
        rounding=RoundingParams(alpha=1, beta=1, seed=3),
        solver=SolverSpec(SolverKind.EXACT),
        epsilon=Fraction(1, 20),
        lambda_ref=Fraction(6, 5),
    )
    agg = run_trials(g, cfg, trials=12)
    gaps = [s.gap for s in agg.per_trial]
    assert None not in gaps and len(set(gaps)) > 1
    report = aggregate_to_dict(agg)
    mean, low, high = (Fraction(report[k]) for k in ("gap_mean", "gap_min", "gap_max"))
    assert low <= mean <= high
    assert (low, high) == (min(gaps), max(gaps))
    assert mean == sum(gaps, Fraction(0)) / len(gaps)


def test_run_trials_flags_small_optimum():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2)})
    agg = run_trials(g, identity_config(MAX), trials=2)
    assert agg.opt_value == Fraction(1, 2)
    assert aggregate_to_dict(agg)["opt_below_one"] is True


def test_run_trials_zero_optimum_ratios_none():
    g = SignedGraph(3)  # no edges at all
    agg = run_trials(g, identity_config(MAX), trials=2)
    assert agg.opt_value == 0
    assert all(s.ratio is None for s in agg.per_trial)
    assert aggregate_to_dict(agg)["ratios"] == [None, None]
    assert agg.bad_event_freq == 0


def test_run_trials_rejects_bad_count():
    g = SignedGraph(3, {(0, 1): 1})
    with pytest.raises(ValueError):
        run_trials(g, identity_config(MAX), trials=0)


def test_report_rationals_parse_back_exactly():
    # reports carry rationals as exact "p/q" strings that Fraction reads back
    rng = random.Random(6)
    g = pm1_graph(rng, 3)
    cfg = ReductionConfig(
        objective=MAX,
        t=0,
        rounding=RoundingParams(alpha=Fraction(5, 4), beta=2, seed=4),
        solver=SolverSpec(SolverKind.LOCAL_SEARCH, seed=8, budget=250),
        epsilon=Fraction(1, 20),
        lambda_ref=Fraction(6, 5),
    )
    agg = run_trials(g, cfg, trials=5)
    gaps = [s.gap for s in agg.per_trial]
    assert None not in gaps  # lambda_ref > 1: every trial has a gap
    d = json.loads(json.dumps(aggregate_to_dict(agg)))

    def back(text):
        return None if text is None else Fraction(text)

    assert [back(d["config"][k]) for k in ("alpha", "beta", "epsilon", "lambda")] == [
        cfg.rounding.alpha, cfg.rounding.beta, cfg.epsilon, cfg.lambda_ref
    ]
    assert back(d["opt_value"]) == agg.opt_value
    assert back(d["bad_event_freq"]) == agg.bad_event_freq
    assert [back(r) for r in d["ratios"]] == [s.ratio for s in agg.per_trial]
    assert [back(d[k]) for k in ("gap_mean", "gap_min", "gap_max")] == [
        sum(gaps, Fraction(0)) / len(gaps), min(gaps), max(gaps)
    ]
    assert len(d["per_trial"]) == len(agg.per_trial)
    for row, s in zip(d["per_trial"], agg.per_trial):
        assert (back(row["best_value"]), back(row["ratio"]), back(row["gap"])) == (
            s.best_value, s.ratio, s.gap
        )


# The paper's concentration claim as a seeded table: a UniformRational
# (density 1) base from generator seed 3, MaxAgree by local search, lambda 1,
# epsilon 1/20, rounding seed 1, 20 trials. Each cell is
# (t, bad-event frequency, smallest best/OPT ratio). The README shows the
# loop. At n=5 the ratio stays at 209/214 (0.977) for t = 1 and 2 with no
# bad event: the local search falls short of OPT there, not the rounding.
CONCENTRATION = [
    (4, 4, [(0, Fraction(19, 20), Fraction(13, 22)), (1, Fraction(1, 20), Fraction(10, 11)),
            (2, 0, 1)]),
    (4, 8, [(0, Fraction(19, 20), Fraction(13, 22)), (1, Fraction(1, 10), Fraction(19, 22)),
            (2, 0, 1)]),
    (5, 4, [(0, Fraction(13, 20), Fraction(77, 107)), (1, 0, Fraction(209, 214)),
            (2, 0, Fraction(209, 214)), (3, 0, 1)]),
]


@pytest.mark.parametrize("n, spread, cells", CONCENTRATION)
def test_bad_events_thin_out_as_the_roll_grows(n, spread, cells):
    g = generate(GenSpec(n=n, model=UniformRational(density=1.0), seed=3))
    for t, freq, worst in cells:
        cfg = ReductionConfig(
            objective=MAX,
            t=t,
            rounding=RoundingParams(alpha=spread, beta=spread, seed=1),
            solver=SolverSpec(SolverKind.LOCAL_SEARCH, seed=1),
            epsilon=Fraction(1, 20),
            lambda_ref=1,
        )
        agg = run_trials(g, cfg, trials=20)
        assert (agg.bad_event_freq, min(s.ratio for s in agg.per_trial)) == (freq, worst), t


def assert_matches_the_oracle(g, cfg, trials):
    agg = run_trials(g, cfg, trials)
    expected, (*gap_summary, note_counts) = oracle_run_trials(g, cfg, trials)
    # the whole aggregate, every row's notes too
    assert agg == expected
    # and what the report and the CLI derive from the rows
    report = aggregate_to_dict(agg)
    assert [report[k] for k in ("gap_mean", "gap_min", "gap_max")] == [
        opt_frac_to_str(v) for v in gap_summary
    ]
    assert tuple(Counter(note for s in agg.per_trial for note in s.notes).items()) == note_counts
    return agg


@pytest.mark.parametrize("objective, kind", [
    (MAX, SolverKind.LOCAL_SEARCH), (MIN, SolverKind.LOCAL_SEARCH), (MAX, SolverKind.TRIVIAL_MAX),
])
@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2)])
def test_run_trials_matches_the_fraction_oracle(objective, kind, t, lam):
    for seed in range(3):
        g = generate(GenSpec(n=3 + seed % 2, model=UniformRational(density=0.9), seed=seed))
        cfg = ReductionConfig(
            objective=objective,
            t=t,
            rounding=RoundingParams(alpha=1, beta=Fraction(3, 2), seed=seed),
            solver=SolverSpec(kind, seed=seed + 10, budget=1000),
            epsilon=Fraction(1, 20),
            lambda_ref=lam,
        )
        assert_matches_the_oracle(g, cfg, 2)


def test_run_trials_matches_the_oracle_where_the_run_is_cut_short_or_draws_again(monkeypatch):
    # the exact solver on the 9-node t=0 grid, a local search stopped at its
    # budget, fractional alpha != beta, and a rounding whose words all tie,
    # so every fractional edge draws on its tie stream
    exact = SolverSpec(SolverKind.EXACT)
    cut = SolverSpec(SolverKind.LOCAL_SEARCH, seed=5, budget=2)
    spreads = (RoundingParams(alpha=1, beta=1, seed=6),
               RoundingParams(alpha=Fraction(5, 4), beta=Fraction(7, 4), seed=6))
    cases = [(3, 0, exact), (3, 1, cut), (4, 1, cut), (4, 0, SolverSpec(SolverKind.LOCAL_SEARCH, seed=5))]
    budget_cuts = 0
    for objective in (MAX, MIN):
        for lam in (Fraction(1), Fraction(3, 2)):
            for seed, (n, t, spec) in enumerate(cases):
                g = generate(GenSpec(n=n, model=UniformRational(density=0.9), seed=seed))
                for rounding in spreads:
                    cfg = ReductionConfig(objective, t, rounding, spec, Fraction(1, 20), lam)
                    agg = assert_matches_the_oracle(g, cfg, 3)
                    budget_cuts += any("budget" in note for s in agg.per_trial for note in s.notes)
    assert budget_cuts > 0
    import rollclust.rounding

    ties = []

    def counting_make_rng(root, *parts):
        ties.append(parts)
        return make_rng(root, *parts)

    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=4))
    grid = build_roll(g, 1).graph
    # each pair's word is its own T = floor(p * 2**64): every p < 1 pair ties
    alpha, beta = spreads[1].alpha, spreads[1].beta
    words = array("Q", [math.floor(abs(w) / (beta if w > 0 else alpha) * 2**64) for _, _, w in grid.edges()])
    monkeypatch.setattr(rollclust.rounding, "uniform_words", lambda count, root, *parts: words)
    monkeypatch.setattr(rollclust.rounding, "make_rng", counting_make_rng)
    for objective in (MAX, MIN):
        cfg = ReductionConfig(objective, 1, spreads[1], SolverSpec(SolverKind.LOCAL_SEARCH, seed=5),
                              Fraction(1, 20), Fraction(3, 2))
        assert_matches_the_oracle(g, cfg, 2)
    # one tie draw per pair, per rounding: two trials on each side, both objectives
    assert len(ties) == 8 * grid.edge_count and all(parts[-1] == "tie" for parts in ties)


@pytest.mark.parametrize("objective", [MAX, MIN])
def test_a_best_value_exactly_at_the_target_is_not_a_bad_event(objective):
    # lambda is picked so that one trial's own best sits on the target:
    # best = OPT/(lambda+eps) under MaxAgree (trivial solver), (lambda+eps)*OPT
    # under MinDisagree (local search). The bad event is strict, so the
    # trial is not bad there, and it is one step of lambda lower, where
    # the target moves past best
    kind = SolverKind.TRIVIAL_MAX if objective is MAX else SolverKind.LOCAL_SEARCH
    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=1))
    cfg = ReductionConfig(objective, 0, RoundingParams(alpha=2, beta=2, seed=1), SolverSpec(kind),
                          Fraction(1, 20), Fraction(3, 2))
    rolled, opt = build_roll(g, 0), solve_exact(g, objective)
    first = reduce_and_solve(rolled, cfg, opt, 1)
    best = first.best_value
    on = (opt.value / best if objective is MAX else best / opt.value) - cfg.epsilon
    step = Fraction(1, 10**9)
    assert on - step >= 1  # a ReductionConfig needs lambda_ref >= 1
    rows = [reduce_and_solve(rolled, replace(cfg, lambda_ref=lam), opt, 1) for lam in (on, on - step)]
    assert [row.bad for row in rows] == [False, True]
    # lambda moves only the gap and the verdict: best stays put
    assert all(replace(row, gap=None, bad=None) == replace(first, gap=None, bad=None) for row in rows)


@pytest.mark.parametrize("lam, reference_sets", [(Fraction(3, 2), 1), (Fraction(1), 0)])
def test_a_trial_builds_the_grid_clusterings_contributing_set_once(monkeypatch, lam, reference_sets):
    # reduce_and_solve builds the grid clustering's set and hands its sums
    # to deviation_stats, which builds only the reference's; the candidates
    # are read through one induced_clustering call per active copy
    import rollclust.reduction
    import rollclust.rounding

    sets = {rollclust.reduction: [], rollclust.rounding: []}
    for module, seen in sets.items():
        def counting(g, c, objective, real=module.contributing_edges, seen=seen):
            seen.append(c)
            return real(g, c, objective)

        monkeypatch.setattr(module, "contributing_edges", counting)
    grids = []
    real_induced = rollclust.reduction.induced_clustering

    def counting_induced(r, c, d):
        grids.append(c)
        return real_induced(r, c, d)

    monkeypatch.setattr(rollclust.reduction, "induced_clustering", counting_induced)
    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=2))
    cfg = replace(local_config(), objective=MAX, lambda_ref=lam)
    trials = 4
    agg = run_trials(g, cfg, trials)
    copies = len(build_roll(g, 1).active)
    assert copies == 27 and len(grids) == trials * copies
    # each trial reads all its copies from its one grid clustering
    per_trial = [grids[i * copies] for i in range(trials)]
    assert all(c is per_trial[i // copies] for i, c in enumerate(grids))
    assert sets[rollclust.reduction] == per_trial
    reference = duplication_clustering(agg.opt_clustering, valid_roll_size(3, 1))
    assert sets[rollclust.rounding] == [reference] * (trials * reference_sets)


@pytest.mark.parametrize("trials", [1, 2, 5])
def test_run_trials_rolls_the_base_once(monkeypatch, trials):
    import rollclust.reduction

    calls = []
    real = rollclust.reduction.build_roll

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rollclust.reduction, "build_roll", counting)
    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=2))
    cfg = replace(local_config(), objective=MAX, lambda_ref=Fraction(3, 2))
    assert run_trials(g, cfg, trials).trials == trials
    assert calls == [(g, 1)]


def test_run_trials_rejects_an_unnormalized_base_before_rolling(monkeypatch):
    import rollclust.reduction

    def no_roll(*args):
        raise AssertionError("rolled an unnormalized base")

    monkeypatch.setattr(rollclust.reduction, "build_roll", no_roll)
    for n in (2, 3):
        # a 2-node base also fails the roll size check; normalization comes first
        g = SignedGraph(n, {(0, 1): 2})
        with pytest.raises(ValueError, match="must be normalized"):
            run_trials(g, identity_config(MAX), 2)
    # |w| = 1 exactly, over a scale above 1, is within the bound
    monkeypatch.undo()
    g = SignedGraph(3, {(0, 1): Fraction(-1, 2), (1, 2): 1})
    assert g.max_abs_weight() == g.scale == 2
    assert run_trials(g, identity_config(MAX), 2).trials == 2


def test_reduce_and_solve_refuses_candidates_that_do_not_sum(monkeypatch):
    # the first candidate is read as singletons, so it loses its three
    # positive edges and the candidates sum below the grid's value
    import rollclust.reduction

    real = rollclust.reduction.induced_clustering

    def first_split(r, c, d):
        return Clustering.singletons(r.base.n) if d == r.active[0] else real(r, c, d)

    monkeypatch.setattr(rollclust.reduction, "induced_clustering", first_split)
    g = SignedGraph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    with pytest.raises(RuntimeError, match="candidate values do not sum"):
        reduce_on_roll(g, identity_config(MAX))


@pytest.mark.parametrize("n, t, nodes", [(3, 1, 27), (4, 0, 16)])
def test_run_trials_refuses_a_grid_too_big_for_the_exact_solver(monkeypatch, n, t, nodes):
    import rollclust.reduction

    def no_solving(*args):
        raise AssertionError("solved the base before checking the grid size")

    monkeypatch.setattr(rollclust.reduction, "solve_exact", no_solving)
    g = SignedGraph(n, {(0, 1): 1})
    message = f"exact solver cannot solve the t={t} roll of a {n}-node base: {nodes} nodes, more than 13"
    with pytest.raises(ValueError, match=message):
        run_trials(g, identity_config(MAX, t=t), 2)


def test_run_trials_refuses_a_roll_above_the_node_limit_before_solving(monkeypatch):
    import rollclust.reduction

    def no_solving(*args):
        raise AssertionError("solved the base before sizing its roll")

    monkeypatch.setattr(rollclust.reduction, "solve_exact", no_solving)
    cfg = replace(identity_config(MAX, t=55556), solver=SolverSpec(SolverKind.LOCAL_SEARCH))
    with pytest.raises(ValueError, match="t=55556 rolls 3 nodes into 1000017, above the"):
        run_trials(SignedGraph(3, {(0, 1): 1}), cfg, 2)


def test_reduce_and_solve_rejects_a_roll_at_another_t():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1, (0, 2): Fraction(1, 2)})
    cfg = identity_config(MAX, t=0)
    opt = solve_exact(g, MAX)
    with pytest.raises(ValueError, match="not its base's roll at t=0"):
        reduce_and_solve(build_roll(g, 1), cfg, opt, 0)
    # an equal base rolled separately gives the same row
    same = SignedGraph(3, {(1, 0): 1, (2, 1): -1, (2, 0): Fraction(2, 4)})
    assert reduce_and_solve(build_roll(same, 0), cfg, opt, 0) == reduce_on_roll(g, cfg)


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("objective", [MAX, MIN])
def test_each_trial_replays_from_its_seeds(objective, lam, t):
    # the seed a failing trial's error names is enough to rerun it alone:
    # the README's replay call gives back the trial's whole row, notes,
    # ratio and verdict included (a budget-1 search leaves a note, and the
    # trivial solver falls short of OPT)
    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=4))
    solvers = [SolverSpec(SolverKind.LOCAL_SEARCH, seed=3), SolverSpec(SolverKind.LOCAL_SEARCH, budget=1)]
    if objective is MAX:
        solvers.append(SolverSpec(SolverKind.TRIVIAL_MAX))
    for solver in solvers:
        cfg = ReductionConfig(objective, t, RoundingParams(alpha=2, beta=2, seed=8), solver,
                              Fraction(1, 20), lam)
        agg = run_trials(g, cfg, trials=2)
        for s in agg.per_trial:
            # the replay snippet in the README, as written
            assert reduce_and_solve(build_roll(g, cfg.t), cfg, solve_exact(g, cfg.objective), s.rounding_seed) == s
            assert (s.gap is None) == (lam == 1)
