import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from rollclust.harness import GenSpec, PlantedPartition, UniformRational, generate
from rollclust.reduction import (
    ReductionConfig,
    TrialAggregate,
    TrialSummary,
    aggregate_to_dict,
    reduce_and_solve,
    run_trials,
)
from rollclust.roll import (
    build_roll,
    duplicate_cells,
    duplication_clustering,
    induced_clustering,
    valid_roll_size,
)
from rollclust.rounding import RoundingParams, deviation_stats, round_graph
from rollclust.solvers import (
    SolveResult,
    SolverKind,
    SolverSpec,
    budget_note,
    run_solver,
    solve_exact,
    solve_pivot,
)
from rollclust.streams import derive_seed

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
    """reduce_and_solve on g's roll at cfg.t, with g's exact optimum as the reference."""
    rolled = build_roll(g, cfg.t)
    return reduce_and_solve(rolled, cfg, solve_exact(g, cfg.objective).clustering)


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
            assert rep.best.value == opt.value
            assert all(clustering_value(g, c, objective) == opt.value for c in candidates)
            assert clustering_value(g, rep.best.clustering, objective) == rep.best.value


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
    assert rep.best == SolveResult(candidates[values.index(max(values))], max(values))


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
    assert rep.best.value >= solve_exact(g, MIN).value
    values = [clustering_value(g, c, MIN) for c in candidates]
    assert sum(values, Fraction(0)) == clustering_value(rolled.graph, grid, MIN)
    assert rep.best.value == min(values)


def test_reduce_rejects_unnormalized():
    g = SignedGraph(3, {(0, 1): 2})
    # round_graph refuses it: the roll carries the base's weights
    with pytest.raises(ValueError, match="must be normalized"):
        reduce_on_roll(g, identity_config(MAX))


def test_spread_note_emitted():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    cfg = ReductionConfig(
        objective=MAX,
        t=0,
        rounding=RoundingParams(alpha=3, beta=3, seed=0),
        solver=SolverSpec(SolverKind.EXACT),
        epsilon=Fraction(1, 20),
        lambda_ref=Fraction(1),
    )
    rep = reduce_on_roll(g, cfg)
    assert any("alpha+beta" in note for note in rep.notes)


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


def test_trial_notes_are_counted_in_first_seen_order(monkeypatch):
    import rollclust.reduction

    raised = []
    real = rollclust.reduction.reduce_and_solve

    def recording(*args, **kwargs):
        rep = real(*args, **kwargs)
        raised.append(rep.notes)
        return rep

    monkeypatch.setattr(rollclust.reduction, "reduce_and_solve", recording)
    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=1))
    cfg = replace(local_config(budget=6), objective=MAX, rounding=RoundingParams(1, 1, seed=3))
    agg = run_trials(g, cfg, trials=6)
    expected = {}
    for notes in raised:
        for note in notes:
            expected[note] = expected.get(note, 0) + 1
    assert agg.notes == tuple(expected.items())
    # 1 of the 6 trials runs out of moves; every trial skips the stats
    assert dict(agg.notes) == {
        budget_note(6): 1, "deviation stats skipped: lambda_ref is 1": 6,
    }


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
    assert rep.best.value >= solve_exact(g, MIN).value
    assert not any("budget" in note for note in rep.notes)


def test_stats_gating_on_lambda():
    rng = random.Random(31)
    g = pm1_graph(rng, 3)
    rep = reduce_on_roll(g, identity_config(MAX))
    assert rep.stats is None
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
    assert rep2.stats is not None
    # identity rounding leaves no per-edge drift
    assert rep2.stats.s1 == 0 and rep2.stats.s2 == 0 and rep2.stats.gap == 0
    # at alpha = beta = 2 the reference drifts, so s2 shows which lambda
    # reached deviation_stats
    cfg3 = replace(cfg2, rounding=RoundingParams(alpha=2, beta=2, seed=0))
    rep3, rolled, grid, _ = reduce_reading_candidates(g, cfg3)
    outcome = round_graph(rolled.graph, cfg3.rounding)
    ref = duplication_clustering(solve_exact(g, MAX).clustering, rolled.rows)
    assert rep3.stats.s2 != 0
    assert rep3.stats == deviation_stats(outcome, grid, ref, Fraction(6, 5), MAX)


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
    assert all(r == 1 for r in agg.ratios)
    assert not agg.opt_below_one
    assert agg.gap_mean is None  # lambda_ref == 1, no stats
    for i, s in enumerate(agg.per_trial):
        assert s.rounding_seed == derive_seed(0, "trial", i, "round")
        assert s.solver_seed == derive_seed(0, "trial", i, "solve")
        assert not s.bad


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
    s_seed = derive_seed(0, "trial", 1, "solve")
    assert str(info.value).startswith(
        f"trial 1 (rounding seed {r_seed}, solver seed {s_seed}): "
        "solver-reported value disagrees"
    )
    # the named seeds are the ones the failing trial ran under
    assert (calls[1].seed, len(calls)) == (s_seed, 2)


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
    s_seed = derive_seed(0, "trial", 0, "solve")
    message = (f"trial 0 (rounding seed {r_seed}, solver seed {s_seed}): "
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
    assert agg.gap_mean is not None
    assert agg.gap_min <= agg.gap_mean <= agg.gap_max
    gaps = [s.gap for s in agg.per_trial]
    assert min(gaps) == agg.gap_min and max(gaps) == agg.gap_max
    assert agg.gap_mean == sum(gaps, Fraction(0)) / len(gaps)


def test_run_trials_flags_small_optimum():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2)})
    agg = run_trials(g, identity_config(MAX), trials=2)
    assert agg.opt_value == Fraction(1, 2)
    assert agg.opt_below_one


def test_run_trials_zero_optimum_ratios_none():
    g = SignedGraph(3)  # no edges at all
    agg = run_trials(g, identity_config(MAX), trials=2)
    assert agg.opt_value == 0
    assert all(r is None for r in agg.ratios)
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
    assert agg.gap_mean is not None  # lambda_ref > 1: every trial has a gap
    d = json.loads(json.dumps(aggregate_to_dict(agg)))

    def back(text):
        return None if text is None else Fraction(text)

    assert [back(d["config"][k]) for k in ("alpha", "beta", "epsilon", "lambda")] == [
        cfg.rounding.alpha, cfg.rounding.beta, cfg.epsilon, cfg.lambda_ref
    ]
    assert back(d["opt_value"]) == agg.opt_value
    assert back(d["bad_event_freq"]) == agg.bad_event_freq
    assert [back(r) for r in d["ratios"]] == list(agg.ratios)
    assert [back(d[k]) for k in ("gap_mean", "gap_min", "gap_max")] == [
        agg.gap_mean, agg.gap_min, agg.gap_max
    ]
    assert len(d["per_trial"]) == len(agg.per_trial)
    for row, s in zip(d["per_trial"], agg.per_trial):
        assert (back(row["best_value"]), back(row["ratio"]), back(row["gap"])) == (
            s.best_value, s.ratio, s.gap
        )


# The paper's concentration claim as a seeded table: a UniformRational
# (density 1) base from generator seed 3, MaxAgree by local search, lambda 1,
# epsilon 1/20, rounding and solver seed 1, 20 trials. Each cell is
# (t, bad-event frequency, smallest best/OPT ratio). The README shows the
# loop. At n=5 the ratio stays at 209/214 (0.977) for t = 1 and 2 with no
# bad event: the local search falls short of OPT there, not the rounding.
CONCENTRATION = [
    (4, 4, [(0, Fraction(19, 20), Fraction(13, 22)), (1, 0, 1), (2, 0, 1)]),
    (4, 8, [(0, Fraction(19, 20), Fraction(13, 22)), (1, Fraction(1, 5), Fraction(19, 22)),
            (2, 0, 1)]),
    (5, 4, [(0, Fraction(3, 4), Fraction(60, 107)), (1, 0, Fraction(209, 214)),
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
        assert (agg.bad_event_freq, min(agg.ratios)) == (freq, worst), t


# The trial loop as it ran before the roll was shared across trials: a fresh
# roll per trial, candidates read through freshly computed duplicate cells,
# and every candidate value summed as a Fraction. A test oracle for
# run_trials.


def fraction_trial(g, cfg, u_ref):
    """(best candidate value, gap or None) of one trial."""
    rolled = build_roll(g, cfg.t)
    rows = rolled.rows
    outcome = round_graph(rolled.graph, cfg.rounding)
    grid = run_solver(outcome.after, cfg.objective, cfg.solver).clustering
    candidates = [
        Clustering(grid.labels[i] for i in duplicate_cells(d, rows, g.n))
        for d in rolled.active
    ]
    values = [clustering_value(g, c, cfg.objective) for c in candidates]
    assert sum(values, Fraction(0)) == clustering_value(rolled.graph, grid, cfg.objective)
    best = (max if cfg.objective is MAX else min)(values)
    if cfg.lambda_ref == 1:
        return best, None
    u_n = duplication_clustering(u_ref, rows)
    return best, deviation_stats(outcome, grid, u_n, cfg.lambda_ref, cfg.objective).gap


def fraction_run_trials(g, cfg, trials):
    opt = solve_exact(g, cfg.objective)
    target = cfg.lambda_ref + cfg.epsilon
    summaries = []
    for i in range(trials):
        r_seed = derive_seed(cfg.rounding.seed, "trial", i, "round")
        s_seed = derive_seed(cfg.solver.seed, "trial", i, "solve")
        cfg_i = replace(
            cfg,
            rounding=replace(cfg.rounding, seed=r_seed),
            solver=replace(cfg.solver, seed=s_seed),
        )
        best, gap = fraction_trial(g, cfg_i, opt.clustering)
        if cfg.objective is MAX:
            bad = best < opt.value / target
        else:
            bad = best > target * opt.value
        ratio = None if opt.value == 0 else best / opt.value
        summaries.append(TrialSummary(r_seed, s_seed, best, ratio, bad, gap))
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
        notes=(),
    )


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
        assert aggregate_to_dict(run_trials(g, cfg, 2)) == aggregate_to_dict(
            fraction_run_trials(g, cfg, 2)
        )


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


def test_reduce_and_solve_rejects_a_roll_at_another_t():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1, (0, 2): Fraction(1, 2)})
    cfg = identity_config(MAX, t=0)
    ref = solve_exact(g, MAX).clustering
    with pytest.raises(ValueError, match="not its base's roll at t=0"):
        reduce_and_solve(build_roll(g, 1), cfg, ref)
    # an equal base rolled separately gives the same report
    same = SignedGraph(3, {(1, 0): 1, (2, 1): -1, (2, 0): Fraction(2, 4)})
    assert reduce_and_solve(build_roll(same, 0), cfg, ref) == reduce_on_roll(g, cfg)


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("lam", [Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("objective", [MAX, MIN])
def test_each_trial_replays_from_its_seeds(objective, lam, t):
    # the seeds a failing trial's error names are enough to rerun it alone
    g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=4))
    cfg = ReductionConfig(
        objective=objective,
        t=t,
        rounding=RoundingParams(alpha=2, beta=2, seed=8),
        solver=SolverSpec(SolverKind.LOCAL_SEARCH, seed=3),
        epsilon=Fraction(1, 20),
        lambda_ref=lam,
    )
    agg = run_trials(g, cfg, trials=2)
    for i, trial in enumerate(agg.per_trial):
        # the replay snippet in the README, as written
        r_seed, s_seed = agg.per_trial[i].rounding_seed, agg.per_trial[i].solver_seed
        cfg_i = replace(cfg, rounding=replace(cfg.rounding, seed=r_seed), solver=replace(cfg.solver, seed=s_seed))
        rolled = build_roll(g, cfg.t)
        rep = reduce_and_solve(rolled, cfg_i, solve_exact(g, cfg.objective).clustering)
        assert rep.best.value == trial.best_value
        assert (rep.stats.gap if rep.stats is not None else None) == trial.gap
        assert (trial.gap is None) == (lam == 1)
