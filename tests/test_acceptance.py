"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time. Every numeric claim is exact (Fraction) unless the
criterion itself is statistical, in which case the stated tolerance or
bound is enforced."""

import random
import time
from fractions import Fraction

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value, contributing_edges
from rollclust.harness import CompleteSigned, GenSpec, UniformRational, generate
from rollclust.reduction import ReductionConfig, aggregate_to_dict, reduce_and_solve, run_trials
from rollclust.roll import RolledGraph, build_roll, valid_roll_size
from rollclust.rounding import RoundingParams, round_graph
from rollclust.solvers import (
    SolverKind,
    SolverSpec,
    solve_exact,
    solve_exact_reference,
    solve_pivot,
    solve_trivial_max,
)
from rollclust.streams import derive_seed, make_rng

from hoeffding import hoeffding_tail
from invariants import (
    all_duplicates,
    check_edge_disjointness,
    check_isomorphism,
    check_value_decomposition,
    sqrt_upper,
)

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


class Budget:
    def __init__(self, num, name, seconds):
        self.num, self.name, self.seconds = num, name, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.num} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"[{self.num:2d}] {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"[{self.num:2d}] {self.name}: FAIL")
        return False


def test_criterion_01_duplicate_count():
    # the roll keeps the first rows^2/n duplicates of the full family, slope-major
    with Budget(1, "duplicate count formula", 1):
        for n in range(3, 9):
            for t in range(4):
                rows = valid_roll_size(n, t)
                assert rows == n * (1 + t * (n - 1))
                family = all_duplicates(rows, n)
                formula = rows * ((rows - 1) // (n - 1) + 1)
                assert len(family) == formula
                assert (rows - 1) % (n - 1) == 0
                assert len(family) * n > rows * rows
                active = RolledGraph(SignedGraph(n), t).active
                assert active == tuple(family[: rows * rows // n]), (n, t)


def test_criterion_02_bone_partition_and_isomorphism():
    # the active copies partition the rolled edges; that every bone of the
    # untrimmed grid has exactly one owner is checked by
    # test_roll.py::test_bone_partition_exhaustive, on these four grids too
    with Budget(2, "bone partition and per-copy isomorphism", 10):
        for n, t in ((3, 0), (3, 1), (4, 0), (5, 0)):
            rows = valid_roll_size(n, t)
            g = generate(GenSpec(n=n, model=UniformRational(density=1.0), seed=n * 100 + rows))
            r = build_roll(g, t)
            for check in (check_edge_disjointness, check_isomorphism):
                assert check(r) is None


def test_criterion_03_value_decomposition():
    with Budget(3, "grid value equals sum over copies", 30):
        combos = [(n, t) for n in (3, 4, 5) for t in (0, 1)]
        rng = random.Random(303)
        for i in range(100):
            n, t = combos[i % len(combos)]
            rows = valid_roll_size(n, t)
            g = generate(GenSpec(n=n, model=UniformRational(density=0.8), seed=i))
            r = build_roll(g, t)
            k = rng.randint(1, min(8, rows * n))
            c = Clustering([rng.randrange(k) for _ in range(rows * n)])
            assert check_value_decomposition(r, c) is None


def test_criterion_04_rounding_preserves_contributing_sets():
    with Budget(4, "post-rounding value from pre-rounding set", 30):
        rng = random.Random(404)
        spreads = [(1, 1), (1, 2), (Fraction(3, 2), Fraction(3, 2)), (2, 1)]
        for i in range(100):
            n = rng.randint(4, 8)
            g = generate(GenSpec(n=n, model=UniformRational(density=0.7), seed=1000 + i))
            k = rng.randint(1, n)
            c = Clustering([rng.randrange(k) for _ in range(n)])
            alpha, beta = spreads[i % len(spreads)]
            out = round_graph(g, RoundingParams(alpha=alpha, beta=beta, seed=i))
            for objective in (MAX, MIN):
                pre = contributing_edges(out.before, c, objective)
                assert contributing_edges(out.after, c, objective) <= pre
                kept = Fraction(out.after.abs_weight(pre), out.after.scale)
                assert clustering_value(out.after, c, objective) == kept


def round_weight(w, params, rng):
    """One nonzero weight rounded to beta, -alpha or 0; expectation w. Kept
    iff a uniform draw below p's denominator falls under its numerator."""
    p, to = (w / params.beta, params.beta) if w > 0 else (-w / params.alpha, -params.alpha)
    return to if rng.randrange(p.denominator) < p.numerator else Fraction(0)


def test_criterion_05_rounding_unbiasedness():
    with Budget(5, "empirical rounding mean within 4 SE", 10):
        samples = 100_000
        configs = [
            (Fraction(1, 2), Fraction(1), Fraction(2)),
            (Fraction(-1, 3), Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(1)),
        ]
        for idx, (w, alpha, beta) in enumerate(configs):
            params = RoundingParams(alpha=alpha, beta=beta, seed=0)
            rng = make_rng(0x5E_ED, "unbias", idx)
            total = Fraction(0)
            for _ in range(samples):
                total += round_weight(w, params, rng)
            mean = total / samples
            magnitude = beta if w > 0 else alpha
            variance = magnitude * abs(w) - w * w
            tolerance = 4 * sqrt_upper(variance / samples)
            assert abs(mean - w) <= tolerance, (
                f"w={w}: mean {float(mean):.5f} outside {float(tolerance):.5f}"
            )


def test_criterion_06_hoeffding_tail_holds():
    # gamma = 1/2 with alpha = beta = 1: each rounded edge drifts by +1/2
    # (kept, |w'| = 1) or -1/2 (zeroed), each with probability exactly 1/2,
    # so the drift sum over z edges is (ones in z fair bits) - z/2
    with Budget(6, "observed tail under the Hoeffding bound", 60):
        trials = 100_000
        for z in (50, 100):
            rng = make_rng(0x7A_11, "tail", z)
            exceed = {10: 0, 20: 0, 30: 0}
            for _ in range(trials):
                drift2 = 2 * rng.getrandbits(z).bit_count() - z  # 2 * sum
                for t in exceed:
                    if drift2 > 2 * t:
                        exceed[t] += 1
            for t, count in exceed.items():
                bound = hoeffding_tail(z, t, 1, 1)
                assert count / trials <= bound, (
                    f"z={z} t={t}: freq {count / trials} > bound {bound}"
                )
        # tie the shortcut to the real rounding machinery on a smaller run
        params = RoundingParams(alpha=1, beta=1, seed=0)
        rng = make_rng(0x7A_11, "tail", "machinery")
        w = Fraction(1, 2)
        hits = 0
        small = 2000
        for _ in range(small):
            s = sum((abs(round_weight(w, params, rng)) - w for _ in range(50)), Fraction(0))
            if s > 10:
                hits += 1
        assert hits / small <= hoeffding_tail(50, 10, 1, 1)


def test_criterion_07_exact_oracles_agree():
    with Budget(7, "independent exact enumerators agree", 60):
        rng = random.Random(707)
        for i in range(200):
            n = 2 + i % 5
            g = generate(GenSpec(n=n, model=UniformRational(density=0.8), seed=7000 + i))
            for objective in (MAX, MIN):
                fast = solve_exact(g, objective)
                slow = solve_exact_reference(g, objective)
                assert fast.value == slow.value, f"instance {i} ({objective.value})"
        assert rng  # rng unused on purpose: instances come from the generator


def test_criterion_08_trivial_two_approximation():
    with Budget(8, "doubled trivial value covers the optimum", 30):
        for i in range(200):
            n = 2 + i % 7
            g = generate(GenSpec(n=n, model=UniformRational(density=0.75), seed=8000 + i))
            trivial = solve_trivial_max(g)
            opt = solve_exact(g, MAX)
            assert 2 * trivial.value >= opt.value
            assert opt.value >= trivial.value


def test_criterion_09_pivot_mean_factor():
    with Budget(9, "pivot mean within 3.1x the optimum", 60):
        for i in range(20):
            g = generate(GenSpec(n=8, model=CompleteSigned(), seed=900 + i))
            opt = solve_exact(g, MIN).value
            runs = 200
            total = Fraction(0)
            for s in range(runs):
                total += solve_pivot(g, seed=derive_seed(900 + i, "pivot", s)).value
            mean = total / runs
            assert mean <= Fraction(31, 10) * opt, (
                f"instance {i}: mean {float(mean):.3f} vs opt {opt}"
            )


def test_criterion_10_identity_regime_recovers_optimum():
    with Budget(10, "identity regime returns the exact optimum", 30):
        hits = 0
        for i in range(100):
            g = generate(
                GenSpec(n=3, model=UniformRational(density=0.7, denominator_bound=1), seed=i)
            )
            cfg = ReductionConfig(
                objective=MAX,
                t=0,
                rounding=RoundingParams(alpha=1, beta=1, seed=i),
                solver=SolverSpec(SolverKind.EXACT),
                epsilon=Fraction(1, 20),
                lambda_ref=1,
            )
            opt = solve_exact(g, MAX)
            rep = reduce_and_solve(build_roll(g, 0), cfg, opt, cfg.rounding.seed)
            if rep.best_value == opt.value:
                hits += 1
        assert hits == 100, f"only {hits}/100 trials recovered the optimum"


def test_criterion_11_stochastic_regime_report():
    with Budget(11, "stochastic pipeline report with exact accounting", 300):
        g = generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=1))
        eps = Fraction(1, 20)
        for t, solver in ((0, SolverSpec(SolverKind.EXACT)),
                          (1, SolverSpec(SolverKind.LOCAL_SEARCH, budget=2000))):
            cfg = ReductionConfig(
                objective=MAX,
                t=t,
                rounding=RoundingParams(alpha=1, beta=1, seed=11),
                solver=solver,
                epsilon=eps,
                lambda_ref=1,
            )
            # every trial re-runs the exact accounting identities internally;
            # any violation raises and fails this test
            agg = run_trials(g, cfg, 200)
            assert agg.trials == 200 and len(agg.per_trial) == 200
            assert agg.opt_value > 0
            ratios = [s.ratio for s in agg.per_trial if s.ratio is not None]
            assert len(ratios) == 200
            threshold = 1 / (1 + eps)
            freq = Fraction(sum(1 for r in ratios if r < threshold), 200)
            assert freq == agg.bad_event_freq
            lo, hi = min(ratios), max(ratios)
            mean = sum(ratios, Fraction(0)) / len(ratios)
            print(
                f"    t={t} solver={solver.kind.value}: opt={agg.opt_value} "
                f"(below 1: {aggregate_to_dict(agg)['opt_below_one']}), ratio min/mean/max = "
                f"{float(lo):.4f}/{float(mean):.4f}/{float(hi):.4f}, "
                f"freq(ratio < 1/(1+eps)) = {freq} "
                f"[measured, not a pass/fail constant]"
            )
