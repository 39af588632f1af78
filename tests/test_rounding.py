import math
import random
import statistics
from fractions import Fraction

import pytest

from rollclust.core import (
    Clustering,
    ObjectiveKind,
    SignedGraph,
    clustering_value,
    contributing_edges,
)
from rollclust.rounding import RoundingParams, deviation_stats, hoeffding_tail, round_graph
from rollclust.streams import derive_seed

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def random_graph(rng, n, density=0.8):
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                q = rng.randint(1, 5)
                p = rng.randint(-q, q)
                if p:
                    weights[(u, v)] = Fraction(p, q)
    return SignedGraph(n, weights)


def test_rounding_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(alpha=Fraction(1, 2), beta=1)
    with pytest.raises(ValueError):
        RoundingParams(alpha=1, beta=0)


def test_identity_regime():
    # weights already in {-1, 0, +1} with alpha = beta = 1 never change
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    out = round_graph(g, RoundingParams(alpha=1, beta=1, seed=99))
    assert out.after == g


def test_rejects_unnormalized_weights():
    g = SignedGraph(2, {(0, 1): 2})
    with pytest.raises(ValueError):
        round_graph(g, RoundingParams(alpha=1, beta=3, seed=0))


def test_rounded_support():
    rng = random.Random(3)
    alpha, beta = Fraction(3, 2), Fraction(2)
    for trial in range(20):
        g = random_graph(rng, 6)
        out = round_graph(g, RoundingParams(alpha=alpha, beta=beta, seed=trial))
        for u, v, w in out.after.edges():
            assert w in (-alpha, beta)
            before = out.before.weight(u, v)
            # sign is preserved, zeros stay absent
            assert before != 0 and (before > 0) == (w > 0)


def test_determinism_and_order_independence():
    g1 = SignedGraph(4, {(0, 1): Fraction(1, 2), (2, 3): Fraction(-1, 3), (1, 2): Fraction(1, 5)})
    g2 = SignedGraph(4, [((2, 3), Fraction(-1, 3)), ((1, 2), Fraction(1, 5)), ((0, 1), Fraction(1, 2))])
    p = RoundingParams(alpha=2, beta=2, seed=12345)
    assert round_graph(g1, p).after == round_graph(g2, p).after
    assert round_graph(g1, p).after == round_graph(g1, p).after
    # a different seed should eventually differ
    q = RoundingParams(alpha=2, beta=2, seed=12346)
    assert any(round_graph(g1, q).after != round_graph(g1, p).after for _ in range(1))


def test_per_edge_streams_are_stable_across_subgraphs():
    # dropping one edge must not change how the others round
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)})
    h = SignedGraph(3, {(0, 1): Fraction(1, 2)})
    p = RoundingParams(alpha=1, beta=2, seed=77)
    full = round_graph(g, p).after
    part = round_graph(h, p).after
    assert full.weight(0, 1) == part.weight(0, 1)


def test_contributing_set_preservation_per_sample():
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(3, 7)
        g = random_graph(rng, n)
        c = Clustering([rng.randrange(3) for _ in range(n)])
        out = round_graph(g, RoundingParams(alpha=1, beta=2, seed=trial))
        for objective in (MAX, MIN):
            pre = contributing_edges(out.before, c, objective)
            post = contributing_edges(out.after, c, objective)
            assert post <= pre
            direct = clustering_value(out.after, c, objective)
            summed = sum((abs(out.after.weight(u, v)) for u, v in pre), Fraction(0))
            assert direct == summed


@pytest.mark.parametrize(
    "w,alpha,beta",
    [
        (Fraction(1, 2), 1, 2),
        (Fraction(-1, 3), 2, 1),
        (Fraction(1), 1, 1),
    ],
)
def test_unbiased_means(w, alpha, beta):
    g = SignedGraph(2, {(0, 1): w})
    samples = 4000
    total = Fraction(0)
    for i in range(samples):
        p = RoundingParams(alpha=alpha, beta=beta, seed=derive_seed(2024, "mean", i))
        total += round_graph(g, p).after.weight(0, 1)
    mean = total / samples
    magnitude = Fraction(beta) if w > 0 else Fraction(alpha)
    variance = magnitude * abs(w) - w * w
    limit = 4 * math.sqrt(float(variance) / samples)
    assert abs(float(mean - w)) <= limit


def test_edges_round_independently():
    # empirical covariance of two edges stays within 4 standard errors of 0
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)})
    samples = 4000
    xs, ys = [], []
    for i in range(samples):
        out = round_graph(g, RoundingParams(alpha=1, beta=2, seed=derive_seed(55, "cov", i)))
        xs.append(float(out.after.weight(0, 1)))
        ys.append(float(out.after.weight(1, 2)))
    cov = statistics.covariance(xs, ys)
    var = statistics.variance(xs)
    limit = 4 * var / math.sqrt(samples)
    assert abs(cov) <= limit


def test_deviation_stats_counts_and_zero_drift():
    g = SignedGraph(4, {(0, 1): 1, (1, 2): -1, (2, 3): 1, (0, 3): -1})
    out = round_graph(g, RoundingParams(alpha=1, beta=1, seed=5))  # identity
    cand = Clustering([0, 0, 1, 1])
    ref = Clustering.one_cluster(4)
    stats = deviation_stats(out, cand, ref, Fraction(3, 2), MAX)
    # identity rounding drifts nothing
    assert stats.s1 == 0 and stats.s2 == 0 and stats.gap == 0
    # the sets the drift sums run over: both keep the +1 edges inside, and
    # only the candidate cuts the -1 edges
    cand_set = contributing_edges(g, cand, MAX)
    ref_set = contributing_edges(g, ref, MAX)
    assert cand_set & ref_set == {(0, 1), (2, 3)}
    assert cand_set - ref_set == {(1, 2), (0, 3)}
    assert not ref_set - cand_set


def test_deviation_stats_match_per_pair_sums():
    # the drift sums restated pair by pair through weight()
    rng = random.Random(59)
    for i in range(20):
        g = random_graph(rng, 6)
        out = round_graph(g, RoundingParams(alpha=2, beta=Fraction(3, 2), seed=i))
        cand = Clustering([rng.randrange(3) for _ in range(6)])
        ref = Clustering([rng.randrange(2) for _ in range(6)])
        lam = Fraction(3, 2)

        def drift(c):
            return sum(
                (abs(out.after.weight(u, v)) - abs(g.weight(u, v))
                 for u, v in contributing_edges(g, c, MAX)),
                Fraction(0),
            )

        stats = deviation_stats(out, cand, ref, lam, MAX)
        assert stats.s1 == drift(cand)
        assert stats.s2 == drift(ref) / lam


def test_deviation_stats_rejects_lambda_at_most_one():
    g = SignedGraph(2, {(0, 1): 1})
    out = round_graph(g, RoundingParams(alpha=1, beta=1, seed=0))
    with pytest.raises(ValueError):
        deviation_stats(out, Clustering([0, 0]), Clustering([0, 0]), Fraction(1), MAX)


def test_drift_sums_center_on_zero():
    # empirical mean of s1 over many roundings sits within 3 sample sigmas of 0
    rng = random.Random(71)
    g = random_graph(rng, 6, density=0.9)
    cand = Clustering([0, 1, 0, 1, 2, 2])
    ref = Clustering.one_cluster(6)
    vals = []
    for i in range(2000):
        out = round_graph(g, RoundingParams(alpha=2, beta=2, seed=derive_seed(8, "s1", i)))
        stats = deviation_stats(out, cand, ref, Fraction(3, 2), MAX)
        vals.append(float(stats.s1))
    mean = statistics.fmean(vals)
    sigma = statistics.stdev(vals) / math.sqrt(len(vals))
    assert abs(mean) <= 3 * sigma


def test_hoeffding_tail_values():
    assert hoeffding_tail(100, Fraction(50), 1, 1) == pytest.approx(math.exp(-12.5))
    assert hoeffding_tail(0, Fraction(5), 1, 1) == 0.0
    assert hoeffding_tail(10, Fraction(1, 1000), 1, 1) == pytest.approx(1.0, abs=1e-6)
    assert hoeffding_tail(50, Fraction(10), 1, 1) == pytest.approx(math.exp(-1.0))
    assert hoeffding_tail(5, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)) <= 1.0
    with pytest.raises(ValueError):
        hoeffding_tail(10, Fraction(0), 1, 1)
    with pytest.raises(ValueError):
        hoeffding_tail(-1, Fraction(1), 1, 1)


def test_hoeffding_never_exceeds_one():
    assert hoeffding_tail(10**6, Fraction(1, 100), 1, 1) <= 1.0


def test_observed_tail_under_bound_small():
    # small-scale version of the tail check: 2000 trials, z = 40
    rng = random.Random(4242)
    z, trials = 40, 2000
    for t in (8, 16):
        bound = hoeffding_tail(z, Fraction(t), 1, 1)
        hits = 0
        for _ in range(trials):
            heads = rng.getrandbits(z).bit_count()
            if heads - Fraction(z, 2) > t:
                hits += 1
        assert hits / trials <= bound
