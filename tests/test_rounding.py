import math
import random
import statistics
from dataclasses import replace
from fractions import Fraction

import pytest

from rollclust.core import (
    Clustering,
    ObjectiveKind,
    SignedGraph,
    clustering_value,
    contributing_edges,
)
import rollclust.rounding
from rollclust.rounding import (
    RoundingParams,
    deviation_stats,
    round_graph,
)
from rollclust.streams import derive_seed, encode_part, make_rng

from hoeffding import hoeffding_tail
from random_graphs import random_graph

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def exact_draw(rng, p):
    """True with probability p, for 0 < p <= 1: a uniform draw below p's
    denominator, compared as a Fraction."""
    return Fraction(rng.randrange(p.denominator), p.denominator) < p


def fraction_round_edge_weight(w, params, u, v):
    """One edge's rounded weight in Fractions: keep with p = |w| / magnitude,
    read off the edge's derived seed when it lies below the largest multiple
    of p's denominator that fits in 64 bits, else drawn on the retry stream."""
    magnitude = params.beta if w > 0 else params.alpha
    p = abs(w) / magnitude
    keep = p == 1
    if 0 < p < 1:
        s = derive_seed(params.seed, "edge", u, v)
        if s < 2**64 // p.denominator * p.denominator:
            keep = Fraction(s % p.denominator, p.denominator) < p
        else:
            keep = exact_draw(make_rng(params.seed, "edge", u, v, "retry"), p)
    return (magnitude if w > 0 else -magnitude) if keep else Fraction(0)


def fraction_round_graph(g, params):
    """The per-edge Fraction rounding loop, rounded weights rebuilt through
    the public constructor. Oracle for round_graph."""
    if g.max_abs_weight() > 1:
        raise ValueError("graph must be normalized to |weight| <= 1 before rounding")
    weights = {}
    for u, v, w in g.edges():
        w2 = fraction_round_edge_weight(w, params, u, v)
        if w2 != 0:
            weights[(u, v)] = w2
    return SignedGraph(g.n, weights)


SPREADS = [(1, 1), (Fraction(3, 2), 2), (2, 1), (Fraction(5, 3), Fraction(7, 4))]


def oracle_cases():
    """Graphs covering +-1 weights, mixed denominators, |w| equal to alpha
    or beta (p = 1), and the empty graph."""
    rng = random.Random(41)
    graphs = [SignedGraph(0), SignedGraph(5)]
    for n in (3, 5, 8):
        graphs.append(SignedGraph(n, {
            (u, v): rng.choice((-1, 1)) for u in range(n) for v in range(u + 1, n)
        }))
        graphs.append(random_graph(rng, n))
        weights = {}
        for u in range(n):
            for v in range(u + 1, n):
                q = rng.choice((1, 2, 3, 7, 12))
                weights[(u, v)] = Fraction(rng.randint(-q, q) or q, q)
        graphs.append(SignedGraph(n, weights))
    return graphs


@pytest.mark.parametrize("alpha, beta", SPREADS)
def test_round_graph_matches_the_fraction_oracle(alpha, beta):
    graphs = oracle_cases()
    # weights equal to beta or -alpha where those fit under 1: kept with p = 1
    graphs.append(SignedGraph(4, {(0, 1): 1, (1, 2): -1, (2, 3): Fraction(1, 2), (0, 3): -1}))
    for seed in (0, 1, 7, 2**40 + 3):
        params = RoundingParams(alpha=alpha, beta=beta, seed=seed)
        for g in graphs:
            after = round_graph(g, params).after
            expected = fraction_round_graph(g, params)
            assert after == expected
            assert after.scale == expected.scale


def test_round_graph_reduces_the_scale_when_only_beta_survives():
    # every edge positive: the output lives on beta's denominator alone
    g = SignedGraph(4, {(0, 1): Fraction(1, 2), (1, 2): 1, (2, 3): Fraction(1, 3)})
    scales = set()
    for seed in range(3, 13):
        params = RoundingParams(alpha=Fraction(5, 3), beta=Fraction(7, 4), seed=seed)
        after = round_graph(g, params).after
        assert after == fraction_round_graph(g, params)
        scales.add((after.edge_count > 0, after.scale))
    assert (True, 4) in scales and scales <= {(True, 4), (False, 1)}
    # a graph with no surviving edges has scale 1
    assert round_graph(SignedGraph(3), params).after.scale == 1


def inject_seeds(monkeypatch, seed_of):
    """Replace the derived seed of each edge (u, v) by seed_of(u, v), or by the
    real one where seed_of returns None."""
    real = rollclust.rounding.extended_seed

    def injected(prefix, data):
        # data is the two encoded node ids: a tag byte and 16 bytes each
        u, v = (int.from_bytes(data[i + 1 : i + 17], "little", signed=True) for i in (0, 17))
        assert data == encode_part(u) + encode_part(v)
        s = seed_of(u, v)
        return real(prefix, data) if s is None else s

    monkeypatch.setattr(rollclust.rounding, "extended_seed", injected)


def record_streams(monkeypatch):
    calls = []

    def counting_make_rng(root, *parts):
        calls.append((root, parts))
        return make_rng(root, *parts)

    monkeypatch.setattr(rollclust.rounding, "make_rng", counting_make_rng)
    return calls


@pytest.mark.parametrize("alpha, beta", SPREADS)
def test_streams_are_built_only_for_fractional_probabilities(monkeypatch, alpha, beta):
    # and only on rejection: one "retry" stream per rejected derived seed
    calls = record_streams(monkeypatch)
    alpha, beta = Fraction(alpha), Fraction(beta)
    params = RoundingParams(alpha=alpha, beta=beta, seed=5)
    for g in oracle_cases():
        # real derived seeds: no rejection on these graphs
        calls.clear()
        assert round_graph(g, params).after == fraction_round_graph(g, params)
        assert calls == []
    # 2**64 - 1 is rejected for every denominator but a power of two
    inject_seeds(monkeypatch, lambda u, v: 2**64 - 1)
    for g in oracle_cases():
        calls.clear()
        round_graph(g, params)
        dens = [(u, v, (w / beta if w > 0 else -w / alpha).denominator) for u, v, w in g.edges()]
        rejected = [(u, v) for u, v, den in dens if den & (den - 1)]
        assert calls == [(5, ("edge", u, v, "retry")) for u, v in rejected]
    if alpha == beta == 1:
        # the identity regime: +-1 weights all have p = 1 and draw nothing
        inject_seeds(monkeypatch, lambda u, v: pytest.fail("drew a p = 1 edge"))
        calls.clear()
        rng = random.Random(43)
        g = SignedGraph(6, {(u, v): rng.choice((-1, 1)) for u in range(6) for v in range(u + 1, 6)})
        assert round_graph(g, params).after == g
        assert calls == []


def test_acceptance_limit():
    for den in list(range(1, 200)) + [3**40, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, 5**30]:
        limit = rollclust.rounding.acceptance_limit(den)
        assert limit % den == 0
        assert limit <= 2**64
        assert 2**64 - limit < den


@pytest.mark.parametrize("sign", (1, -1))
def test_injected_seeds_keep_exactly_num_of_every_den(monkeypatch, sign):
    # k * den consecutive seeds hit each residue mod den k times, so
    # exactly k * num edges survive: P(keep) = num / den on accepted seeds
    k = 3
    calls = record_streams(monkeypatch)
    params = RoundingParams(alpha=1, beta=1, seed=9)
    for den in range(2, 13):
        edges = [(u, v) for u in range(9) for v in range(u + 1, 9)][:k * den]
        index = {e: i for i, e in enumerate(edges)}
        for num in range(den):
            w = sign * Fraction(num, den)
            if w == 0:
                continue
            g = SignedGraph(9, {e: w for e in edges})
            limit = rollclust.rounding.acceptance_limit(den)
            for first in (0, 12345 * den + 7, limit - k * den):
                inject_seeds(monkeypatch, lambda u, v: first + index[(u, v)])
                after = round_graph(g, params).after
                assert after.edge_count == k * num, (den, num, first)
                assert {w2 for _, _, w2 in after.edges()} <= {sign}
    assert calls == []


class FixedRng:
    def __init__(self, value):
        self.value, self.ranges = value, []

    def randrange(self, stop):
        self.ranges.append(stop)
        return self.value


@pytest.mark.parametrize("den", (3, 10, 2**64 + 1, 3**41))
def test_rejected_seeds_fall_back_to_the_retry_stream(monkeypatch, den):
    # s = limit is the first rejected seed; above 2**64 every seed is
    # rejected (limit 0), so real derived seeds take the fallback too
    params = RoundingParams(alpha=1, beta=1, seed=21)
    g = SignedGraph(3, {(0, 1): Fraction(1, den), (1, 2): -Fraction(den - 1, den)})
    limit = rollclust.rounding.acceptance_limit(den)
    if den <= 2**64:
        inject_seeds(monkeypatch, lambda u, v: limit)
    for kept in (False, True):
        streams = []

        def fixed_make_rng(root, *parts):
            # randrange answers so that the draw keeps the edge iff kept
            num = 1 if parts[1:3] == (0, 1) else den - 1
            rng = FixedRng(num - 1 if kept else num)
            streams.append((root, parts, rng))
            return rng

        monkeypatch.setattr(rollclust.rounding, "make_rng", fixed_make_rng)
        after = round_graph(g, params).after
        assert [(root, parts) for root, parts, _ in streams] == [
            (21, ("edge", 0, 1, "retry")), (21, ("edge", 1, 2, "retry")),
        ]
        assert all(rng.ranges == [den] for _, _, rng in streams)
        assert after.edge_count == (2 if kept else 0)
    # the real retry stream decides the edge by one exact draw on it
    monkeypatch.setattr(rollclust.rounding, "make_rng", make_rng)
    for seed in range(20):
        params = RoundingParams(alpha=1, beta=1, seed=seed)
        after = round_graph(g, params).after
        for u, v, w in g.edges():
            keep = exact_draw(make_rng(seed, "edge", u, v, "retry"), abs(w))
            assert after.weight(u, v) == ((1 if w > 0 else -1) if keep else 0)
    # seeds below the limit are read off directly, with no stream: residue
    # 0 keeps both edges, the highest accepted seed (residue den - 1) drops
    # both
    if 0 < limit:
        calls = record_streams(monkeypatch)
        for s, kept in ((limit - den, 2), (limit - 1, 0)):
            inject_seeds(monkeypatch, lambda u, v: s)
            assert round_graph(g, params).after.edge_count == kept
        assert calls == []


def test_rounding_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(alpha=Fraction(1, 2), beta=1)
    with pytest.raises(ValueError):
        RoundingParams(alpha=1, beta=0)


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_rounding_params_refuse_floats(field):
    # 1.1 would be stored as 2476979795053773/2251799813685248
    values = {"alpha": 1, "beta": 1, field: 1.1}
    with pytest.raises(TypeError, match="not the float 1.1"):
        RoundingParams(**values)
    values[field] = Fraction(11, 10)
    assert getattr(RoundingParams(**values), field) == Fraction(11, 10)


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
    g2 = SignedGraph(4, {(2, 3): Fraction(-1, 3), (1, 2): Fraction(1, 5), (0, 1): Fraction(1, 2)})
    p = RoundingParams(alpha=2, beta=2, seed=12345)
    assert round_graph(g1, p).after == round_graph(g2, p).after
    assert round_graph(g1, p).after == round_graph(g1, p).after
    # the seed reaches every edge's draw: over several seeds each edge is
    # both kept and dropped
    outcomes = [round_graph(g1, replace(p, seed=seed)).after for seed in range(12345, 12385)]
    for u, v, _ in g1.edges():
        assert len({after.weight(u, v) for after in outcomes}) == 2


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
        # the reference drift is weighed by 1/lam once
        assert stats.gap == drift(cand) - drift(ref) / lam


def test_deviation_stats_rejects_lambda_at_most_one():
    g = SignedGraph(2, {(0, 1): 1})
    out = round_graph(g, RoundingParams(alpha=1, beta=1, seed=0))
    with pytest.raises(ValueError):
        deviation_stats(out, Clustering([0, 0]), Clustering([0, 0]), Fraction(1), MAX)


def test_deviation_stats_refuses_a_float_lambda():
    g = SignedGraph(2, {(0, 1): 1})
    # beta = 2 moves the edge's weight to 0 or 2, so the reference drifts
    out = round_graph(g, RoundingParams(alpha=2, beta=2, seed=0))
    with pytest.raises(TypeError, match="not the float 1.1"):
        deviation_stats(out, Clustering([0, 1]), Clustering([0, 0]), 1.1, MAX)
    stats = deviation_stats(out, Clustering([0, 1]), Clustering([0, 0]), "11/10", MAX)
    drift = abs(out.after.weight(0, 1)) - 1
    assert drift != 0 and stats.s2 == drift / Fraction(11, 10)


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
