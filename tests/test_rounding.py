import math
import random
from array import array
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
from rollclust.streams import derive_seed, make_rng

from hoeffding import hoeffding_tail
from invariants import oracle_drift
from random_graphs import random_graph

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def fraction_round_graph(g, params):
    """The rounding decided in Fractions: pair k, in sorted pair order, reads
    word x of the rounding's stream as the point x / 2**64 and is kept iff
    [x, x + 1) / 2**64 lies below p = |w| / magnitude. Where that interval
    straddles p, the pair places its point inside it with a uniform draw of
    p.denominator steps on its tie stream. Rounded weights are rebuilt
    through the public constructor. Oracle for round_graph."""
    if any(abs(w) > 1 for _, _, w in g.edges()):
        raise ValueError("graph must be normalized to |weight| <= 1 before rounding")
    # read through the module, so that injected words reach the oracle too
    words = rollclust.rounding.uniform_words(g.edge_count, params.seed, "round")
    weights = {}
    for (u, v, w), x in zip(g.edges(), words):
        magnitude = params.beta if w > 0 else params.alpha
        p = abs(w) / magnitude
        keep = Fraction(x + 1, 2**64) <= p
        if Fraction(x, 2**64) < p < Fraction(x + 1, 2**64):
            y = make_rng(params.seed, "edge", u, v, "tie").randrange(p.denominator)
            keep = (x + Fraction(y, p.denominator)) / 2**64 < p
        if keep:
            weights[(u, v)] = magnitude if w > 0 else -magnitude
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


def inject_words(monkeypatch, words):
    """Make the rounding read the given words, and record each stream it asks for."""
    asked = []

    def injected(count, root, *parts):
        asked.append((count, root, parts))
        assert count == len(words)
        return array("Q", words)

    monkeypatch.setattr(rollclust.rounding, "uniform_words", injected)
    return asked


def record_streams(monkeypatch):
    calls = []

    def counting_make_rng(root, *parts):
        calls.append((root, parts))
        return make_rng(root, *parts)

    monkeypatch.setattr(rollclust.rounding, "make_rng", counting_make_rng)
    return calls


def keep_probability(w, params):
    return abs(w) / (params.beta if w > 0 else params.alpha)


def threshold(p):
    """T and r of the keep rule: divmod(num << 64, den) of p = num/den."""
    return divmod(p.numerator << 64, p.denominator)


def tie_words(g, params):
    """Each pair's T, or 0 for a pair kept with p = 1: every p < 1 pair ties."""
    ts = [threshold(keep_probability(w, params))[0] for _, _, w in g.edges()]
    return [t if t < 2**64 else 0 for t in ts]


@pytest.mark.parametrize("alpha, beta", SPREADS)
def test_streams_are_built_only_for_fractional_probabilities(monkeypatch, alpha, beta):
    # one word stream per rounding that has a p < 1 pair, and a tie stream
    # only for a pair whose word equals its T
    calls = record_streams(monkeypatch)
    params = RoundingParams(alpha=alpha, beta=beta, seed=5)
    for g in oracle_cases():
        # real words: no tie on these graphs
        calls.clear()
        assert round_graph(g, params).after == fraction_round_graph(g, params)
        assert calls == []
    for g in oracle_cases():
        calls.clear()
        asked = inject_words(monkeypatch, tie_words(g, params))
        round_graph(g, params)
        fractional = [(u, v) for u, v, w in g.edges() if keep_probability(w, params) < 1]
        assert asked == ([(g.edge_count, 5, ("round",))] if fractional else [])
        assert calls == [(5, ("edge", u, v, "tie")) for u, v in fractional]
    # the identity regime: +-1 weights at alpha = beta = 1 all have p = 1,
    # and read no words
    rng = random.Random(43)
    g = SignedGraph(6, {(u, v): rng.choice((-1, 1)) for u in range(6) for v in range(u + 1, 6)})
    asked = inject_words(monkeypatch, [])
    calls.clear()
    identity = RoundingParams(alpha=1, beta=1, seed=5)
    assert round_graph(g, identity).after == g
    assert asked == [] and calls == []


@pytest.mark.parametrize("sign", (1, -1))
def test_injected_words_keep_exactly_num_of_every_den(monkeypatch, sign):
    # split the words into den equal strata and give each pair the middle
    # word of one: k pairs per stratum, so exactly k * num pairs survive,
    # as P(keep) = num / den, and no word ties
    k = 3
    calls = record_streams(monkeypatch)
    params = RoundingParams(alpha=1, beta=1, seed=9)
    for den in range(2, 13):
        edges = [(u, v) for u in range(9) for v in range(u + 1, 9)][:k * den]
        words = [((2 * (i % den) + 1) << 64) // (2 * den) for i in range(k * den)]
        inject_words(monkeypatch, words)
        for num in range(1, den):
            g = SignedGraph(9, {e: sign * Fraction(num, den) for e in edges})
            after = round_graph(g, params).after
            assert after.edge_count == k * num, (den, num)
            assert {w2 for _, _, w2 in after.edges()} == {sign}
    assert calls == []


class FixedRng:
    def __init__(self, value):
        self.value, self.ranges = value, []

    def randrange(self, stop):
        self.ranges.append(stop)
        return self.value


# keep probabilities of every kind: dens that are and are not powers of two,
# the largest num of a den, dens at and past 2**64, and p = 1
LAW_PROBABILITIES = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 8), Fraction(9, 10),
    Fraction(1, 2**64), Fraction(1, 2**64 + 1), Fraction(2**64, 2**64 + 1),
    Fraction(7, 3**41), Fraction(3**41 - 2, 3**41), Fraction(1),
]


@pytest.mark.parametrize("draw", ("below", "at"))
def test_the_keep_rule_is_exactly_x_below_T_with_a_tie_draw_at_T(monkeypatch, draw):
    # each probability's weight sits on three pairs, which read T - 1, T and
    # T + 1 where that is a 64-bit word; the tie draw answers r - 1 (keep)
    # or r (drop), and r when r = 0. So a pair is kept iff x < T, or x == T
    # and the draw keeps
    params = RoundingParams(alpha=2, beta=1, seed=13)
    n = 3 * len(LAW_PROBABILITIES) + 1
    pairs = iter((u, v) for u in range(n) for v in range(u + 1, n))
    weights, words, expected = {}, [], set()
    for i, p in enumerate(LAW_PROBABILITIES):
        t, r = threshold(p)
        # both signs, at alpha = 2 and beta = 1
        w = -2 * p if i % 2 == 0 and p <= Fraction(1, 2) else p
        assert keep_probability(w, params) == p
        for x in (t - 1, t, t + 1):
            if 0 <= x < 2**64:
                pair = next(pairs)
                weights[pair] = w
                words.append(x)
                if x < t or x == t and draw == "below" and r > 0:
                    expected.add(pair)
    g = SignedGraph(n, weights)
    assert [pair for pair, _ in g.scaled_weights()] == list(weights)
    inject_words(monkeypatch, words)
    streams = []

    def fixed_make_rng(root, *parts):
        u, v = parts[1:3]
        p = keep_probability(g.weight(u, v), params)
        r = threshold(p)[1]
        rng = FixedRng(r - 1 if draw == "below" and r > 0 else r)
        streams.append((root, parts, rng))
        return rng

    monkeypatch.setattr(rollclust.rounding, "make_rng", fixed_make_rng)
    after = round_graph(g, params).after
    assert {(u, v) for u, v, _ in after.edges()} == expected
    for u, v, w2 in after.edges():
        assert w2 == (1 if g.weight(u, v) > 0 else -2)
    # exactly the T words drew, once each, on their own tie stream, over den
    ties = [pair for pair, x in zip(weights, words) if x == threshold(keep_probability(weights[pair], params))[0]]
    assert len(ties) == len(LAW_PROBABILITIES) - 1  # all but p = 1, whose T is no word
    assert (draw == "below") == bool(expected & set(ties))
    assert [(root, parts) for root, parts, _ in streams] == [(13, ("edge", u, v, "tie")) for u, v in ties]
    assert [rng.ranges for *_, rng in streams] == [
        [keep_probability(weights[pair], params).denominator] for pair in ties
    ]


@pytest.mark.parametrize("den", (2**64 + 1, 3**41))
def test_a_den_past_2_64_draws_only_on_a_tie(monkeypatch, den):
    # T = 0 for p = 1/den, and T = 2**64 - 1 for (den - 1)/den: real words
    # tie with chance 2**-64, so the pairs decide on their words alone
    g = SignedGraph(3, {(0, 1): Fraction(1, den), (1, 2): -Fraction(den - 1, den)})
    assert [threshold(abs(w))[0] for *_, w in g.edges()] == [0, 2**64 - 1]
    calls = record_streams(monkeypatch)
    for seed in range(20):
        params = RoundingParams(alpha=1, beta=1, seed=seed)
        assert round_graph(g, params).after == fraction_round_graph(g, params)
    assert calls == []
    # the word 0 ties with 1/den and keeps (den - 1)/den; 2**64 - 1 drops
    # 1/den and ties with (den - 1)/den
    params = RoundingParams(alpha=1, beta=1, seed=21)
    for words, kept in (([1, 2**64 - 2], {(1, 2)}), ([0, 2**64 - 1], None)):
        inject_words(monkeypatch, words)
        calls.clear()
        after = round_graph(g, params).after
        assert after == fraction_round_graph(g, params)
        if kept is not None:
            assert {(u, v) for u, v, _ in after.edges()} == kept and calls == []
        else:
            assert calls == [(21, ("edge", 0, 1, "tie")), (21, ("edge", 1, 2, "tie"))]


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


def test_rejects_an_unnormalized_weight_that_comes_after_fractional_draws():
    # 3/2 is neither the first edge nor the first distinct weight, and the
    # two edges before it draw with keep probabilities below 1; at beta = 1
    # its own probability is 3/2, which would keep it without a draw
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (0, 2): Fraction(-1, 3), (1, 2): Fraction(3, 2)})
    assert [w for *_, w in g.edges()] == [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)]
    for alpha, beta in SPREADS:
        for seed in (0, 5):
            with pytest.raises(ValueError, match=r"normalized to \|weight\| <= 1"):
                round_graph(g, RoundingParams(alpha=alpha, beta=beta, seed=seed))
    # |w| = 1 exactly, over a scale of 6, is within the bound
    edge = SignedGraph(3, {(0, 1): Fraction(1, 2), (0, 2): Fraction(-1, 3), (1, 2): -1})
    assert edge.max_abs_weight() == edge.scale == 6
    assert round_graph(edge, RoundingParams(alpha=1, beta=1, seed=5)).after.weight(1, 2) == -1


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


def candidate_gap(out, cand, ref, lam, objective):
    """deviation_stats, handed the candidate's contributing-set sums."""
    pairs = contributing_edges(out.before, cand, objective)
    pre, kept = out.before.abs_weight(pairs), out.after.abs_weight(pairs)
    return deviation_stats(out, pre, kept, ref, lam, objective)


def test_deviation_stats_counts_and_zero_drift():
    g = SignedGraph(4, {(0, 1): 1, (1, 2): -1, (2, 3): 1, (0, 3): -1})
    out = round_graph(g, RoundingParams(alpha=1, beta=1, seed=5))  # identity
    cand = Clustering([0, 0, 1, 1])
    ref = Clustering.one_cluster(4)
    # identity rounding drifts nothing
    assert candidate_gap(out, cand, ref, Fraction(3, 2), MAX) == 0
    assert oracle_drift(out, cand, MAX) == 0 and oracle_drift(out, ref, MAX) == 0
    # the sets the drift sums run over: both keep the +1 edges inside, and
    # only the candidate cuts the -1 edges
    cand_set = contributing_edges(g, cand, MAX)
    ref_set = contributing_edges(g, ref, MAX)
    assert cand_set & ref_set == {(0, 1), (2, 3)}
    assert cand_set - ref_set == {(1, 2), (0, 3)}
    assert not ref_set - cand_set


def test_deviation_stats_match_per_pair_sums():
    # the drift sums restated pair by pair through weight(); the reference
    # drift is weighed by 1/lam once
    rng = random.Random(59)
    for i in range(20):
        g = random_graph(rng, 6)
        out = round_graph(g, RoundingParams(alpha=2, beta=Fraction(3, 2), seed=i))
        cand = Clustering([rng.randrange(3) for _ in range(6)])
        ref = Clustering([rng.randrange(2) for _ in range(6)])
        lam = Fraction(3, 2)
        assert candidate_gap(out, cand, ref, lam, MAX) == (
            oracle_drift(out, cand, MAX) - oracle_drift(out, ref, MAX) / lam
        )


def test_deviation_stats_rejects_lambda_at_most_one():
    g = SignedGraph(2, {(0, 1): 1})
    out = round_graph(g, RoundingParams(alpha=1, beta=1, seed=0))
    with pytest.raises(ValueError):
        candidate_gap(out, Clustering([0, 0]), Clustering([0, 0]), Fraction(1), MAX)


def test_deviation_stats_refuses_a_float_lambda():
    g = SignedGraph(2, {(0, 1): 1})
    # beta = 2 moves the edge's weight to 0 or 2, so the reference drifts
    out = round_graph(g, RoundingParams(alpha=2, beta=2, seed=0))
    with pytest.raises(TypeError, match="not the float 1.1"):
        candidate_gap(out, Clustering([0, 1]), Clustering([0, 0]), 1.1, MAX)
    # the candidate cuts the edge, so only the reference drifts
    gap = candidate_gap(out, Clustering([0, 1]), Clustering([0, 0]), "11/10", MAX)
    drift = abs(out.after.weight(0, 1)) - 1
    assert drift != 0 and gap == -drift / Fraction(11, 10)


def test_drift_sums_center_on_zero():
    # empirical mean of the gap over many roundings sits within 3 sample
    # sigmas of 0, and each gap is the oracle's
    rng = random.Random(71)
    g = random_graph(rng, 6, density=0.9)
    cand = Clustering([0, 1, 0, 1, 2, 2])
    ref = Clustering.one_cluster(6)
    lam = Fraction(3, 2)
    vals = []
    for i in range(2000):
        out = round_graph(g, RoundingParams(alpha=2, beta=2, seed=derive_seed(8, "s1", i)))
        gap = candidate_gap(out, cand, ref, lam, MAX)
        assert gap == oracle_drift(out, cand, MAX) - oracle_drift(out, ref, MAX) / lam
        vals.append(float(gap))
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
