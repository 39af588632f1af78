"""Randomized rounding of rational weights to the three-point set {-alpha, 0, beta}.

Each edge is rounded independently: a positive weight w becomes beta with
probability w/beta and 0 otherwise; a negative weight becomes -alpha with
probability -w/alpha. The expectation is exact: a keep probability num/den
< 1 keeps the edge iff s % den < num, where s is the edge's 64-bit derived
seed, accepted below the largest multiple of den not above 2**64; a
rejected s falls back to an exact draw on the edge's "retry" stream. An
edge with probability 1 (|w| equal to beta or alpha) is kept without
drawing. The rounded graph is built in integers: beta and -alpha over the
product of their denominators.

Rounding never flips a sign, so a clustering's contributing edge set after
rounding is a subset of its contributing set before; summing |rounded
weight| over the pre-rounding contributing set gives the post-rounding
value exactly.

Deviation accounting compares a candidate clustering against a reference on
the same rounding outcome (drift sums s1 and s2 and their gap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Clustering, ObjectiveKind, SignedGraph, as_fraction, contributing_edges
from .streams import encode_part, extended_seed, make_rng, seed_prefix


@dataclass(frozen=True)
class RoundingParams:
    """Rounding magnitudes and the root seed for per-edge streams.

    alpha and beta must be at least 1 so that |w| <= 1 gives probabilities
    at most 1.
    """

    alpha: Fraction
    beta: Fraction
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be >= 1")


@dataclass(frozen=True)
class RoundingOutcome:
    before: SignedGraph
    after: SignedGraph


def bernoulli(rng: random.Random, p: Fraction) -> bool:
    """Exact Bernoulli(p): randrange on the denominator, no float bias."""
    if p <= 0:
        return False
    if p >= 1:
        return True
    return rng.randrange(p.denominator) < p.numerator


def acceptance_limit(den: int) -> int:
    """The largest multiple of den <= 2**64: a derived seed below it is uniform mod den."""
    return (1 << 64) - (1 << 64) % den


def round_graph(g: SignedGraph, params: RoundingParams) -> RoundingOutcome:
    """Round every edge independently on its own derived seed.

    Requires |w| <= 1 for all edges. The seed is derived from (seed, u, v),
    so the outcome does not depend on edge iteration order and all graphs
    sharing a seed agree edge by edge.
    """
    if g.max_abs_weight() > 1:
        raise ValueError("graph must be normalized to |weight| <= 1 before rounding")
    alpha, beta = params.alpha, params.beta
    up, down = beta.numerator * alpha.denominator, -alpha.numerator * beta.denominator
    # per distinct scaled weight: (num, den, acceptance limit) of p < 1, or None
    draws: dict[int, tuple[int, int, int] | None] = {}
    weights: dict[tuple[int, int], int] = {}
    edge_stream = seed_prefix(params.seed, "edge")
    tags: list[bytes] = []  # each node's encoded id, built at the first draw
    for (u, v), w in g.scaled_weights():
        if w not in draws:
            p = Fraction(w, g.scale) / beta if w > 0 else Fraction(-w, g.scale) / alpha
            draws[w] = (p.numerator, p.denominator, acceptance_limit(p.denominator)) if p < 1 else None
        if draws[w] is not None:
            num, den, limit = draws[w]
            tags = tags or [encode_part(x) for x in range(g.n)]
            s = extended_seed(edge_stream, tags[u] + tags[v])
            if not (s % den < num if s < limit
                    else bernoulli(make_rng(params.seed, "edge", u, v, "retry"), Fraction(num, den))):
                continue
        weights[(u, v)] = up if w > 0 else down
    scale = alpha.denominator * beta.denominator  # up / scale = beta, down / scale = -alpha
    return RoundingOutcome(g, SignedGraph._from_scaled(g.n, scale, weights))


@dataclass(frozen=True, eq=True)
class DeviationStats:
    """How far a rounding outcome drifted from its expectation, for a
    candidate clustering and a reference clustering on the same outcome.

    s1 sums (|rounded| - |original|) over the candidate's pre-rounding
    contributing edges; s2 does the same for the reference, scaled by
    1/lam. Both have expectation zero. gap is the diagnostic difference
    s1 - s2, which weighs the reference drift by 1/lam once.
    """

    s1: Fraction
    s2: Fraction
    lam: Fraction

    @property
    def gap(self) -> Fraction:
        return self.s1 - self.s2


def deviation_stats(
    out: RoundingOutcome,
    candidate: Clustering,
    reference: Clustering,
    lam: Fraction,
    objective: ObjectiveKind,
) -> DeviationStats:
    """Drift accounting for one rounding outcome.

    Contributing sets are taken on the pre-rounding graph; rounded weights
    come from the outcome. lam must exceed 1.
    """
    lam = Fraction(lam)
    if lam <= 1:
        raise ValueError("lam must be > 1")
    before, after = out.before, out.after

    cand = contributing_edges(before, candidate, objective)
    ref = contributing_edges(before, reference, objective)

    s1 = after.abs_weight(cand) - before.abs_weight(cand)
    s2 = (after.abs_weight(ref) - before.abs_weight(ref)) / lam
    return DeviationStats(s1=s1, s2=s2, lam=lam)
