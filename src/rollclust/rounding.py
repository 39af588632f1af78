"""Randomized rounding of rational weights to the three-point set {-alpha, 0, beta}.

Each edge is rounded independently: a positive weight w becomes beta with
probability w/beta and 0 otherwise; a negative weight becomes -alpha with
probability -w/alpha. The per-edge expectation equals the original weight
exactly, because the Bernoulli draws use exact rational probabilities (an
integer comparison on the per-edge stream, never a float threshold).

Rounding never flips a sign, so a clustering's contributing edge set after
rounding is a subset of its contributing set before; summing |rounded
weight| over the pre-rounding contributing set gives the post-rounding
value exactly.

Deviation accounting compares a candidate clustering against a reference on
the same rounding outcome (drift sums s1 and s2 and their gap), and the
Hoeffding helper gives the standard tail bound for sums of centered
roundings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Clustering, ObjectiveKind, SignedGraph, contributing_edges
from .streams import make_rng


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
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
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


def round_edge_weight(w: Fraction, params: RoundingParams, rng: random.Random) -> Fraction:
    """Round one weight; expectation is exactly w."""
    if w > 0:
        return params.beta if bernoulli(rng, w / params.beta) else Fraction(0)
    if w < 0:
        return -params.alpha if bernoulli(rng, -w / params.alpha) else Fraction(0)
    return Fraction(0)


def round_graph(g: SignedGraph, params: RoundingParams) -> RoundingOutcome:
    """Round every edge independently on its own named stream.

    Requires |w| <= 1 for all edges (normalize first). The per-edge stream
    is derived from (seed, u, v), so the outcome does not depend on edge
    iteration order and all graphs sharing a seed agree edge by edge.
    """
    if g.max_abs_weight() > 1:
        raise ValueError("graph must be normalized to |weight| <= 1 before rounding")
    weights: dict[tuple[int, int], Fraction] = {}
    for u, v, w in g.edges():
        rng = make_rng(params.seed, "edge", u, v)
        w2 = round_edge_weight(w, params, rng)
        if w2 != 0:
            weights[(u, v)] = w2
    return RoundingOutcome(g, SignedGraph(g.n, weights))


@dataclass(frozen=True, eq=True)
class DeviationStats:
    """How far a rounding outcome drifted from its expectation, for a
    candidate clustering and a reference clustering on the same outcome.

    s1 sums (|rounded| - |original|) over the candidate's pre-rounding
    contributing edges; s2 does the same for the reference, scaled by
    1/lam. Both have expectation zero. gap is the diagnostic difference
    s1 - s2/lam.
    """

    s1: Fraction
    s2: Fraction
    lam: Fraction

    @property
    def gap(self) -> Fraction:
        return self.s1 - self.s2 / self.lam


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


def hoeffding_tail(z: int, t, alpha, beta) -> float:
    """Tail bound exp(-2 t^2 / (z (alpha+beta)^2)) for the probability that
    a sum of z independent centered roundings exceeds t. Returns 0 for an
    empty sum and never exceeds 1."""
    if z < 0:
        raise ValueError("z must be non-negative")
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if z == 0:
        return 0.0
    alpha, beta = Fraction(alpha), Fraction(beta)
    exponent = Fraction(-2) * t * t / (z * (alpha + beta) ** 2)
    return min(1.0, math.exp(exponent))
