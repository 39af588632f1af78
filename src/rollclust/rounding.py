"""Randomized rounding of rational weights to the three-point set {-alpha, 0, beta}.

Each edge is rounded independently: a positive weight w becomes beta with
probability w/beta and 0 otherwise; a negative weight becomes -alpha with
probability -w/alpha. The expectation is exact: a keep probability, held
as a reduced pair of ints num/den < 1, keeps the edge iff s % den < num,
where s is the edge's 64-bit derived seed, accepted below the largest
multiple of den not above 2**64; a rejected s falls back to an exact draw
on the edge's "retry" stream. An edge with probability 1 (|w| equal to
beta or alpha) is kept without drawing. The rounded graph is built in
integers: beta and -alpha over the product of their denominators.

Rounding never flips a sign, so a clustering's contributing edge set after
rounding is a subset of its contributing set before; summing |rounded
weight| over the pre-rounding contributing set gives the post-rounding
value exactly.

Deviation accounting compares a candidate clustering against a reference on
the same rounding outcome and returns one number, the drift gap; the caller
hands over the candidate's contributing-set sums, so only the reference's
set is built here.
"""

from __future__ import annotations

import math
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


def acceptance_limit(den: int) -> int:
    """The largest multiple of den <= 2**64: a derived seed below it is uniform mod den."""
    return (1 << 64) - (1 << 64) % den


def round_graph(g: SignedGraph, params: RoundingParams) -> RoundingOutcome:
    """Round every edge independently on its own derived seed.

    Requires |w| <= 1, a ValueError otherwise, checked in ints once per
    distinct weight, where its keep probability is worked out. The seed is
    derived from (seed, u, v), so the outcome does not depend on edge
    iteration order and all graphs sharing a seed agree edge by edge.
    """
    a_num, a_den = params.alpha.numerator, params.alpha.denominator
    b_num, b_den = params.beta.numerator, params.beta.denominator
    up, down = b_num * a_den, -a_num * b_den
    # per distinct scaled weight: (num, den, acceptance limit) of p < 1, or None
    draws: dict[int, tuple[int, int, int] | None] = {}
    weights: dict[tuple[int, int], int] = {}
    edge_stream = seed_prefix(params.seed, "edge")
    tags: list[bytes] = []  # each node's encoded id, built at the first draw
    for (u, v), w in g.scaled_weights():
        if w not in draws:
            if abs(w) > g.scale:
                raise ValueError("graph must be normalized to |weight| <= 1 before rounding")
            # p = |w| / magnitude, with |w| = |w * scale| / scale, reduced
            num, den = (w * b_den, g.scale * b_num) if w > 0 else (-w * a_den, g.scale * a_num)
            k = math.gcd(num, den)
            num, den = num // k, den // k
            draws[w] = (num, den, acceptance_limit(den)) if num < den else None
        if draws[w] is not None:
            num, den, limit = draws[w]
            tags = tags or [encode_part(x) for x in range(g.n)]
            s = extended_seed(edge_stream, tags[u] + tags[v])
            if not (s % den < num if s < limit
                    else make_rng(params.seed, "edge", u, v, "retry").randrange(den) < num):
                continue
        weights[(u, v)] = up if w > 0 else down
    scale = a_den * b_den  # up / scale = beta, down / scale = -alpha
    return RoundingOutcome(g, SignedGraph._from_scaled(g.n, scale, weights))


def deviation_stats(
    out: RoundingOutcome,
    pre: int,
    kept: int,
    reference: Clustering,
    lam: Fraction,
    objective: ObjectiveKind,
) -> Fraction:
    """The drift gap of one rounding outcome: the candidate's drift minus
    the reference's drift over lam.

    A clustering's drift sums |rounded weight| - |weight| over its
    pre-rounding contributing edges, and has expectation zero. pre and
    kept are the candidate's sums of |weight| over that set, before
    rounding as an int over out.before.scale and after it over
    out.after.scale. The reference's set is taken on the pre-rounding
    graph and summed the same way. lam must exceed 1.
    """
    lam = as_fraction(lam)
    if lam <= 1:
        raise ValueError("lam must be > 1")
    before, after = out.before, out.after
    ref = contributing_edges(before, reference, objective)
    # both drifts as ints over before.scale * after.scale * lam.numerator
    b, a = before.scale, after.scale
    s1 = (kept * b - pre * a) * lam.numerator
    s2 = (after.abs_weight(ref) * b - before.abs_weight(ref) * a) * lam.denominator
    return Fraction(s1 - s2, a * b * lam.numerator)
