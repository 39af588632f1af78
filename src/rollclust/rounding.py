"""Randomized rounding of rational weights to the three-point set {-alpha, 0, beta}.

Each edge is rounded independently: a positive weight w becomes beta with
probability w/beta and 0 otherwise; a negative weight becomes -alpha with
probability -w/alpha. The expectation is exact: a keep probability, held
as a reduced pair of ints num/den, sets the threshold
T, r = divmod(num << 64, den), and the pair is kept iff its word x of the
rounding's one stream of uniform 64-bit words is below T, or equals T
and wins an exact randrange(den) < r draw on the pair's own "tie" stream.
An edge with probability 1 (|w| equal to beta or alpha) has T = 2**64 and
is kept whatever its word. The rounded graph is built in integers: beta
and -alpha over the product of their denominators.

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
from .streams import make_rng, uniform_words


@dataclass(frozen=True)
class RoundingParams:
    """Rounding magnitudes and the root seed of the rounding's streams.

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


def round_graph(g: SignedGraph, params: RoundingParams) -> RoundingOutcome:
    """Round every edge independently: pair k, in sorted pair order, reads
    word k of uniform_words(m, seed, "round") for its keep-or-drop test.

    Requires |w| <= 1, a ValueError otherwise, checked in ints once per
    distinct weight, where its p = num/den and T, r are worked out; then
    P(keep) = (T * den + r) / (den * 2**64) = num/den exactly. A graph
    whose every pair has p = 1 reads no words.
    """
    a_num, a_den = params.alpha.numerator, params.alpha.denominator
    b_num, b_den = params.beta.numerator, params.beta.denominator
    up, down = b_num * a_den, -a_num * b_den
    items = g.scaled_weights()
    # per distinct scaled weight, in order of first appearance: T, and the
    # tie's (den, r); items.mapping is a read-only view of the graph's dict
    limit = dict.fromkeys(items.mapping.values())
    tie: dict[int, tuple[int, int]] = {}
    for w in limit:
        if abs(w) > g.scale:
            raise ValueError("graph must be normalized to |weight| <= 1 before rounding")
        # p = |w| / magnitude, with |w| = |w * scale| / scale
        num, den = (w * b_den, g.scale * b_num) if w > 0 else (-w * a_den, g.scale * a_num)
        k = math.gcd(num, den)
        num, den = num // k, den // k
        limit[w], r = divmod(num << 64, den)
        tie[w] = den, r
    seed = params.seed
    if all(t == 1 << 64 for t in limit.values()):
        weights = {pair: up if w > 0 else down for pair, w in items}  # every p is 1: no words
    else:
        weights = {
            pair: up if w > 0 else down
            for (pair, w), x in zip(items, uniform_words(len(items), seed, "round"))
            if x < (t := limit[w])
            or x == t and make_rng(seed, "edge", *pair, "tie").randrange(tie[w][0]) < tie[w][1]
        }
    scale = a_den * b_den  # up / scale = beta, down / scale = -alpha
    return RoundingOutcome(g, SignedGraph._from_scaled(g.n, scale, weights, ordered=True))


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
