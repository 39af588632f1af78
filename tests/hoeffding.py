"""The Hoeffding tail bound the rounding tests compare observed tails with."""

import math
from fractions import Fraction


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
