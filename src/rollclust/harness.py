"""Instance generators.

Three generator models cover the experiments: planted partitions with sign
flips, sparse uniform rational weights, and dense random +-1 signs. Each
model's draw(rng, u, v) gives one pair's weight (0 for no edge), and
generate draws once per pair in (u, v) order. All instance randomness
flows from the GenSpec seed through a named stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import MAX_ROLL_PAIRS, SignedGraph, shown
from .streams import make_rng


@dataclass(frozen=True)
class PlantedPartition:
    """Complete +-1 instance: +1 inside the k planted clusters (node i goes
    to cluster i mod k), -1 across, each sign flipped with flip_prob."""

    clusters: int
    flip_prob: float = 0.0

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError("clusters must be at least 1")
        if not 0 <= self.flip_prob <= 1:
            raise ValueError("flip_prob must lie in [0, 1]")

    def draw(self, rng, u: int, v: int) -> Fraction:
        w = 1 if u % self.clusters == v % self.clusters else -1
        return Fraction(-w if self.flip_prob and rng.random() < self.flip_prob else w)


@dataclass(frozen=True)
class UniformRational:
    """Each pair independently present with probability density; present
    weights are uniform nonzero p/q with q <= denominator_bound, |w| <= 1."""

    density: float = 0.5
    denominator_bound: int = 6

    def __post_init__(self):
        if not 0 <= self.density <= 1:
            raise ValueError("density must lie in [0, 1]")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be at least 1")

    def draw(self, rng, u: int, v: int) -> Fraction | int:
        if rng.random() >= self.density:
            return 0
        q = rng.randint(1, self.denominator_bound)
        p = rng.randint(1, q)
        return Fraction(-p if rng.random() < 0.5 else p, q)


@dataclass(frozen=True)
class CompleteSigned:
    """Every pair weighted +1 with probability plus_prob, else -1."""

    plus_prob: float = 0.5

    def __post_init__(self):
        if not 0 <= self.plus_prob <= 1:
            raise ValueError("plus_prob must lie in [0, 1]")

    def draw(self, rng, u: int, v: int) -> Fraction:
        return Fraction(1 if rng.random() < self.plus_prob else -1)


Model = Union[PlantedPartition, UniformRational, CompleteSigned]


@dataclass(frozen=True)
class GenSpec:
    n: int
    model: Model
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        # every model draws once per pair: refuse before the first draw, and
        # show a long n by its head, its tail and its length
        pairs = self.n * (self.n - 1) // 2
        if pairs > MAX_ROLL_PAIRS:
            raise ValueError(f"n = {shown(self.n, quote=True)} needs n(n-1)/2 pair draws,"
                             f" above the {MAX_ROLL_PAIRS}-pair limit")
        if not isinstance(self.model, Model):
            raise TypeError(f"unknown model {self.model!r}")
        if isinstance(self.model, PlantedPartition) and self.model.clusters > max(self.n, 1):
            raise ValueError("planted cluster count cannot exceed n")


def generate(spec: GenSpec) -> SignedGraph:
    """Deterministic instance for the given GenSpec seed: one model draw
    per pair, in (u, v) order."""
    rng, draw, n = make_rng(spec.seed, "gen"), spec.model.draw, spec.n
    return SignedGraph(n, {(u, v): w for u in range(n) for v in range(u + 1, n)
                           if (w := draw(rng, u, v))})
