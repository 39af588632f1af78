"""Instance generators.

Three generator models cover the experiments: planted partitions with sign
flips, sparse uniform rational weights, and dense random +-1 signs. All
instance randomness flows from the GenSpec seed through a named stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import SignedGraph
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


@dataclass(frozen=True)
class CompleteSigned:
    """Every pair weighted +1 with probability plus_prob, else -1."""

    plus_prob: float = 0.5

    def __post_init__(self):
        if not 0 <= self.plus_prob <= 1:
            raise ValueError("plus_prob must lie in [0, 1]")


Model = Union[PlantedPartition, UniformRational, CompleteSigned]


@dataclass(frozen=True)
class GenSpec:
    n: int
    model: Model
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if isinstance(self.model, PlantedPartition) and self.model.clusters > max(self.n, 1):
            raise ValueError("planted cluster count cannot exceed n")


def generate(spec: GenSpec) -> SignedGraph:
    """Deterministic instance for the given GenSpec seed."""
    rng = make_rng(spec.seed, "gen")
    n = spec.n
    model = spec.model
    weights: dict = {}
    if isinstance(model, PlantedPartition):
        k = model.clusters
        for u in range(n):
            for v in range(u + 1, n):
                w = 1 if u % k == v % k else -1
                if model.flip_prob and rng.random() < model.flip_prob:
                    w = -w
                weights[(u, v)] = Fraction(w)
    elif isinstance(model, UniformRational):
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < model.density:
                    q = rng.randint(1, model.denominator_bound)
                    p = rng.randint(1, q)
                    if rng.random() < 0.5:
                        p = -p
                    weights[(u, v)] = Fraction(p, q)
    elif isinstance(model, CompleteSigned):
        for u in range(n):
            for v in range(u + 1, n):
                weights[(u, v)] = Fraction(1 if rng.random() < model.plus_prob else -1)
    else:
        raise TypeError(f"unknown model {model!r}")
    return SignedGraph(n, weights)
