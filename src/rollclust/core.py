"""Signed graphs with exact rational weights, clusterings, and objectives.

A SignedGraph is an undirected weighted graph on nodes 0..n-1 whose weights
are exact rationals; weight 0 and "no edge" are the same thing, so zero
weights are never stored. Inside, weights are integers over one per-graph
`scale`, and only this module knows it: Fractions appear only at the API
and report boundary. A Clustering is a total assignment of nodes to
cluster labels, canonicalized so labels appear in first-occurrence order.

Two complementary objectives are supported. Under MaxAgree an edge
contributes its absolute weight when a positive edge lies inside a cluster
or a negative edge crosses clusters; MinDisagree counts the complementary
edges. For every clustering the two values sum to the total absolute
weight of the graph.

All arithmetic is exact; nothing here uses floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .jsonutil import frac_to_str


class ObjectiveKind(Enum):
    MAX_AGREE = "max"
    MIN_DISAGREE = "min"


class GraphFormatError(ValueError):
    """Raised when graph text input violates the file format."""


def as_fraction(value) -> Fraction:
    """value as a Fraction; a float is a TypeError, since it would smuggle
    binary rounding error into exact arithmetic."""
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational, not the float {value!r}")
    return Fraction(value)


@dataclass(frozen=True, init=False, repr=False)
class SignedGraph:
    """Undirected graph on n nodes with exact rational edge weights.

    Immutable after construction. Pairs are stored with the smaller node
    first; zero weights are dropped; self-loops are rejected. Weights are
    stored as ints over `scale`, the lcm of their reduced denominators, so
    equal weights share a scale and equality compares n, scale and weights.
    """

    # the records here declare __slots__ by hand: on Python 3.11 the
    # __setattr__ that slots=True generates raises TypeError, not
    # FrozenInstanceError, for a name that is not a field
    __slots__ = ("n", "scale", "_weights")
    n: int
    scale: int
    _weights: "dict[tuple[int, int], int]"

    def __init__(self, n: int, weights: Mapping | None = None):
        if n < 0:
            raise ValueError("node count must be non-negative")
        store: dict[tuple[int, int], Fraction] = {}
        for (u, v), w in (weights or {}).items():
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            w = as_fraction(w)
            key = (u, v) if u < v else (v, u)
            # record zeros too, so a later nonzero weight is compared with them
            if key in store and store[key] != w:
                raise ValueError(f"conflicting weights for pair {key}")
            store[key] = w
        scale = math.lcm(1, *(w.denominator for w in store.values()))
        scaled = {key: w.numerator * (scale // w.denominator) for key, w in store.items() if w}
        self._set_scaled(n, scale, scaled)

    @classmethod
    def _from_scaled(cls, n: int, scale: int, weights: dict) -> "SignedGraph":
        """Build from ints over a possibly unreduced scale, unchecked. Its two
        callers, RolledGraph and round_graph, pass a positive scale and
        nonzero weights on keys (u, v) with 0 <= u < v < n."""
        g = cls.__new__(cls)
        g._set_scaled(n, scale, weights)
        return g

    def _set_scaled(self, n: int, scale: int, weights: dict) -> None:
        # the one place the fields are set, unchecked: reduce to the canonical
        # scale, the lcm of the weights' reduced denominators; sort the pairs
        d = math.gcd(scale, *weights.values())
        # keys are unique, so sorting them alone orders the items, at about
        # half the cost of sorting the items
        keys = sorted(weights)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scale", scale // d)
        object.__setattr__(self, "_weights", {k: weights[k] // d for k in keys})

    def weight(self, u: int, v: int) -> Fraction:
        """Weight of the pair, Fraction(0) when absent."""
        key = (u, v) if u < v else (v, u)
        return Fraction(self._weights.get(key, 0), self.scale)

    def edges(self) -> Iterator[tuple[int, int, Fraction]]:
        """Nonzero edges as (u, v, w) with u < v, in sorted pair order."""
        for (u, v), w in self._weights.items():
            yield u, v, Fraction(w, self.scale)

    def scaled_weights(self):
        """Read-only view of the ((u, v), w * scale) items, u < v, in sorted
        pair order. Every value is a nonzero int."""
        return self._weights.items()

    def abs_weight(self, pairs: Iterable[tuple[int, int]]) -> Fraction:
        """Exact sum of |weight| over the given (u, v) pairs, u < v; pairs
        without an edge add 0."""
        weights = self._weights
        return Fraction(sum(abs(weights.get(pair, 0)) for pair in pairs), self.scale)

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def max_abs_weight(self) -> Fraction:
        return Fraction(max((abs(w) for w in self._weights.values()), default=0), self.scale)

    def __hash__(self) -> int:
        # _weights is a dict, so hash its items
        return hash((self.n, self.scale, tuple(self._weights.items())))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True, init=False, repr=False)
class Clustering:
    """Total assignment of nodes 0..n-1 to clusters.

    Labels are canonicalized to first-occurrence order (node 0 is always in
    cluster 0), so two assignments that induce the same partition compare
    equal. Immutable.
    """

    __slots__ = ("labels",)
    labels: "tuple[int, ...]"

    def __init__(self, labels: Iterable[int]):
        raw = list(labels)
        remap: dict[int, int] = {}
        canon = []
        for lbl in raw:
            if lbl not in remap:
                remap[lbl] = len(remap)
            canon.append(remap[lbl])
        object.__setattr__(self, "labels", tuple(canon))

    @classmethod
    def singletons(cls, n: int) -> "Clustering":
        return cls(range(n))

    @classmethod
    def one_cluster(cls, n: int) -> "Clustering":
        return cls([0] * n)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Clustering({list(self.labels)})"


def _contributing(g: SignedGraph, c: Clustering, objective: ObjectiveKind):
    """Yield the ((u, v), w * scale) items that count toward the objective."""
    if len(c) != g.n:
        raise ValueError(f"clustering covers {len(c)} nodes, graph has {g.n}")
    labels = c.labels
    agree = objective is ObjectiveKind.MAX_AGREE
    for pair, w in g.scaled_weights():
        u, v = pair
        # MaxAgree: positive inside or negative across; MinDisagree: the rest
        if ((w > 0) == (labels[u] == labels[v])) == agree:
            yield pair, w


def contributing_edges(
    g: SignedGraph, c: Clustering, objective: ObjectiveKind
) -> frozenset:
    """Edges whose weight counts toward the objective under this clustering.

    MaxAgree keeps positive edges inside clusters and negative edges across;
    MinDisagree keeps the complement. Zero-weight pairs never contribute,
    and the two objectives' contributing sets partition the nonzero edges.
    """
    return frozenset(pair for pair, _ in _contributing(g, c, objective))


def scaled_value(g: SignedGraph, c: Clustering, objective: ObjectiveKind) -> int:
    """clustering_value times g.scale: the int sum of |weight * scale| over
    the contributing edges."""
    return sum(abs(w) for _, w in _contributing(g, c, objective))


def clustering_value(
    g: SignedGraph, c: Clustering, objective: ObjectiveKind
) -> Fraction:
    """Sum of |weight| over the contributing edges. Exact, non-negative."""
    return Fraction(scaled_value(g, c, objective), g.scale)


# --- graph text format ----------------------------------------------------
#
# Line 1: "n m". Then exactly m lines "u v w" with 0-based node ids and w a
# rational written as a decimal or p/q. Duplicate pairs and self-loops are
# format errors. Written files round-trip exactly.


def parse_weight(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad weight {token!r}: {exc}") from None


def parse_graph(text: str) -> SignedGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(lines) - 1}")
    weights: dict[tuple[int, int], Fraction] = {}
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {idx}: expected 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {idx}: bad node ids in {line!r}") from None
        if u == v:
            raise GraphFormatError(f"line {idx}: self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {idx}: node id out of range 0..{n - 1}")
        key = (u, v) if u < v else (v, u)
        if key in weights:
            raise GraphFormatError(f"line {idx}: duplicate pair {key}")
        weights[key] = parse_weight(parts[2])
    return SignedGraph(n, weights)


def format_graph(g: SignedGraph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v} {frac_to_str(w)}" for u, v, w in g.edges())
    return "\n".join(lines) + "\n"


def read_graph(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph(g: SignedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
