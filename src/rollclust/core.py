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
import re
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
    if type(value) is Fraction:  # immutable, so it can be shared
        return value
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
    def _from_scaled(cls, n: int, scale: int, weights: dict, ordered: bool = False) -> "SignedGraph":
        """Build from ints over a possibly unreduced scale, unchecked. Its two
        callers, RolledGraph and round_graph, pass a positive scale and
        nonzero weights on keys (u, v) with 0 <= u < v < n, and hand the dict
        over: the graph may keep it as its own. ordered says that the keys
        already come in sorted pair order, so they are not sorted again."""
        g = cls.__new__(cls)
        g._set_scaled(n, scale, weights, ordered)
        return g

    def _set_scaled(self, n: int, scale: int, weights: dict, ordered: bool = False) -> None:
        # the one place the fields are set, unchecked: sort the pairs unless
        # they come ordered, and reduce to the canonical scale, the lcm of the
        # weights' reduced denominators. Keys are unique, so sorting them
        # alone orders the items, at about half the cost of sorting the items
        if not ordered and (keys := sorted(weights)) != list(weights):
            weights = {k: weights[k] for k in keys}
        d = math.gcd(scale, *weights.values())
        if d > 1:
            weights = {k: w // d for k, w in weights.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "scale", scale // d)
        object.__setattr__(self, "_weights", weights)

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

    def abs_weight(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Sum of |weight| over the given (u, v) pairs, u < v, as an int
        over `scale`; pairs without an edge add 0."""
        get = self._weights.get
        return sum([abs(get(pair, 0)) for pair in pairs])

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def max_abs_weight(self) -> int:
        return max(map(abs, self._weights.values()), default=0)

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
        remap: dict[int, int] = {}
        canon = []
        for lbl in labels:
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


# An edge counts toward MaxAgree when ((w > 0) == same cluster), and toward
# MinDisagree otherwise; contributing_edges and scaled_values test it inline.


def _labelings(g: SignedGraph, clusterings) -> "list[tuple[int, ...]]":
    labelings = [c.labels for c in clusterings]
    for labels in labelings:
        if len(labels) != g.n:
            raise ValueError(f"clustering covers {len(labels)} nodes, graph has {g.n}")
    return labelings


def contributing_edges(
    g: SignedGraph, c: Clustering, objective: ObjectiveKind
) -> frozenset:
    """Edges whose weight counts toward the objective under this clustering.

    MaxAgree keeps positive edges inside clusters and negative edges across;
    MinDisagree keeps the complement. Zero-weight pairs never contribute,
    and the two objectives' contributing sets partition the nonzero edges.
    """
    labels = _labelings(g, (c,))[0]
    agree = objective is ObjectiveKind.MAX_AGREE
    return frozenset([pair for pair, w in g.scaled_weights()
                      if ((w > 0) == (labels[pair[0]] == labels[pair[1]])) == agree])


def scaled_values(g: SignedGraph, clusterings, objective: ObjectiveKind) -> "list[int]":
    """Each clustering's value times g.scale: the int sum of |weight * scale|
    over its contributing edges. Each distinct labeling is scored once, in
    one pass over its labels and g's edge list: the candidates that one
    grid clustering induces on its copies repeat."""
    labelings = _labelings(g, clusterings)
    edges = g.scaled_weights()
    agree = objective is ObjectiveKind.MAX_AGREE
    value = {lab: sum([abs(w) for (u, v), w in edges if ((w > 0) == (lab[u] == lab[v])) == agree])
             for lab in set(labelings)}
    return [value[lab] for lab in labelings]


def clustering_value(
    g: SignedGraph, c: Clustering, objective: ObjectiveKind
) -> Fraction:
    """Sum of |weight| over the contributing edges. Exact, non-negative."""
    return Fraction(scaled_values(g, (c,), objective)[0], g.scale)


# --- graph text format ----------------------------------------------------
#
# Line 1: "n m", with n at most MAX_NODES. Then exactly m lines "u v w" with
# 0-based node ids and w a rational written as a decimal or p/q. Duplicate
# pairs and self-loops are format errors. Written files round-trip exactly.

MAX_NODES = 10**6
# a roll's active copies times max(1, base edges): every roll into at most
# 10^4 nodes fits, the largest the 3,333^2 pairs of a 3-node base at t = 555.
# Also a generated instance's n(n-1)/2 pair draws: n = 4,899 fits, far
# below MAX_NODES
MAX_ROLL_PAIRS = 12 * 10**6
MAX_EXPONENT = 4300  # Python's own cap on the digits of an integer token


def parse_rational(token: str) -> Fraction:
    """Fraction(token), or a ValueError that names the cause without the
    token: a number of more than MAX_EXPONENT digits, which Python refuses
    to convert; a decimal exponent above MAX_EXPONENT in absolute value,
    which Fraction would expand in full; or no rational at all (1/0 too)."""
    digits = token.replace("_", "")
    if any(len(run) > MAX_EXPONENT for run in re.findall(r"\d+", digits)):
        raise ValueError(f"a number of more than {MAX_EXPONENT} digits")
    exp = re.search(r"e([-+]?\d+)", digits, re.IGNORECASE)
    if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent above {MAX_EXPONENT} in absolute value")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a rational") from None


def quoted(token: str) -> str:
    """repr(token) for an error message, or, for a token of more than 60
    characters, the repr of its first and last 20 and its length, so that
    one refused token does not write a line of thousands of characters."""
    if len(token) <= 60:
        return repr(token)
    return f"{token[:20] + '...' + token[-20:]!r} ({len(token)} characters)"


def shown(x: int, quote: bool = False) -> str:
    """A non-negative int for an error message: its decimal, in quotes if
    quote is set, and past 60 digits as quoted shows that decimal either
    way. An int of more than MAX_EXPONENT digits, which Python refuses to
    write in decimal, is measured by arithmetic instead."""
    if x < 10**60 and not quote:
        return str(x)
    if x < 10**MAX_EXPONENT:
        return quoted(str(x))
    digits = int(math.log10(x)) + 1  # a float's estimate, at most one off
    digits += (x >= 10**digits) - (x < 10 ** (digits - 1))
    return f"'{x // 10 ** (digits - 20)}...{x % 10**20:020d}' ({digits} characters)"


def parse_weight(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise GraphFormatError(f"bad weight {quoted(token)}: {exc}") from None


def parse_graph(text: str) -> SignedGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {quoted(lines[0])}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"header must be two integers, got {quoted(lines[0])}") from None
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be non-negative")
    if n > MAX_NODES:
        raise GraphFormatError(f"n = {shown(n)} is above the {MAX_NODES}-node limit")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {shown(m)} edges, found {len(lines) - 1}")
    weights: dict[tuple[int, int], Fraction] = {}
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {idx}: expected 'u v w', got {quoted(line)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {idx}: bad node ids in {quoted(line)}") from None
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
