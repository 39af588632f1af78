"""Clustering solvers: exact, trivial half-bound, randomized pivot, local search.

The exact solver walks restricted-growth label strings depth first, scoring
incrementally in scaled-integer arithmetic and pruning branches that cannot
strictly beat the incumbent, so the first optimum in enumeration order is
kept. A second, deliberately naive enumerator (bitmask block merging plus a
from-scratch value scan) exists purely as a cross-check; the two share no
enumeration or scoring code.

solve_trivial_max returns the better of one-cluster and all-singletons,
which always captures at least half the total absolute weight. solve_pivot
is the classic randomized pivot rule for complete +-1 instances under
MinDisagree. solve_local_search improves single-node moves under a move
budget with deterministic tie-breaking. It keeps each node's signed scaled
weight to every cluster it touches and updates those sums over the moved
node's edges only; a move gains MaxAgree exactly what it takes off
MinDisagree, so both objectives share one move rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from .streams import make_rng

# Bell(13) is about 2.8e7; beyond that exhaustive search stops being a desk tool.
EXACT_NODE_LIMIT = 13


class SolverKind(Enum):
    EXACT = "exact"
    TRIVIAL_MAX = "trivial"
    PIVOT = "pivot"
    LOCAL_SEARCH = "local"

    @classmethod
    def parse(cls, text: str) -> "SolverKind":
        for kind in cls:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown solver {text!r}")


@dataclass(frozen=True)
class SolverSpec:
    kind: SolverKind
    seed: int = 0
    budget: int = 1000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SolveResult:
    clustering: Clustering
    value: Fraction
    objective: ObjectiveKind
    solver: SolverSpec
    budget_exhausted: bool = False


def _sign_totals(g: SignedGraph) -> "tuple[int, int]":
    """Positive and negative weight totals in units of 1/g.scale: the
    one-cluster and singletons MaxAgree values (and the singletons and
    one-cluster MinDisagree values)."""
    pos = sum(w for _, w in g.scaled_weights() if w > 0)
    neg = -sum(w for _, w in g.scaled_weights() if w < 0)
    return pos, neg


def solve_exact(g: SignedGraph, objective: ObjectiveKind) -> SolveResult:
    """Optimal clustering by exhaustive search over set partitions.

    Enumerates restricted-growth strings depth first; ties go to the first
    optimum in that order. Rejects graphs with more than EXACT_NODE_LIMIT
    nodes.
    """
    n = g.n
    if n > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver accepts at most {EXACT_NODE_LIMIT} nodes, got {n}")
    spec = SolverSpec(SolverKind.EXACT)
    if n == 0:
        return SolveResult(Clustering([]), Fraction(0), objective, spec)

    one_cluster, singletons = _sign_totals(g)
    # prev[v] lists (u, w * scale) for u < v
    prev: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in g.scaled_weights():
        prev[v].append((u, w))
    maximize = objective is ObjectiveKind.MAX_AGREE
    total = one_cluster + singletons

    # Largest value the not-yet-assigned suffix can still add (MaxAgree) or
    # must at least not add (MinDisagree prunes on current alone).
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + sum(abs(w) for _, w in prev[v])

    if maximize:
        best_val = max(one_cluster, singletons) - 1
    else:
        best_val = min(total - one_cluster, total - singletons) + 1
    best_labels: "list[int] | None" = None
    labels = [0] * n

    def walk(v: int, k: int, current: int) -> None:
        nonlocal best_val, best_labels
        if maximize:
            if current + suffix[v] <= best_val:
                return
        else:
            if current >= best_val:
                return
        if v == n:
            best_val = current
            best_labels = labels.copy()
            return
        pos = [0] * (k + 1)
        neg = [0] * (k + 1)
        tot_pos = 0
        tot_neg = 0
        for u, w in prev[v]:
            lbl = labels[u]
            if w > 0:
                pos[lbl] += w
                tot_pos += w
            else:
                neg[lbl] -= w
                tot_neg -= w
        for lbl in range(k + 1):
            if maximize:
                delta = pos[lbl] + tot_neg - neg[lbl]
            else:
                delta = neg[lbl] + tot_pos - pos[lbl]
            labels[v] = lbl
            walk(v + 1, k + 1 if lbl == k else k, current + delta)
        labels[v] = 0

    walk(0, 0, 0)
    assert best_labels is not None
    return SolveResult(
        Clustering(best_labels), Fraction(best_val, g.scale), objective, spec
    )


def iter_partitions_by_merging(n: int) -> Iterator["list[int]"]:
    """All set partitions of range(n) as label lists, by recursively carving
    out the block containing the lowest unplaced node via bitmask subsets.
    Independent of the restricted-growth walk; used for cross-checks."""
    if n == 0:
        yield []
        return

    def blocks(mask: int):
        if mask == 0:
            yield []
            return
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        sub = rest
        while True:
            block = sub | (1 << low)
            for tail in blocks(mask & ~block):
                yield [block] + tail
            if sub == 0:
                break
            sub = (sub - 1) & rest

    for part in blocks((1 << n) - 1):
        labels = [0] * n
        for idx, block in enumerate(part):
            for v in range(n):
                if block >> v & 1:
                    labels[v] = idx
        yield labels


def solve_exact_reference(g: SignedGraph, objective: ObjectiveKind) -> SolveResult:
    """Naive exhaustive solver: bitmask-merge enumeration, from-scratch
    evaluation. Slow on purpose; exists to cross-check solve_exact."""
    if g.n > 10:
        raise ValueError("reference solver is for small cross-checks (n <= 10)")
    spec = SolverSpec(SolverKind.EXACT)
    maximize = objective is ObjectiveKind.MAX_AGREE
    best: "tuple[Fraction, Clustering] | None" = None
    for labels in iter_partitions_by_merging(g.n):
        c = Clustering(labels)
        val = clustering_value(g, c, objective)
        if best is None or (val > best[0] if maximize else val < best[0]):
            best = (val, c)
    assert best is not None  # every n >= 0 has at least one partition
    return SolveResult(best[1], best[0], objective, spec)


def solve_trivial_max(g: SignedGraph) -> SolveResult:
    """Better of one-cluster and all-singletons under MaxAgree; always at
    least half the total absolute weight."""
    pos, neg = _sign_totals(g)
    c = Clustering.one_cluster(g.n) if pos >= neg else Clustering.singletons(g.n)
    value = Fraction(max(pos, neg), g.scale)
    return SolveResult(c, value, ObjectiveKind.MAX_AGREE, SolverSpec(SolverKind.TRIVIAL_MAX))


def _require_complete_pm1(g: SignedGraph) -> None:
    expected = g.n * (g.n - 1) // 2
    if g.edge_count != expected or any(abs(w) != 1 for _, _, w in g.edges()):
        raise ValueError("pivot requires a complete graph with +-1 weights")


def solve_pivot(g: SignedGraph, seed: int = 0) -> SolveResult:
    """Randomized pivot for complete +-1 instances under MinDisagree: pick a
    uniformly random unclustered node, cluster it with its unclustered +1
    neighbors, repeat. Expected value is within 3x of optimal."""
    _require_complete_pm1(g)
    rng = make_rng(seed, "pivot")
    labels = [-1] * g.n
    remaining = list(range(g.n))
    next_label = 0
    while remaining:
        pivot = remaining[rng.randrange(len(remaining))]
        for v in remaining:
            if v == pivot or g.weight(pivot, v) > 0:
                labels[v] = next_label
        next_label += 1
        remaining = [v for v in remaining if labels[v] < 0]
    c = Clustering(labels)
    value = clustering_value(g, c, ObjectiveKind.MIN_DISAGREE)
    return SolveResult(c, value, ObjectiveKind.MIN_DISAGREE, SolverSpec(SolverKind.PIVOT, seed=seed))


def _shift(sums: "dict[int, int]", label: int, w: int) -> None:
    """Add w to sums[label], dropping the entry when it cancels to 0."""
    s = sums.get(label, 0) + w
    if s:
        sums[label] = s
    else:
        del sums[label]


def solve_local_search(
    g: SignedGraph, objective: ObjectiveKind, seed: int = 0, budget: int = 1000
) -> SolveResult:
    """Single-node-move local search from the better trivial clustering.

    Each step applies the best strictly improving move of one node to an
    existing cluster or a fresh singleton; ties break to the lowest node
    index, then the lowest target label. Stops at a local optimum or after
    `budget` moves; `budget_exhausted` is set when the budget ran out while
    an improving move was still left. Deterministic; the seed is carried
    only for provenance.

    net[v][l] holds the signed scaled weight from v to cluster l, with zero
    sums dropped. Moving v from a to l raises MaxAgree and lowers
    MinDisagree by the same gain, net[v][l] - net[v][a], so one move rule
    serves both objectives. Every cluster to which v has no net weight
    scores like the fresh singleton, so the lowest such label stands for
    all of them. A move from a to b updates the sums of v's neighbours in
    O(deg v), and each step is one pass over the sums. The value is the
    start value plus the running total of the gains.

    Only strictly improving moves are taken, so a graph whose positive and
    negative totals tie never leaves the one-cluster start, even when a
    move away from it would gain later.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    spec = SolverSpec(SolverKind.LOCAL_SEARCH, seed=seed, budget=budget)
    n = g.n
    if n == 0:
        return SolveResult(Clustering([]), Fraction(0), objective, spec)

    maximize = objective is ObjectiveKind.MAX_AGREE
    pos, neg = _sign_totals(g)
    # one cluster scores pos agreements and neg disagreements, singletons
    # the reverse, so both objectives prefer one cluster iff pos >= neg
    labels = [0] * n if pos >= neg else list(range(n))
    value = max(pos, neg) if maximize else min(pos, neg)

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    net: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), w in g.scaled_weights():
        adj[u].append((v, w))
        adj[v].append((u, w))
        _shift(net[u], labels[v], w)
        _shift(net[v], labels[u], w)

    budget_exhausted = False
    for move in range(budget + 1):
        used = sorted(set(labels))
        fresh = used[-1] + 1
        best_gain, best_v, best_target = 0, -1, -1
        for v in range(n):
            sums = net[v]
            a = labels[v]
            # the heaviest other cluster with positive net weight to v, else
            # (target None) one with none; zero sums are never stored
            top, target = 0, None
            for lbl, s in sums.items():
                if lbl != a and (s > top or s == top and lbl < target):
                    top, target = s, lbl
            gain = top - sums.get(a, 0)
            if gain > best_gain:
                if target is None:
                    target = next((l for l in used if l != a and l not in sums), fresh)
                best_gain, best_v, best_target = gain, v, target
        if best_v < 0:
            break
        if move == budget:
            budget_exhausted = True
            break
        a = labels[best_v]
        labels[best_v] = best_target
        value += best_gain if maximize else -best_gain
        for u, w in adj[best_v]:
            _shift(net[u], a, -w)
            _shift(net[u], best_target, w)

    return SolveResult(
        Clustering(labels), Fraction(value, g.scale), objective, spec,
        budget_exhausted=budget_exhausted,
    )


def run_solver(g: SignedGraph, objective: ObjectiveKind, spec: SolverSpec) -> SolveResult:
    """Dispatch on the SolverSpec; the result echoes the SolverSpec it ran under."""
    if spec.kind is SolverKind.EXACT:
        res = solve_exact(g, objective)
    elif spec.kind is SolverKind.TRIVIAL_MAX:
        if objective is not ObjectiveKind.MAX_AGREE:
            raise ValueError("trivial solver only targets MaxAgree")
        res = solve_trivial_max(g)
    elif spec.kind is SolverKind.PIVOT:
        if objective is not ObjectiveKind.MIN_DISAGREE:
            raise ValueError("pivot only targets MinDisagree")
        res = solve_pivot(g, seed=spec.seed)
    else:
        res = solve_local_search(g, objective, seed=spec.seed, budget=spec.budget)
    return replace(res, solver=spec)
