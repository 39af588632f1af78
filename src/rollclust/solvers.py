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
budget with deterministic tie-breaking.
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


def solve_local_search(
    g: SignedGraph, objective: ObjectiveKind, seed: int = 0, budget: int = 1000
) -> SolveResult:
    """Single-node-move local search from the better trivial clustering.

    Each step applies the best strictly improving move of one node to an
    existing cluster or a fresh singleton; ties break to the lowest node
    index, then the lowest target label. Stops at a local optimum or after
    `budget` moves. Deterministic; the seed is carried only for provenance.
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

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in g.scaled_weights():
        adj[u].append((v, w))
        adj[v].append((u, w))

    for _ in range(budget):
        best_move = None  # (delta, node, target_label)
        used = sorted(set(labels))
        fresh = max(used) + 1
        for v in range(n):
            pos: dict[int, int] = {}
            neg: dict[int, int] = {}
            tot_pos = 0
            tot_neg = 0
            for u, w in adj[v]:
                lbl = labels[u]
                if w > 0:
                    pos[lbl] = pos.get(lbl, 0) + w
                    tot_pos += w
                else:
                    neg[lbl] = neg.get(lbl, 0) - w
                    tot_neg -= w

            def node_score(lbl: int) -> int:
                if maximize:
                    return pos.get(lbl, 0) + tot_neg - neg.get(lbl, 0)
                return neg.get(lbl, 0) + tot_pos - pos.get(lbl, 0)

            here = node_score(labels[v])
            for target in used + [fresh]:
                if target == labels[v]:
                    continue
                delta = node_score(target) - here
                improving = delta > 0 if maximize else delta < 0
                if improving and (
                    best_move is None
                    or (abs(delta) > abs(best_move[0]))
                ):
                    best_move = (delta, v, target)
        if best_move is None:
            break
        _, v, target = best_move
        labels[v] = target

    c = Clustering(labels)
    return SolveResult(c, clustering_value(g, c, objective), objective, spec)


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
