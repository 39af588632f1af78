"""Clustering solvers: exact, trivial half-bound, randomized pivot, local search.

Every solver returns a SolveResult: (clustering, value, budget_exhausted).
MaxAgree and MinDisagree sum to the total absolute weight on every
clustering, so they share their optima; the exact solver and the local
search work in agreement only and read MinDisagree off it at the end.

The exact solver walks restricted-growth label strings depth first in
scaled-integer arithmetic. Its incumbent starts just below the local
search's agreement, and a per-node placement bound prunes the branches
that cannot strictly beat it. The bound credits the edges among the
unplaced nodes with at most their own optimum; the same walk first finds
those optima for the back half's suffixes, smallest first (Russian-doll
search). As the bound never undercuts a subtree's best leaf, the first
optimum in enumeration order is kept for both objectives. A child's bound
is first read off its parent, before the child is placed: placing a node
raises the unplaced nodes' best placements only along its positive edges,
each by at most that edge's own gain, so a child this cannot lift above
the incumbent is one its own entry check would prune, and it is skipped
unplaced. The walk so expands the same nodes and keeps the same first
optimum. A second, deliberately naive enumerator (bitmask block merging
plus a from-scratch value scan) exists purely as a cross-check; the two
share no enumeration or scoring code.

solve_trivial_max returns the better of one-cluster and all-singletons,
which always captures at least half the total absolute weight. solve_pivot
is the classic randomized pivot rule for complete +-1 instances under
MinDisagree. solve_local_search improves single-node moves under a move
budget with deterministic tie-breaking. It keeps each node's signed scaled
weight to every cluster it touches and caches each node's best move. A
move changes two of each neighbour's sums, and the neighbour's cached move
is updated from those two; it is rescanned only when its target lost
weight. A move gains MaxAgree exactly what it takes off MinDisagree, so
both objectives take the same moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from .streams import make_rng

# Bell(13), about 2.8e7 leaves, is the worst case when nothing prunes, not the
# typical cost; beyond it exhaustive search stops being a desk tool.
EXACT_NODE_LIMIT = 13
# local-search moves allowed by default, in the API and on the command line
DEFAULT_BUDGET = 1000


class SolverKind(Enum):
    EXACT = "exact"
    TRIVIAL_MAX = "trivial"
    PIVOT = "pivot"
    LOCAL_SEARCH = "local"


@dataclass(frozen=True)
class SolverSpec:
    kind: SolverKind
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SolveResult:
    clustering: Clustering
    value: Fraction
    budget_exhausted: bool = False


def _sign_totals(g: SignedGraph) -> "tuple[int, int]":
    """Positive and negative weight totals in units of 1/g.scale: the
    one-cluster and singletons MaxAgree values (and the singletons and
    one-cluster MinDisagree values)."""
    pos = neg = 0
    for _, w in g.scaled_weights():
        if w > 0:
            pos += w
        else:
            neg -= w
    return pos, neg


def solve_exact(g: SignedGraph, objective: ObjectiveKind) -> SolveResult:
    """Optimal clustering by exhaustive search over set partitions.

    Enumerates restricted-growth strings depth first, maximizing agreement;
    ties go to the first optimum in that order. MaxAgree and MinDisagree sum
    to the total weight on every clustering, so the MinDisagree optimum is
    the same clustering, valued at the total minus its agreement. Rejects
    graphs with more than EXACT_NODE_LIMIT nodes.

    Placement bound: placing node u credits fresh[u], the |weight| of its
    negative edges to later nodes, so current counts every negative edge
    from a placed to an unplaced node as agreeing. An unplaced node x then
    adds to[x][l], its signed weight to placed cluster l, if it joins l,
    and 0 in a fresh cluster. So no leaf under depth v beats current +
    opt[v] + sum over x >= v of top[x], where top[x] = max(0, max_l
    to[x][l]) and opt[v] bounds the best agreement among the edges inside
    the unplaced suffix v..n-1. top[x] is kept as a running maximum:
    placing a node raises it along a positive edge, a negative edge
    rescans x's row only when the entry it lowers was the maximum, and
    backtracking puts the saved values back.

    opt[v] is opt[v+1] plus the |weight| of v's later edges, which is exact
    for suffixes of one and two nodes. For n//2 <= v < n-2 it is then
    tightened to the suffix's exact optimum (Russian-doll search), smallest
    suffix first: the same walk runs on v..n-1 alone, bounded by the opt
    values already found, from the incumbent opt[v+1] + fresh[v], which
    puts v alone beside the next suffix's optimum and is always attained.
    Exact optima of the front half cost more search nodes than they save.
    The main walk's incumbent starts at the local search's agreement minus
    1; as the bound never undercuts a subtree's best leaf, no ancestor of
    the first optimal leaf is pruned, and that leaf is the one kept.

    Child pre-check: before v is placed in label lbl, the child's entry
    bound is bounded above from the parent's state. Placing v adds fresh[v]
    + to[v][lbl] to current and changes top only at v's later neighbours: a
    positive edge (x, w) sets top[x] to max(top[x], to[x][lbl] + w), and a
    negative one never raises it. So current + fresh[v] + to[v][lbl] +
    opt[v+1] + sum(top[v+1:]), plus max(0, to[x][lbl] + w - top[x]) over
    v's positive later edges, is never below the child's entry bound; a
    child it cannot lift above best_val would be pruned on entry, and is
    skipped without being placed. The cheap form adds lift[v], the sum of
    v's positive later weights, in place of that sum, which it bounds as
    to[x][lbl] <= top[x]; the per-edge sum is taken only when the cheap
    form cannot skip. As only children the entry check would prune are
    skipped, the walk expands the same nodes and keeps the same first
    optimum.
    """
    n = g.n
    if n > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver accepts at most {EXACT_NODE_LIMIT} nodes, got {n}")
    one_cluster, singletons = _sign_totals(g)
    # later[u] lists (v, w * scale), v > u, and ups[u] its positive edges,
    # which weigh lift[u] together; opt[u] starts as the |weight| of u's row
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ups: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    fresh = [0] * n
    lift = [0] * n
    opt = [0] * (n + 1)
    for (u, v), w in g.scaled_weights():
        later[u].append((v, w))
        if w > 0:
            ups[u].append((v, w))
            lift[u] += w
        else:
            fresh[u] -= w
        opt[u] += abs(w)
    # a label no placed node holds reads 0, the fresh cluster's max(0, .);
    # fewer than n labels are in use while a node is unplaced, so top[x] =
    # max(to[x]) is x's best placement
    to = [[0] * n for _ in range(n)]
    top = [0] * n
    labels = [0] * n

    def walk(v: int, k: int, current: int) -> None:
        nonlocal best_val, best_labels
        if current + opt[v] + sum(top[v:]) <= best_val:
            return
        if v == n:
            best_val = current
            best_labels = labels.copy()
            return
        saved = top[v + 1 :]
        # the bound every child starts from, before v's later edges raise top
        base = current + fresh[v] + opt[v + 1] + sum(saved)
        for lbl in range(k + 1):
            bound = base + to[v][lbl]
            if bound + lift[v] <= best_val:
                continue
            for x, w in ups[v]:
                d = to[x][lbl] + w - top[x]
                if d > 0:
                    bound += d
            if bound <= best_val:
                continue
            labels[v] = lbl
            for x, w in later[v]:
                row = to[x]
                s = row[lbl] = row[lbl] + w
                if w > 0:
                    if s > top[x]:
                        top[x] = s
                elif s - w == top[x]:
                    top[x] = max(row)
            walk(v + 1, k + 1 if lbl == k else k, current + fresh[v] + to[v][lbl])
            for x, w in later[v]:
                to[x][lbl] -= w
            top[v + 1 :] = saved

    for v in range(n - 1, -1, -1):
        opt[v] += opt[v + 1]
        if n // 2 <= v < n - 2:
            best_val = opt[v + 1] + fresh[v]
            walk(v, 0, 0)
            opt[v] = best_val
    best_labels: "list[int] | None" = None
    best_val = int(solve_local_search(g, ObjectiveKind.MAX_AGREE).value * g.scale) - 1
    walk(0, 0, 0)
    assert best_labels is not None
    if objective is ObjectiveKind.MIN_DISAGREE:
        best_val = one_cluster + singletons - best_val
    return SolveResult(Clustering(best_labels), Fraction(best_val, g.scale))


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
    maximize = objective is ObjectiveKind.MAX_AGREE
    best: "tuple[Fraction, Clustering] | None" = None
    for labels in iter_partitions_by_merging(g.n):
        c = Clustering(labels)
        val = clustering_value(g, c, objective)
        if best is None or (val > best[0] if maximize else val < best[0]):
            best = (val, c)
    assert best is not None  # every n >= 0 has at least one partition
    return SolveResult(best[1], best[0])


def solve_trivial_max(g: SignedGraph) -> SolveResult:
    """Better of one-cluster and all-singletons under MaxAgree; always at
    least half the total absolute weight."""
    pos, neg = _sign_totals(g)
    c = Clustering.one_cluster(g.n) if pos >= neg else Clustering.singletons(g.n)
    value = Fraction(max(pos, neg), g.scale)
    return SolveResult(c, value)


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
    return SolveResult(c, clustering_value(g, c, ObjectiveKind.MIN_DISAGREE))


def _best_move(sums: "dict[int, int]", a: int) -> "tuple[int, int | None]":
    """The gain of a node's best move out of cluster a, and its target: the
    heaviest other cluster with positive net weight (lowest label on a tie),
    or None when there is none; zero sums are never stored."""
    top, target = 0, None
    for lbl, s in sums.items():
        if lbl != a and (s > top or s == top and lbl < target):
            top, target = s, lbl
    return top - sums.get(a, 0), target


def solve_local_search(
    g: SignedGraph, objective: ObjectiveKind, budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """Single-node-move local search from the better trivial clustering.

    Each step applies the best strictly improving move of one node to an
    existing cluster or a fresh singleton; ties break to the lowest node
    index, then the lowest target label. Stops at a local optimum or after
    `budget` moves; `budget_exhausted` is set when the budget ran out while
    an improving move was still left. Deterministic.

    net[v][l] holds the signed scaled weight from v to cluster l, with zero
    sums dropped. Moving v from a to l raises MaxAgree and lowers
    MinDisagree by the same gain, net[v][l] - net[v][a], so one move rule
    serves both objectives. Every cluster to which v has no net weight
    scores like the fresh singleton, so the lowest such label stands for
    all of them. gains[v] and targets[v] cache v's best move, with target
    None for such a cluster; a step takes the first largest gain and
    resolves a None target from the labels in use only for the node it
    moves. A move of v from a to b changes, for each neighbour u, only
    net[u][a] and net[u][b]: one cluster loses weight and the other gains
    it. u's cached move then stands unless the gaining cluster now beats
    it, so it is updated from the gaining cluster's sum alone; only when
    u's cached target is the cluster that lost weight is u rescanned. v is
    rescanned, and no other node's sums or label changed, nor does any
    gain depend on which labels are in use. The search tracks agreement,
    the start value plus the running total of the gains, and reads
    MinDisagree off it at the end.

    Only strictly improving moves are taken, so a graph whose positive and
    negative totals tie never leaves the one-cluster start, even when a
    move away from it would gain later.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    n = g.n
    if n == 0:
        return SolveResult(Clustering([]), Fraction(0))

    pos, neg = _sign_totals(g)
    agree = max(pos, neg)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in g.scaled_weights():
        adj[u].append((v, w))
        adj[v].append((u, w))
    # one cluster scores pos agreements and neg disagreements, singletons
    # the reverse, so both objectives prefer one cluster iff pos >= neg
    if pos >= neg:
        labels = [0] * n
        net = [{0: s} if (s := sum(w for _, w in row)) else {} for row in adj]
    else:
        labels = list(range(n))
        net = [dict(row) for row in adj]
    gains: list[int] = [0] * n
    targets: "list[int | None]" = [None] * n
    for v in range(n):
        gains[v], targets[v] = _best_move(net[v], labels[v])

    budget_exhausted = False
    for move in range(budget + 1):
        gain = max(gains)
        if gain <= 0:
            break
        if move == budget:
            budget_exhausted = True
            break
        v = gains.index(gain)
        a, b = labels[v], targets[v]
        if b is None:
            used = sorted(set(labels))
            b = next((l for l in used if l != a and l not in net[v]), used[-1] + 1)
        labels[v] = b
        agree += gain
        for u, w in adj[v]:
            sums, c, t = net[u], labels[u], targets[u]
            top = gains[u] + sums.get(c, 0)
            sa, sb = sums.get(a, 0) - w, sums.get(b, 0) + w
            if sa:
                sums[a] = sa
            else:
                del sums[a]
            if sb:
                sums[b] = sb
            else:
                del sums[b]
            lost, won, s = (a, b, sb) if w > 0 else (b, a, sa)
            if t == lost:
                gains[u], targets[u] = _best_move(sums, c)
                continue
            # t stands unless won now beats it; top is 0 iff t is None
            if won != c and (s > top or s == top > 0 and won < t):
                top, targets[u] = s, won
            gains[u] = top - sums.get(c, 0)
        gains[v], targets[v] = _best_move(net[v], b)

    if objective is ObjectiveKind.MIN_DISAGREE:
        agree = pos + neg - agree
    return SolveResult(Clustering(labels), Fraction(agree, g.scale), budget_exhausted)


def budget_note(budget: int) -> str:
    """What to tell the user when a local search set budget_exhausted."""
    return f"local search stopped at its budget of {budget} moves with an improving move left"


def run_solver(g: SignedGraph, objective: ObjectiveKind, spec: SolverSpec) -> SolveResult:
    """Dispatch on the SolverSpec's kind."""
    if spec.kind is SolverKind.EXACT:
        return solve_exact(g, objective)
    if spec.kind is SolverKind.TRIVIAL_MAX:
        if objective is not ObjectiveKind.MAX_AGREE:
            raise ValueError("trivial solver only targets MaxAgree")
        return solve_trivial_max(g)
    if spec.kind is SolverKind.PIVOT:
        if objective is not ObjectiveKind.MIN_DISAGREE:
            raise ValueError("pivot only targets MinDisagree")
        return solve_pivot(g, seed=spec.seed)
    return solve_local_search(g, objective, budget=spec.budget)
