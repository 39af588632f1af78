import random
import sys
from fractions import Fraction

import pytest

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from rollclust.harness import CompleteSigned, GenSpec, PlantedPartition, UniformRational, generate
from rollclust.roll import build_roll
from rollclust.rounding import RoundingParams, round_graph
from rollclust.solvers import (
    EXACT_NODE_LIMIT,
    SolveResult,
    SolverKind,
    SolverSpec,
    iter_partitions_by_merging,
    run_solver,
    solve_exact,
    solve_exact_reference,
    solve_local_search,
    solve_pivot,
    solve_trivial_max,
)

from invariants import total_abs_weight
from random_graphs import random_graph

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def random_complete_pm1(rng, n, plus=0.5):
    return SignedGraph(
        n,
        {
            (u, v): Fraction(1 if rng.random() < plus else -1)
            for u in range(n)
            for v in range(u + 1, n)
        },
    )


def bell(n):
    # Bell numbers by the triangle, for enumeration count checks
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1] if n else 1


def test_exact_triangle():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1, (0, 2): 1})
    res = solve_exact(g, MAX)
    assert res.value == 2
    assert clustering_value(g, res.clustering, MAX) == 2
    res_min = solve_exact(g, MIN)
    assert res_min.value == 1
    assert res.value + res_min.value == total_abs_weight(g)


def test_exact_perfect_instance():
    # two +1 cliques joined by -1 edges: zero disagreements possible
    weights = {}
    for u in range(6):
        for v in range(u + 1, 6):
            same = (u < 3) == (v < 3)
            weights[(u, v)] = Fraction(1 if same else -1)
    g = SignedGraph(6, weights)
    assert solve_exact(g, MIN).value == 0
    assert solve_exact(g, MAX).value == total_abs_weight(g)
    assert solve_exact(g, MIN).clustering == Clustering([0, 0, 0, 1, 1, 1])


def test_exact_empty_and_tiny():
    assert solve_exact(SignedGraph(0), MAX).value == 0
    assert solve_exact(SignedGraph(1), MIN).value == 0
    g = SignedGraph(2, {(0, 1): Fraction(-2, 3)})
    assert solve_exact(g, MAX).value == Fraction(2, 3)
    assert solve_exact(g, MAX).clustering == Clustering.singletons(2)


def test_exact_node_limit():
    g = SignedGraph(EXACT_NODE_LIMIT + 1)
    with pytest.raises(ValueError):
        solve_exact(g, MAX)


def two_objective_exact(g: SignedGraph, objective: ObjectiveKind) -> SolveResult:
    """solve_exact as it was when it searched each objective on its own, with
    a MinDisagree incumbent, prune rule and per-label delta. Kept as the
    oracle the agreement-only walk must match clustering for clustering."""
    n = g.n
    if n > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver accepts at most {EXACT_NODE_LIMIT} nodes, got {n}")
    if n == 0:
        return SolveResult(Clustering([]), Fraction(0))

    one_cluster = sum(w for _, w in g.scaled_weights() if w > 0)
    singletons = -sum(w for _, w in g.scaled_weights() if w < 0)
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
    return SolveResult(Clustering(best_labels), Fraction(best_val, g.scale))


def exact_differential_graph(rng, n, kind):
    if kind == "complete":
        return random_complete_pm1(rng, n, plus=rng.choice((0.3, 0.5, 0.7)))
    if kind == "planted":
        model = PlantedPartition(clusters=rng.randint(1, max(n, 1)), flip_prob=0.15)
        return generate(GenSpec(n=n, model=model, seed=rng.randrange(2**32)))
    return differential_graph(rng, n, kind)


def test_exact_matches_two_objective_oracle():
    rng = random.Random(1463)
    cases = [(n, kind, 23) for n in range(11) for kind in ("complete", "planted", "rational", "cancel")]
    cases += [(12, kind, 1) for kind in ("complete", "planted", "rational", "cancel")]
    # the node limit, where the placement bound does most of its pruning
    cases += [(EXACT_NODE_LIMIT, kind, 3) for kind in ("complete", "planted", "rational", "cancel")]
    graphs = 0
    for n, kind, count in cases:
        for _ in range(count):
            g = exact_differential_graph(rng, n, kind)
            graphs += 1
            for objective in (MAX, MIN):
                got = solve_exact(g, objective)
                expect = two_objective_exact(g, objective)
                assert got.clustering == expect.clustering, (n, kind, objective)
                assert got.value == expect.value, (n, kind, objective)
    assert graphs >= 1000


def test_exact_keeps_first_optimum_when_local_search_finds_another():
    # the warm incumbent sits one below the local search's value, so a local
    # optimum that is optimal but later in enumeration order must not win
    tied = 0
    for seed in range(300):
        g = generate(GenSpec(n=6, model=CompleteSigned(), seed=seed))
        local = solve_local_search(g, MAX)
        expect = two_objective_exact(g, MAX)
        if local.value != expect.value or local.clustering == expect.clustering:
            continue
        tied += 1
        for objective in (MAX, MIN):
            assert solve_exact(g, objective) == two_objective_exact(g, objective), (seed, objective)
    assert tied >= 50


def suffix_optima(g: SignedGraph) -> "list[int]":
    """solve_exact's suffix bounds opt[0..n] in units of 1/g.scale, computed
    apart from it: for v >= n//2 the two-objective oracle's optimum of the
    subgraph induced on v..n-1, relabelled to 0..n-v-1; below that opt[v+1]
    plus the |weight| of v's edges to later nodes."""
    n = g.n
    opt = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        if v >= n // 2:
            sub = SignedGraph(n - v, {(a - v, b - v): w for a, b, w in g.edges() if a >= v})
            value = two_objective_exact(sub, MAX).value * g.scale
            assert value.denominator == 1
            opt[v] = int(value)
        else:
            opt[v] = opt[v + 1] + sum(abs(w) for (a, _), w in g.scaled_weights() if a == v)
    return opt


def rescanning_exact(g: SignedGraph, objective: ObjectiveKind) -> SolveResult:
    """solve_exact as it was when every search node rescanned each unplaced
    node's row for its best placement, bounded by suffix_optima in place of
    the |weight| among the unplaced nodes, and checking each child's bound
    before placing it from the rescanned maxima. Kept as the oracle the
    incremental bound, the child pre-check and the suffix walks must match
    clustering for clustering and, on the main walk, node for node."""
    n = g.n
    if n > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver accepts at most {EXACT_NODE_LIMIT} nodes, got {n}")
    one_cluster = sum(w for _, w in g.scaled_weights() if w > 0)
    singletons = -sum(w for _, w in g.scaled_weights() if w < 0)
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    neg = [0] * n
    for (u, v), w in g.scaled_weights():
        later[u].append((v, w))
        neg[v] -= min(w, 0)
    # cross[d]: |weight| of the negative edges from placed to unplaced nodes at depth d
    cross = [sum(-w for (a, b), w in g.scaled_weights() if w < 0 and a < d <= b) for d in range(n + 1)]
    opt = suffix_optima(g)
    to = [[0] * n for _ in range(n)]

    best_val = int(solve_local_search(g, MAX).value * g.scale) - 1
    best_labels: "list[int] | None" = None
    labels = [0] * n

    def walk(v: int, k: int, current: int) -> None:
        nonlocal best_val, best_labels
        top = [max(row[: k + 1]) for row in to]
        if current + cross[v] + opt[v] + sum(top[v:]) <= best_val:
            return
        if v == n:
            best_val = current
            best_labels = labels.copy()
            return
        for lbl in range(k + 1):
            # a child is entered only if its bound can beat best_val with
            # each positive edge out of v raising its end's top as far as
            # it can and each negative one leaving it where it is
            raised = sum(max(0, to[x][lbl] + w - top[x]) for x, w in later[v] if w > 0)
            bound = current + neg[v] + to[v][lbl] + cross[v + 1] + opt[v + 1] + sum(top[v + 1 :])
            if bound + raised <= best_val:
                continue
            labels[v] = lbl
            for x, w in later[v]:
                to[x][lbl] += w
            walk(v + 1, k + 1 if lbl == k else k, current + neg[v] + to[v][lbl])
            for x, w in later[v]:
                to[x][lbl] -= w

    walk(0, 0, 0)
    assert best_labels is not None
    if objective is MIN:
        best_val = one_cluster + singletons - best_val
    return SolveResult(Clustering(best_labels), Fraction(best_val, g.scale))


def previous_exact(g: SignedGraph, objective: ObjectiveKind) -> SolveResult:
    """solve_exact as it was before the suffix walks: its placement bound
    counted every edge among the unplaced nodes as agreeing. Kept as the
    oracle the suffix bounds must match result for result while pruning the
    main walk to a subset of its nodes."""
    n = g.n
    if n > EXACT_NODE_LIMIT:
        raise ValueError(f"exact solver accepts at most {EXACT_NODE_LIMIT} nodes, got {n}")
    one_cluster = sum(w for _, w in g.scaled_weights() if w > 0)
    singletons = -sum(w for _, w in g.scaled_weights() if w < 0)
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    neg = [0] * n
    slack = [0] * (n + 1)
    for (u, v), w in g.scaled_weights():
        later[u].append((v, w))
        neg[v] -= min(w, 0)
        slack[u if w > 0 else v] += abs(w)
    for v in range(n - 1, -1, -1):
        slack[v] += slack[v + 1]
    to = [[0] * n for _ in range(n)]
    top = [0] * n

    best_val = int(solve_local_search(g, MAX).value * g.scale) - 1
    best_labels: "list[int] | None" = None
    labels = [0] * n

    def walk(v: int, k: int, current: int) -> None:
        nonlocal best_val, best_labels
        if current + slack[v] + sum(top[v:]) <= best_val:
            return
        if v == n:
            best_val = current
            best_labels = labels.copy()
            return
        saved = top[v + 1 :]
        for lbl in range(k + 1):
            labels[v] = lbl
            for x, w in later[v]:
                row = to[x]
                s = row[lbl] = row[lbl] + w
                if w > 0:
                    if s > top[x]:
                        top[x] = s
                elif s - w == top[x]:
                    top[x] = max(row)
            walk(v + 1, k + 1 if lbl == k else k, current + neg[v] + to[v][lbl])
            for x, w in later[v]:
                to[x][lbl] -= w
            top[v + 1 :] = saved

    walk(0, 0, 0)
    assert best_labels is not None
    if objective is MIN:
        best_val = one_cluster + singletons - best_val
    return SolveResult(Clustering(best_labels), Fraction(best_val, g.scale))


def walk_calls(solve, g: SignedGraph) -> "tuple[int, int]":
    """How many search nodes solve(g, MAX) visits, as (main, suffix): calls of
    a function named walk. A call from outside a walk starts a new walk; the
    last one started is the main walk, and the ones before it bound suffixes."""
    walks: list[int] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            if frame.f_back.f_code.co_name != "walk":
                walks.append(0)
            walks[-1] += 1

    sys.setprofile(profile)
    try:
        solve(g, MAX)
    finally:
        sys.setprofile(None)
    return walks[-1], sum(walks[:-1])


def exact_walk_cases():
    """(n, kind, graph) for the node-count differentials: n = 10 up to the
    node limit; +-1 complete and planted graphs are tie-heavy, so which
    optimum is first matters there."""
    rng = random.Random(1313)
    for n in range(10, EXACT_NODE_LIMIT + 1):
        for kind in ("complete", "planted", "uniform"):
            for _ in range(8):
                if kind == "uniform":
                    model = UniformRational(density=rng.choice((0.5, 0.8, 1.0)))
                    yield n, kind, generate(GenSpec(n=n, model=model, seed=rng.randrange(2**32)))
                else:
                    yield n, kind, exact_differential_graph(rng, n, kind)


def test_exact_matches_rescanning_oracle():
    # the incremental bound equals the rescanned one at every search node,
    # and the suffix walks find the optima the two-objective oracle finds on
    # each suffix, so both main walks visit the same nodes and keep the same
    # first optimum; each side's suffix work is left out of that count alike
    for n, kind, g in exact_walk_cases():
        for objective in (MAX, MIN):
            got = solve_exact(g, objective)
            expect = rescanning_exact(g, objective)
            assert got.clustering == expect.clustering, (n, kind, objective)
            assert got.value == expect.value, (n, kind, objective)
        nodes, suffix = walk_calls(solve_exact, g)
        assert nodes > n and nodes == walk_calls(rescanning_exact, g)[0], (n, kind)
        # one walk per suffix of three or more nodes from n//2 on
        assert suffix >= n - 2 - n // 2, (n, kind)


def test_suffix_bounds_keep_the_result_and_prune_the_main_walk():
    # the suffix optima only tighten the previous walk's bound, so the main
    # walk visits a subset of its nodes and keeps its first optimum; the
    # suffix walks are extra work, counted apart: on a graph whose previous
    # walk prunes well they can cost more than they save, but not over all
    totals = [0, 0]
    for n, kind, g in exact_walk_cases():
        for objective in (MAX, MIN):
            assert solve_exact(g, objective) == previous_exact(g, objective), (n, kind, objective)
        nodes, suffix = walk_calls(solve_exact, g)
        previous, previous_suffix = walk_calls(previous_exact, g)
        assert nodes <= previous and previous_suffix == 0, (n, kind)
        totals[0] += nodes + suffix
        totals[1] += previous
    assert totals[0] < totals[1]


def test_partition_enumerators_are_complete():
    for n in range(1, 8):
        partitions = {tuple(Clustering(labels).labels) for labels in iter_partitions_by_merging(n)}
        assert len(partitions) == bell(n)
        count = sum(1 for _ in iter_partitions_by_merging(n))
        assert count == bell(n)


def test_exact_agrees_with_reference():
    # the independent enumerator and scorer must land on the same optimum
    rng = random.Random(2718)
    for trial in range(80):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        for objective in (MAX, MIN):
            fast = solve_exact(g, objective)
            slow = solve_exact_reference(g, objective)
            assert fast.value == slow.value
            assert clustering_value(g, fast.clustering, objective) == fast.value
            assert clustering_value(g, slow.clustering, objective) == slow.value


def test_exact_solvers_commute_with_node_relabeling():
    # node v of g is node perm[v] of h: the optimum value is the same, and
    # h's optimum read back through perm scores it on g
    rng = random.Random(4242)
    for n in list(range(2, 9)) * 2:
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = SignedGraph(n, {(perm[u], perm[v]): w for u, v, w in g.edges()})
        for objective in (MAX, MIN):
            for solve in (solve_exact, solve_exact_reference):
                a, b = solve(g, objective), solve(h, objective)
                assert b.value == a.value
                back = Clustering(b.clustering.labels[perm[v]] for v in range(n))
                assert clustering_value(g, back, objective) == a.value


def test_exact_optima_are_complementary():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        vmax = solve_exact(g, MAX)
        vmin = solve_exact(g, MIN)
        assert vmax.value + vmin.value == total_abs_weight(g)
        # the same clustering is optimal for both objectives, and the walk
        # keeps the same first optimum for each
        assert clustering_value(g, vmax.clustering, MIN) == vmin.value
        assert vmax.clustering == vmin.clustering


def test_trivial_half_bound():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7))
        res = solve_trivial_max(g)
        total = total_abs_weight(g)
        assert 2 * res.value >= total
        opt = solve_exact(g, MAX)
        assert total >= opt.value >= res.value


def test_trivial_examples():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    assert solve_trivial_max(g).value == 3
    assert solve_trivial_max(g).clustering == Clustering.one_cluster(3)
    h = SignedGraph(3, {(0, 1): -1, (1, 2): -1})
    assert solve_trivial_max(h).value == 2
    assert solve_trivial_max(h).clustering == Clustering.singletons(3)


def test_no_solver_beats_exact_on_max_agree():
    rng = random.Random(7)
    for trial in range(20):
        g = random_graph(rng, 6)
        opt = solve_exact(g, MAX).value
        assert solve_trivial_max(g).value <= opt
        assert solve_local_search(g, MAX).value <= opt


def test_pivot_recovers_perfect_clustering():
    weights = {}
    for u in range(8):
        for v in range(u + 1, 8):
            same = (u % 2) == (v % 2)
            weights[(u, v)] = Fraction(1 if same else -1)
    g = SignedGraph(8, weights)
    for seed in range(10):
        res = solve_pivot(g, seed=seed)
        assert res.value == 0
        assert res.clustering == Clustering([u % 2 for u in range(8)])


def test_pivot_requires_complete_pm1():
    with pytest.raises(ValueError):
        solve_pivot(SignedGraph(3, {(0, 1): 1}))
    with pytest.raises(ValueError):
        solve_pivot(SignedGraph(3, {(0, 1): 1, (1, 2): Fraction(1, 2), (0, 2): 1}))


def test_pivot_deterministic_per_seed():
    rng = random.Random(55)
    g = random_complete_pm1(rng, 8)
    assert solve_pivot(g, seed=4).clustering == solve_pivot(g, seed=4).clustering
    results = {solve_pivot(g, seed=s).clustering for s in range(20)}
    assert len(results) > 1  # different seeds explore different pivots


def test_pivot_expected_three_approx_small():
    rng = random.Random(606)
    for _ in range(5):
        g = random_complete_pm1(rng, 7)
        opt = solve_exact(g, MIN).value
        runs = [solve_pivot(g, seed=s).value for s in range(100)]
        mean = sum(runs, Fraction(0)) / len(runs)
        assert mean <= Fraction(31, 10) * max(opt, Fraction(1))


def test_local_search_improves_and_respects_budget():
    # path +1, -1: both trivial clusterings score 1, one move reaches 2
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    res = solve_local_search(g, MAX, budget=100)
    assert res.value == 2
    assert res.value == solve_exact(g, MAX).value
    assert res.value > solve_trivial_max(g).value
    with pytest.raises(ValueError):
        solve_local_search(g, MAX, budget=0)


def test_local_search_never_below_start():
    rng = random.Random(83)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        for objective in (MAX, MIN):
            res = solve_local_search(g, objective, budget=50)
            ones = clustering_value(g, Clustering.one_cluster(g.n), objective)
            sing = clustering_value(g, Clustering.singletons(g.n), objective)
            start = max(ones, sing) if objective is MAX else min(ones, sing)
            if objective is MAX:
                assert res.value >= start
            else:
                assert res.value <= start
            assert clustering_value(g, res.clustering, objective) == res.value


def rescanning_local_search(
    g: SignedGraph, objective: ObjectiveKind, budget: int = 1000, trail: "list | None" = None
) -> SolveResult:
    """The local search as it was before it kept per-cluster sums: every
    move rescans every edge and scores every node against every used label.
    Kept as the oracle the incremental search must match move for move.
    A `trail` list receives a copy of the labels at the start and after
    each move."""
    if budget < 1:
        raise ValueError("budget must be positive")
    n = g.n
    if n == 0:
        return SolveResult(Clustering([]), Fraction(0))

    maximize = objective is ObjectiveKind.MAX_AGREE
    pos = sum(w for _, w in g.scaled_weights() if w > 0)
    neg = -sum(w for _, w in g.scaled_weights() if w < 0)
    # one cluster scores pos agreements and neg disagreements, singletons
    # the reverse, so both objectives prefer one cluster iff pos >= neg
    labels = [0] * n if pos >= neg else list(range(n))

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in g.scaled_weights():
        adj[u].append((v, w))
        adj[v].append((u, w))

    if trail is not None:
        trail.append(labels.copy())
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
        if trail is not None:
            trail.append(labels.copy())

    c = Clustering(labels)
    return SolveResult(c, clustering_value(g, c, objective))


def scanning_local_search(
    g: SignedGraph, objective: ObjectiveKind, budget: int = 1000, trail: "list | None" = None
) -> SolveResult:
    """The local search as it was before it cached each node's best move:
    per-node cluster sums are updated over the moved node's edges, but every
    move scans every node's sums. Kept as the second oracle the cached
    search must match move for move, budget_exhausted included. A `trail`
    list receives a copy of the labels at the start and after each move."""
    if budget < 1:
        raise ValueError("budget must be positive")
    n = g.n
    if n == 0:
        return SolveResult(Clustering([]), Fraction(0))

    def shift(sums, label, w):
        s = sums.get(label, 0) + w
        if s:
            sums[label] = s
        else:
            del sums[label]

    pos = sum(w for _, w in g.scaled_weights() if w > 0)
    neg = -sum(w for _, w in g.scaled_weights() if w < 0)
    labels = [0] * n if pos >= neg else list(range(n))
    agree = max(pos, neg)

    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    net: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), w in g.scaled_weights():
        adj[u].append((v, w))
        adj[v].append((u, w))
        shift(net[u], labels[v], w)
        shift(net[v], labels[u], w)

    if trail is not None:
        trail.append(labels.copy())
    budget_exhausted = False
    for move in range(budget + 1):
        used = sorted(set(labels))
        fresh = used[-1] + 1
        best_gain, best_v, best_target = 0, -1, -1
        for v in range(n):
            sums = net[v]
            a = labels[v]
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
        agree += best_gain
        for u, w in adj[best_v]:
            shift(net[u], a, -w)
            shift(net[u], best_target, w)
        if trail is not None:
            trail.append(labels.copy())

    if objective is ObjectiveKind.MIN_DISAGREE:
        agree = pos + neg - agree
    return SolveResult(Clustering(labels), Fraction(agree, g.scale), budget_exhausted)


def differential_graph(rng, n, kind):
    """Random graph whose weights tie (+-1), mix denominators (rational), or
    let a node's net weight to a cluster cancel to 0 (cancel: +-1/2 and +-1,
    so 1/2 + 1/2 - 1 is common)."""
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.7:
                if kind == "pm1":
                    w = Fraction(rng.choice((-1, 1)))
                elif kind == "rational":
                    w = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
                else:
                    w = Fraction(rng.choice((-2, -1, 1, 2)), 2)
                if w:
                    weights[(u, v)] = w
    return SignedGraph(n, weights)


LOCAL_BUDGETS = (1, 2, 3, 5, 1000)


def test_local_search_matches_rescanning_oracle():
    rng = random.Random(20070415)
    rescan_budgets = sorted({c for b in LOCAL_BUDGETS for c in (b, b + 1)})
    graphs = 0
    for n in range(14):
        for kind in ("pm1", "rational", "cancel"):
            for _ in range(30):
                g = differential_graph(rng, n, kind)
                graphs += 1
                for objective in (MAX, MIN):
                    rescan = {b: rescanning_local_search(g, objective, budget=b) for b in rescan_budgets}
                    for b in LOCAL_BUDGETS:
                        got = solve_local_search(g, objective, budget=b)
                        assert got == scanning_local_search(g, objective, budget=b), (n, kind, objective, b)
                        assert got.clustering == rescan[b].clustering, (n, kind, objective, b)
                        assert got.value == rescan[b].value, (n, kind, objective, b)
                        # one more move changes the result iff an improving move was left
                        assert got.budget_exhausted is (rescan[b + 1].value != rescan[b].value)
    assert graphs >= 1000


def rounded_grid(n, t, gen_seed, round_seed, model=UniformRational(density=1.0)):
    base = generate(GenSpec(n=n, model=model, seed=gen_seed))
    rolled = build_roll(base, t).graph
    return round_graph(rolled, RoundingParams(alpha=1, beta=1, seed=round_seed)).after


def test_local_search_matches_both_oracles_at_every_budget_on_tie_heavy_grids():
    # +-1 planted bases keep every weight through rounding at alpha = beta = 1,
    # so many clusters tie on a neighbour's sums and the cached best moves
    # must break those ties as a full scan does. In the n=5 seed-11 grid a
    # node leaves a cluster that then becomes the best target of a negative
    # neighbour, a rare move among these bases. Each oracle runs once, and
    # its trail gives its result at every budget.
    cases = 0
    for n, seed in [(n, seed) for n in (4, 5) for seed in range(4)] + [(5, 11)]:
        grid = rounded_grid(n, 1, seed, seed, PlantedPartition(clusters=2, flip_prob=0.1))
        for objective in (MAX, MIN):
            scan, rescan = [], []
            scanning_local_search(grid, objective, budget=10 * grid.n, trail=scan)
            rescanning_local_search(grid, objective, budget=10 * grid.n, trail=rescan)
            assert scan == rescan, (n, seed, objective)
            moves = len(scan) - 1
            for b in range(1, moves + 2):
                got = solve_local_search(grid, objective, budget=b)
                labels = Clustering(scan[min(b, moves)])
                expect = SolveResult(labels, clustering_value(grid, labels, objective), b < moves)
                assert got == expect, (n, seed, objective, b)
            assert got == scanning_local_search(grid, objective, budget=moves + 1)
            cases += moves + 1
    assert cases >= 1000


def test_local_search_matches_rescanning_oracle_on_rounded_grid():
    # starts from singletons and merges for 141 moves down to two clusters
    grid = rounded_grid(5, 1, gen_seed=1, round_seed=3)
    assert grid.n == 125
    for objective in (MAX, MIN):
        got = solve_local_search(grid, objective)
        expect = rescanning_local_search(grid, objective)
        assert got.clustering == expect.clustering
        assert got.value == expect.value
        assert not got.budget_exhausted


def test_local_search_matches_scanning_oracle_on_large_grid():
    grid = rounded_grid(6, 2, gen_seed=3, round_seed=0)
    assert grid.n == 396
    for objective in (MAX, MIN):
        for budget in (1, 7, 1000):
            assert solve_local_search(grid, objective, budget) == scanning_local_search(grid, objective, budget)


def test_local_search_commutes_with_positive_scaling():
    rng = random.Random(77)
    for c in (Fraction(1, 3), Fraction(7, 2), Fraction(5)):
        for _ in range(20):
            g = differential_graph(rng, rng.randint(0, 10), rng.choice(("pm1", "rational", "cancel")))
            scaled = SignedGraph(g.n, {(u, v): c * w for u, v, w in g.edges()})
            for objective in (MAX, MIN):
                for budget in (1, 1000):
                    res = solve_local_search(g, objective, budget)
                    big = solve_local_search(scaled, objective, budget)
                    assert big.clustering == res.clustering
                    assert big.budget_exhausted == res.budget_exhausted
                    assert big.value == c * res.value


def test_local_search_objectives_are_complementary():
    # MaxAgree + MinDisagree = total weight for every clustering, and both
    # objectives take the same moves, so they end at the same clustering
    rng = random.Random(4242)
    for _ in range(60):
        g = differential_graph(rng, rng.randint(0, 10), rng.choice(("pm1", "rational", "cancel")))
        for budget in (1, 3, 1000):
            hi = solve_local_search(g, MAX, budget=budget)
            lo = solve_local_search(g, MIN, budget=budget)
            assert hi.clustering == lo.clustering
            assert hi.budget_exhausted == lo.budget_exhausted
            assert hi.value + lo.value == total_abs_weight(g)
            assert hi.value == clustering_value(g, hi.clustering, MAX)
            assert lo.value == clustering_value(g, lo.clustering, MIN)


def test_local_search_reports_budget_cut_off():
    # all-negative path: the singletons start is optimal at once
    assert not solve_local_search(SignedGraph(3, {(0, 1): -1, (1, 2): -1}), MAX, budget=1).budget_exhausted
    # two positive triangles joined by heavier negative edges start from
    # singletons and need four merges to reach the optimum
    weights = {(u, v): Fraction(1) for u, v in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))}
    weights.update({(u, v): Fraction(-2) for u in range(3) for v in range(3, 6)})
    g = SignedGraph(6, weights)
    for objective in (MAX, MIN):
        cut = solve_local_search(g, objective, budget=1)
        assert cut.budget_exhausted
        assert cut.value == clustering_value(g, cut.clustering, objective)
        done = solve_local_search(g, objective, budget=1000)
        assert not done.budget_exhausted
        assert done.clustering == Clustering([0, 0, 0, 1, 1, 1])
        # a budget the search needs exactly is not a cut-off
        exact_fit = solve_local_search(g, objective, budget=4)
        assert exact_fit.clustering == done.clustering and not exact_fit.budget_exhausted


def test_local_search_deterministic():
    rng = random.Random(19)
    g = random_graph(rng, 8)
    a = solve_local_search(g, MIN, budget=200)
    b = solve_local_search(g, MIN, budget=200)
    assert a.clustering == b.clustering and a.value == b.value


def test_run_solver_dispatch_and_echo():
    rng = random.Random(3)
    g = random_complete_pm1(rng, 6)
    assert run_solver(g, MIN, SolverSpec(SolverKind.PIVOT, seed=11)) == solve_pivot(g, seed=11)
    assert run_solver(g, MAX, SolverSpec(SolverKind.TRIVIAL_MAX)) == solve_trivial_max(g)
    for objective in (MAX, MIN):
        assert run_solver(g, objective, SolverSpec(SolverKind.EXACT)) == solve_exact(g, objective)
        local = SolverSpec(SolverKind.LOCAL_SEARCH, seed=5, budget=2)
        assert run_solver(g, objective, local) == solve_local_search(g, objective, budget=2)
    with pytest.raises(ValueError):
        run_solver(g, MIN, SolverSpec(SolverKind.TRIVIAL_MAX))
    with pytest.raises(ValueError):
        run_solver(g, MAX, SolverSpec(SolverKind.PIVOT))


def test_solver_spec_validation():
    with pytest.raises(ValueError):
        SolverSpec(SolverKind.LOCAL_SEARCH, budget=0)
