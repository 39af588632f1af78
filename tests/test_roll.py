import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from rollclust.roll import (
    DuplicateId,
    GridNode,
    RolledGraph,
    all_duplicates,
    build_roll,
    duplicate_nodes,
    duplicate_of,
    grid_index,
    grid_node,
    induced_clustering,
    is_grid_bone,
    max_slope,
    untrimmed_duplicate_count,
    valid_roll_size,
)

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def random_graph(rng, n, density=0.8):
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                q = rng.randint(1, 5)
                p = rng.randint(-q, q)
                if p:
                    weights[(u, v)] = Fraction(p, q)
    return SignedGraph(n, weights)


def test_grid_bone_examples():
    # rows=5, cols=3: slopes 0..2 qualify
    assert is_grid_bone(GridNode(0, 0), GridNode(2, 1), 5, 3)       # slope 2
    assert is_grid_bone(GridNode(1, 1), GridNode(1, 2), 5, 3)       # slope 0
    assert is_grid_bone(GridNode(0, 0), GridNode(2, 2), 5, 3)       # slope 1
    assert not is_grid_bone(GridNode(0, 0), GridNode(3, 2), 5, 3)   # 3/2 not integer
    assert not is_grid_bone(GridNode(0, 1), GridNode(3, 1), 5, 3)   # same column
    # orientation must not matter
    assert is_grid_bone(GridNode(2, 1), GridNode(0, 0), 5, 3)


def test_duplicate_of_examples():
    assert duplicate_of(GridNode(0, 0), GridNode(2, 1), 5, 3) == DuplicateId(0, 2)
    assert duplicate_of(GridNode(1, 1), GridNode(1, 2), 5, 3) == DuplicateId(1, 0)
    with pytest.raises(ValueError):
        duplicate_of(GridNode(0, 1), GridNode(3, 1), 5, 3)


def test_duplicate_nodes_wrap():
    nodes = duplicate_nodes(DuplicateId(3, 2), 5, 3)
    assert nodes == (GridNode(3, 0), GridNode(0, 1), GridNode(2, 2))


def test_valid_roll_sizes():
    assert valid_roll_size(3, 0) == 3
    assert valid_roll_size(3, 1) == 9
    assert valid_roll_size(4, 0) == 4
    assert valid_roll_size(5, 2) == 45
    with pytest.raises(ValueError):
        valid_roll_size(2, 1)
    for n in range(3, 9):
        for t in range(3):
            rows = valid_roll_size(n, t)
            assert (rows - 1) % (n - 1) == 0
            assert rows * rows % n == 0


def test_untrimmed_duplicate_count_examples():
    assert untrimmed_duplicate_count(3, 5) == 15
    assert untrimmed_duplicate_count(3, 3) == 6
    with pytest.raises(ValueError):
        untrimmed_duplicate_count(4, 5)


@pytest.mark.parametrize("cols,rows", [(3, 3), (3, 9), (3, 15), (4, 4), (4, 13), (5, 5), (5, 13)])
def test_bone_partition_exhaustive(cols, rows):
    # every cross-column pair either fails the slope test or belongs to
    # exactly one duplicate; totals match duplicates * C(cols, 2)
    bones = {}
    for a_flat in range(rows * cols):
        for b_flat in range(a_flat + 1, rows * cols):
            a, b = grid_node(a_flat, cols), grid_node(b_flat, cols)
            if not is_grid_bone(a, b, rows, cols):
                continue
            d = duplicate_of(a, b, rows, cols)
            assert a in duplicate_nodes(d, rows, cols)
            assert b in duplicate_nodes(d, rows, cols)
            bones[(a_flat, b_flat)] = d
    per_dup = cols * (cols - 1) // 2
    assert len(bones) == untrimmed_duplicate_count(cols, rows) * per_dup
    owned = {}
    for d in bones.values():
        owned[d] = owned.get(d, 0) + 1
    assert set(owned.values()) == {per_dup}


def test_n3_rows3_bone_partition_by_hand():
    # 3x3 grid: 6 duplicates (slopes 0 and 1), 3 bones each, 18 bones total
    rows = cols = 3
    dups = {duplicate_of(grid_node(a, 3), grid_node(b, 3), rows, cols)
            for a in range(9) for b in range(a + 1, 9)
            if is_grid_bone(grid_node(a, 3), grid_node(b, 3), rows, cols)}
    assert len(dups) == 6
    assert dups == {DuplicateId(i, s) for i in range(3) for s in (0, 1)}


def test_build_roll_structure():
    rng = random.Random(5)
    g = random_graph(rng, 3, density=1.0)
    r = build_roll(g, 9)
    assert r.rows == 9
    assert len(r.active) == 27
    assert len(set(r.active)) == 27
    # trim order: slope-major, then start row
    assert r.active[0] == DuplicateId(0, 0)
    assert [d.slope for d in r.active] == sorted(d.slope for d in r.active)
    assert r.graph.n == 27
    assert r.graph.edge_count == 27 * g.edge_count
    # every untrimmed duplicate owns C(3,2) = 3 grid bones, and no two share one
    owned = [
        pair
        for d in all_duplicates(9, 3)
        for pair in itertools.combinations(duplicate_nodes(d, 9, 3), 2)
    ]
    assert len(set(owned)) == len(owned) == untrimmed_duplicate_count(3, 9) * 3
    assert all(is_grid_bone(a, b, 9, 3) for a, b in owned)


def test_build_roll_rejects_two_active_duplicates_on_one_bone(monkeypatch):
    # every duplicate collapses onto row 0, so the second active copy
    # claims the first copy's bones
    monkeypatch.setattr(
        "rollclust.roll.duplicate_nodes",
        lambda d, rows, cols: tuple(GridNode(0, j) for j in range(cols)),
    )
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    with pytest.raises(AssertionError, match="claimed by two active duplicates"):
        build_roll(g, 3)


def test_rolled_graph_is_a_frozen_slotted_record_compared_by_identity():
    r = build_roll(random_graph(random.Random(5), 3, density=1.0), 9)
    assert repr(r) == "RolledGraph(n=3, rows=9, active=27 of 45)"
    assert dataclasses.is_dataclass(r) and not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.rows = 3
    # built positionally from any iterable of duplicates
    again = RolledGraph(r.base, r.rows, r.graph, list(r.active))
    assert again.active == r.active and r.active[-1] in again.active
    assert again != r and r == r


def test_build_roll_requires_divisibility():
    g = SignedGraph(4, {(0, 1): 1})
    with pytest.raises(ValueError):
        build_roll(g, 5)   # (5-1) % 3 != 0
    with pytest.raises(ValueError):
        build_roll(g, 7)   # 49 % 4 != 0


def test_build_roll_rejects_rows_below_one():
    # both pass the divisibility checks
    with pytest.raises(ValueError, match="rows must be at least 1"):
        build_roll(SignedGraph(4, {(0, 1): 1}), -2)
    with pytest.raises(ValueError, match="rows must be at least 1"):
        build_roll(SignedGraph(2, {(0, 1): 1}), 0)


def test_rolled_edges_carry_base_weights():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): -1})
    r = build_roll(g, 3)
    for d in r.active:
        nodes = duplicate_nodes(d, 3, 3)
        for j1 in range(3):
            for j2 in range(j1 + 1, 3):
                a, b = grid_index(nodes[j1], 3), grid_index(nodes[j2], 3)
                assert r.graph.weight(a, b) == g.weight(j1, j2)
    # bones of inactive duplicates carry nothing
    inactive = [d for d in all_duplicates(3, 3) if d not in r.active]
    assert inactive
    for d in inactive:
        nodes = duplicate_nodes(d, 3, 3)
        for j1 in range(3):
            for j2 in range(j1 + 1, 3):
                assert r.graph.weight(grid_index(nodes[j1], 3), grid_index(nodes[j2], 3)) == 0


def public_roll_graph(g, rows):
    """The rolled graph built edge by edge through the public constructor."""
    n = g.n
    weights = {}
    for d in list(all_duplicates(rows, n))[: rows * rows // n]:
        nodes = duplicate_nodes(d, rows, n)
        for j1, j2, w in g.edges():
            weights[(grid_index(nodes[j1], n), grid_index(nodes[j2], n))] = w
    return SignedGraph(rows * n, weights)


def test_build_roll_matches_the_public_constructor():
    rng = random.Random(31)
    for n, t in [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0)]:
        rows = valid_roll_size(n, t)
        for g in (SignedGraph(n), random_graph(rng, n), random_graph(rng, n, density=1.0)):
            rolled = build_roll(g, rows).graph
            expected = public_roll_graph(g, rows)
            assert rolled == expected and hash(rolled) == hash(expected)
            assert rolled.scale == g.scale
            assert list(rolled.scaled_weights()) == list(expected.scaled_weights())


def test_zero_edge_base_rolls_to_zero_edges():
    g = SignedGraph(3)
    r = build_roll(g, 3)
    assert r.graph.edge_count == 0
    assert len(r.active) == 3


def test_active_duplicates_partition_rolled_edges():
    rng = random.Random(23)
    for n, t in [(3, 0), (3, 1), (4, 0), (5, 0), (4, 1)]:
        g = random_graph(rng, n)
        rows = valid_roll_size(n, t)
        r = build_roll(g, rows)
        seen = set()
        for d in r.active:
            nodes = duplicate_nodes(d, rows, n)
            for j1, j2, w in g.edges():
                a, b = grid_index(nodes[j1], n), grid_index(nodes[j2], n)
                key = (a, b) if a < b else (b, a)
                assert key not in seen
                seen.add(key)
                assert duplicate_of(grid_node(a, n), grid_node(b, n), rows, n) == d
        assert seen == {(u, v) for u, v, _ in r.graph.edges()}


def test_induced_clustering_examples():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    r = build_roll(g, 3)
    whole = Clustering.one_cluster(9)
    for d in r.active:
        assert induced_clustering(r, whole, d) == Clustering.one_cluster(3)
    sing = Clustering.singletons(9)
    for d in r.active:
        assert induced_clustering(r, sing, d) == Clustering.singletons(3)
    with pytest.raises(ValueError):
        induced_clustering(r, whole, DuplicateId(0, 1))  # trimmed for rows=3
    with pytest.raises(ValueError):
        induced_clustering(r, Clustering.one_cluster(5), r.active[0])


def test_value_decomposition_over_duplicates():
    # the load-bearing identity: rolled value = sum of induced values, exact
    rng = random.Random(31)
    for trial in range(60):
        n = rng.choice([3, 4, 5])
        t = rng.choice([0, 1])
        g = random_graph(rng, n)
        rows = valid_roll_size(n, t)
        r = build_roll(g, rows)
        k = rng.randint(1, 6)
        c = Clustering([rng.randrange(k) for _ in range(rows * n)])
        for objective in (MAX, MIN):
            whole = clustering_value(r.graph, c, objective)
            parts = sum(
                (clustering_value(g, induced_clustering(r, c, d), objective) for d in r.active),
                Fraction(0),
            )
            assert whole == parts


def test_induced_clustering_matches_a_from_scratch_reading():
    # the roll caches each active duplicate's cells; read them back through
    # duplicate_nodes and grid_index instead and compare
    rng = random.Random(41)
    for n in range(3, 7):
        for t in range(3):
            rows = valid_roll_size(n, t)
            r = build_roll(random_graph(rng, n), rows)
            rebuilt = RolledGraph(r.base, r.rows, r.graph, r.active)
            c = Clustering([rng.randrange(n) for _ in range(rows * n)])
            for d in r.active:
                want = Clustering(c.labels[grid_index(node, n)] for node in duplicate_nodes(d, rows, n))
                assert induced_clustering(r, c, d) == want
                assert induced_clustering(rebuilt, c, d) == want
            inactive = [d for d in all_duplicates(rows, n) if d not in r.active]
            assert len(inactive) == untrimmed_duplicate_count(n, rows) - len(r.active)
            for d in inactive[:3]:
                with pytest.raises(ValueError, match="not active"):
                    induced_clustering(r, c, d)
