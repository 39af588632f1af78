import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from invariants import all_duplicates, duplicate_of
from random_graphs import random_graph
from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from rollclust.roll import (
    DuplicateId,
    RolledGraph,
    build_roll,
    duplicate_cells,
    induced_clustering,
    valid_roll_size,
)

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def cell(row, col, cols=3):
    return row * cols + col


def test_grid_bone_examples():
    # rows=5, cols=3: slopes 0..2 qualify; a pair is a bone iff it has a duplicate
    assert duplicate_of(cell(0, 0), cell(2, 1), 5, 3) is not None      # slope 2
    assert duplicate_of(cell(1, 1), cell(1, 2), 5, 3) is not None      # slope 0
    assert duplicate_of(cell(0, 0), cell(2, 2), 5, 3) is not None      # slope 1
    assert duplicate_of(cell(0, 0), cell(3, 2), 5, 3) is None          # 3/2 not integer
    assert duplicate_of(cell(0, 1), cell(3, 1), 5, 3) is None          # same column
    assert duplicate_of(cell(0, 0), cell(3, 1), 5, 3) is None          # slope 3 > max 2
    # orientation must not matter
    assert duplicate_of(cell(2, 1), cell(0, 0), 5, 3) is not None


def test_duplicate_of_examples():
    assert duplicate_of(cell(0, 0), cell(2, 1), 5, 3) == DuplicateId(0, 2)
    assert duplicate_of(cell(2, 1), cell(0, 0), 5, 3) == DuplicateId(0, 2)
    assert duplicate_of(cell(1, 1), cell(1, 2), 5, 3) == DuplicateId(1, 0)
    # wraps: rows 4 -> 1 is a distance of 2 over one column
    assert duplicate_of(cell(4, 1), cell(1, 2), 5, 3) == DuplicateId(2, 2)
    assert duplicate_of(cell(0, 1), cell(3, 1), 5, 3) is None


def test_duplicate_cells_wrap():
    assert duplicate_cells(DuplicateId(3, 2), 5, 3) == (cell(3, 0), cell(0, 1), cell(2, 2))


def test_duplicate_cells_closed_form_matches_the_grid_nodes():
    # duplicate_of inverts the geometry on its own, so it pins the closed
    # form: every pair of the duplicate's cells is a bone of that duplicate
    for n in range(3, 8):
        for t in range(3):
            rows = valid_roll_size(n, t)
            for d in all_duplicates(rows, n):  # active and trimmed
                cells = duplicate_cells(d, rows, n)
                assert [c % n for c in cells] == list(range(n)), (n, t, d)
                assert all(0 <= c < rows * n for c in cells), (n, t, d)
                for a, b in itertools.combinations(cells, 2):
                    assert duplicate_of(a, b, rows, n) == d, (n, t, d, a, b)


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
    # N*((N-1)/(n-1)+1) duplicates before trimming
    assert len(all_duplicates(5, 3)) == 15
    assert len(all_duplicates(3, 3)) == 6


@pytest.mark.parametrize("cols,rows", [(3, 3), (3, 9), (3, 15), (4, 4), (4, 13), (5, 5), (5, 13)])
def test_bone_partition_exhaustive(cols, rows):
    # every cross-column pair either fails the slope test or belongs to
    # exactly one duplicate; totals match duplicates * C(cols, 2)
    bones = {}
    for a, b in itertools.combinations(range(rows * cols), 2):
        d = duplicate_of(a, b, rows, cols)
        if d is None:
            continue
        assert a in duplicate_cells(d, rows, cols)
        assert b in duplicate_cells(d, rows, cols)
        bones[(a, b)] = d
    per_dup = cols * (cols - 1) // 2
    assert len(bones) == len(all_duplicates(rows, cols)) * per_dup
    owned = {}
    for d in bones.values():
        owned[d] = owned.get(d, 0) + 1
    assert set(owned) == set(all_duplicates(rows, cols))
    assert set(owned.values()) == {per_dup}


def test_n3_rows3_bone_partition_by_hand():
    # 3x3 grid: 6 duplicates (slopes 0 and 1), 3 bones each, 18 bones total
    rows = cols = 3
    owners = [duplicate_of(a, b, rows, cols) for a, b in itertools.combinations(range(9), 2)]
    dups = {d for d in owners if d is not None}
    assert len(owners) - owners.count(None) == 18
    assert len(dups) == 6
    assert dups == {DuplicateId(i, s) for i in range(3) for s in (0, 1)}


def test_build_roll_structure():
    rng = random.Random(5)
    g = random_graph(rng, 3, density=1.0)
    r = build_roll(g, 1)
    assert (r.t, r.rows) == (1, 9)
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
        for pair in itertools.combinations(duplicate_cells(d, 9, 3), 2)
    ]
    assert len(set(owned)) == len(owned) == len(all_duplicates(9, 3)) * 3 == 45 * 3
    assert all(duplicate_of(a, b, 9, 3) is not None for a, b in owned)


def test_build_roll_rejects_two_active_duplicates_on_one_bone(monkeypatch):
    # every duplicate collapses onto row 0, so the second active copy
    # claims the first copy's bones
    monkeypatch.setattr(
        "rollclust.roll.duplicate_cells",
        lambda d, rows, cols: tuple(range(cols)),
    )
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    with pytest.raises(AssertionError, match="claimed by two active duplicates"):
        build_roll(g, 0)


def test_build_roll_computes_each_active_duplicates_cells_once(monkeypatch):
    calls = []

    def counting(d, rows, cols):
        calls.append(d)
        return duplicate_cells(d, rows, cols)

    monkeypatch.setattr("rollclust.roll.duplicate_cells", counting)
    rng = random.Random(7)
    for n, t in [(3, 0), (3, 1), (4, 1), (5, 2)]:
        calls.clear()
        r = build_roll(random_graph(rng, n), t)
        assert sorted(calls) == sorted(r.active)
        # reading candidates goes through the cached cells
        c = Clustering.one_cluster(r.rows * n)
        for d in r.active:
            induced_clustering(r, c, d)
        assert len(calls) == len(r.active)


def test_rolled_graph_is_a_frozen_slotted_record_compared_by_identity():
    r = build_roll(random_graph(random.Random(5), 3, density=1.0), 1)
    assert repr(r) == "RolledGraph(n=3, rows=9, active=27)"
    assert dataclasses.is_dataclass(r) and not hasattr(r, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.rows = 3
    # built from the base and t alone; everything else is computed
    again = RolledGraph(r.base, r.t)
    assert again.active == r.active and again.graph == r.graph
    assert again != r and r == r
    with pytest.raises(TypeError):
        RolledGraph(r.base, r.t, r.active)
    with pytest.raises(TypeError):
        RolledGraph(r.base, r.t, _cells={})


def test_records_refuse_every_assignment():
    # a field name and a name that is no field both raise FrozenInstanceError
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): -1})
    records = (g, Clustering([2, 2, 0]), RolledGraph(g, 0))
    for record in records:
        assert not hasattr(record, "__dict__")
        for name in (dataclasses.fields(record)[0].name, "x"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)


def test_build_roll_error_messages():
    # valid_roll_size owns the size rule; the constructor adds no check of its own
    cases = [
        (SignedGraph(0), 0, "base graph must have at least 3 nodes"),
        (SignedGraph(2, {(0, 1): 1}), 1, "base graph must have at least 3 nodes"),
        (SignedGraph(4, {(0, 1): 1}), -1, "t must be non-negative"),
    ]
    for g, t, message in cases:
        with pytest.raises(ValueError) as info:
            build_roll(g, t)
        assert str(info.value) == message


def test_rolled_edges_carry_base_weights():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): -1})
    r = build_roll(g, 0)
    for d in r.active:
        cells = duplicate_cells(d, 3, 3)
        for j1, j2 in itertools.combinations(range(3), 2):
            assert r.graph.weight(cells[j1], cells[j2]) == g.weight(j1, j2)
    # bones of inactive duplicates carry nothing
    inactive = [d for d in all_duplicates(3, 3) if d not in r.active]
    assert inactive
    for d in inactive:
        for a, b in itertools.combinations(duplicate_cells(d, 3, 3), 2):
            assert r.graph.weight(a, b) == 0


def frozen_roll(g, t):
    """The roll as built when a caller still passed the row count and the
    duplicate list: rows from the size formula, the first rows^2/n
    duplicates slope-major, each one's cells stepped row by row, and the
    rolled graph built edge by edge through the public constructor. Returns
    (rows, active, cells by duplicate, graph)."""
    n = g.n
    rows = n * (1 + t * (n - 1))
    ordered = [DuplicateId(start, slope)
               for slope in range((rows - 1) // (n - 1) + 1) for start in range(rows)]
    active = tuple(ordered[: rows * rows // n])
    cells = {}
    for d in active:
        row, cells[d] = d.start_row, []
        for j in range(n):
            cells[d].append(row * n + j)
            row = (row + d.slope) % rows
        cells[d] = tuple(cells[d])
    weights = {}
    for d in active:
        for j1, j2, w in g.edges():
            weights[(cells[d][j1], cells[d][j2])] = w
    return rows, active, cells, SignedGraph(rows * n, weights)


def test_build_roll_matches_the_public_constructor():
    rng = random.Random(31)
    for n in range(3, 8):
        for t in range(3):
            for g in (SignedGraph(n), random_graph(rng, n), random_graph(rng, n, density=1.0)):
                r = build_roll(g, t)
                rows, active, cells, expected = frozen_roll(g, t)
                assert (r.t, r.rows, r.active, r._cells) == (t, rows, active, cells)
                rolled = r.graph
                assert rolled == expected and hash(rolled) == hash(expected)
                assert rolled.scale == g.scale
                assert list(rolled.scaled_weights()) == list(expected.scaled_weights())


def test_zero_edge_base_rolls_to_zero_edges():
    g = SignedGraph(3)
    r = build_roll(g, 0)
    assert r.graph.edge_count == 0
    assert len(r.active) == 3


def test_active_duplicates_partition_rolled_edges():
    rng = random.Random(23)
    for n, t in [(3, 0), (3, 1), (4, 0), (5, 0), (4, 1)]:
        g = random_graph(rng, n)
        r = build_roll(g, t)
        rows = r.rows
        seen = set()
        for d in r.active:
            cells = duplicate_cells(d, rows, n)
            for j1, j2, w in g.edges():
                a, b = cells[j1], cells[j2]
                key = (a, b) if a < b else (b, a)
                assert key not in seen
                seen.add(key)
                assert duplicate_of(a, b, rows, n) == d
        assert seen == {(u, v) for u, v, _ in r.graph.edges()}


def test_induced_clustering_examples():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1})
    r = build_roll(g, 0)
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
        r = build_roll(g, t)
        rows = r.rows
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
    # the roll caches each active duplicate's cells; read the labels at
    # freshly computed cells instead and compare
    rng = random.Random(41)
    for n in range(3, 7):
        for t in range(3):
            r = build_roll(random_graph(rng, n), t)
            rows = r.rows
            rebuilt = RolledGraph(r.base, t)
            c = Clustering([rng.randrange(n) for _ in range(rows * n)])
            for d in r.active:
                want = Clustering(c.labels[i] for i in duplicate_cells(d, rows, n))
                assert induced_clustering(r, c, d) == want
                assert induced_clustering(rebuilt, c, d) == want
            inactive = [d for d in all_duplicates(rows, n) if d not in r.active]
            assert len(inactive) == len(all_duplicates(rows, n)) - len(r.active)
            for d in inactive[:3]:
                with pytest.raises(ValueError, match="not active"):
                    induced_clustering(r, c, d)
