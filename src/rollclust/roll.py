"""Rolling a base graph into a larger grid graph made of embedded copies.

A roll of a base graph g on n nodes at size parameter t places grid cells
in N = n*(1 + t*(n-1)) rows (valid_roll_size) and n columns. The module
names a cell by one coordinate, its flat index row*n + col, the node index
of the rolled SignedGraph. Column j corresponds to base node j. A pair of
cells in different columns is a grid bone when the wrapped vertical
distance between them, divided by their column gap, is an integer slope in
0..(N-1)/(n-1). Each bone belongs to exactly one duplicate: the copy of the
base node set that starts at some row and advances by a fixed slope per
column. Every duplicate therefore sees an isomorphic copy of the base
graph, and distinct duplicates share no bones.

duplicate_cells gives a duplicate's cells in closed form.

The active duplicates are every start row of the N/n lowest slopes, N^2/n
copies in (slope, start_row) order, and a RolledGraph builds only their
copies. The sum of any clustering's value over the active duplicates'
induced clusterings equals its value on the rolled graph exactly.

duplication_clustering lifts a base clustering onto the grid, and
induced_clustering reads a base clustering back out of one active duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import MAX_NODES, MAX_ROLL_PAIRS, Clustering, SignedGraph, shown


class DuplicateId(NamedTuple):
    start_row: int
    slope: int


def valid_roll_size(n: int, t: int, edges: int = 0) -> int:
    """Row count N = n*(1 + t*(n-1)) of the roll of an n-node base with the
    given edge count. n | N, so the N/n lowest slopes hold N^2/n copies;
    (n-1) | (N-1) matters only to the full duplicate family. Refused when
    the N*n-cell grid is above MAX_NODES, as no graph file could hold it,
    or when the copies times max(1, edges) are above MAX_ROLL_PAIRS, too
    many to build: an edgeless base still builds each copy's cells."""
    if n < 3:
        raise ValueError("base graph must have at least 3 nodes")
    if t < 0:
        raise ValueError("t must be non-negative")
    rows = n * (1 + t * (n - 1))
    if rows * n > MAX_NODES:
        raise ValueError(f"t={shown(t)} rolls {n} nodes into {shown(rows * n)},"
                         f" above the {MAX_NODES}-node limit")
    copies = rows * rows // n
    if copies * max(1, edges) > MAX_ROLL_PAIRS:
        raise ValueError(f"t={t} rolls {n} nodes into {copies} copies of {edges} edges,"
                         f" above the {MAX_ROLL_PAIRS}-pair limit")
    return rows


def duplicate_cells(d: DuplicateId, rows: int, cols: int) -> "tuple[int, ...]":
    """The duplicate's flat grid indices, one per column, in closed form:
    column j sits in row (start_row + j*slope) mod rows, at flat index
    row*cols + j."""
    start, slope = d
    return tuple(((start + j * slope) % rows) * cols + j for j in range(cols))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class RolledGraph:
    """A base graph's roll at size parameter t: RolledGraph(base, t).

    The constructor computes every field from base and t: rows
    (valid_roll_size(n, t, base.edge_count)), active (every start row of
    the rows/n lowest slopes, slope-major), each active duplicate's cells,
    once, and graph (the rolled graph on rows*n cells) from them. It keeps
    the cells for induced_clustering: run_trials builds one roll per call,
    and all of its trials read their candidates through the same cells.
    """

    __slots__ = ("base", "t", "rows", "active", "graph", "_cells")  # see core.SignedGraph
    base: SignedGraph
    t: int
    rows: int
    active: "tuple[DuplicateId, ...]"
    graph: SignedGraph
    # active duplicate -> its flat grid cells by column
    _cells: "dict[DuplicateId, tuple[int, ...]]"

    def __init__(self, base: SignedGraph, t: int):
        n = base.n
        rows = valid_roll_size(n, t, base.edge_count)
        active = tuple(DuplicateId(start, slope)
                       for slope in range(rows // n) for start in range(rows))
        cells = {d: duplicate_cells(d, rows, n) for d in active}
        base_edges = list(base.scaled_weights())
        weights: dict[tuple[int, int], int] = {}
        for d in active:
            flat = cells[d]
            for (j1, j2), w in base_edges:
                a, b = flat[j1], flat[j2]
                weights[(a, b) if a < b else (b, a)] = w
        # each active copy adds one key per base edge unless two copies share a bone
        if len(weights) != len(active) * len(base_edges):
            raise AssertionError("a bone is claimed by two active duplicates")
        graph = SignedGraph._from_scaled(rows * n, base.scale, weights)
        fields = (("base", base), ("t", t), ("rows", rows), ("active", active),
                  ("graph", graph), ("_cells", cells))
        for name, value in fields:
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"RolledGraph(n={self.base.n}, rows={self.rows}, active={len(self.active)})"


def build_roll(g: SignedGraph, t: int) -> RolledGraph:
    """g's roll at size parameter t."""
    return RolledGraph(g, t)


def induced_clustering(r: RolledGraph, c: Clustering, d: DuplicateId) -> Clustering:
    """Read the base-graph clustering that a grid clustering induces on one
    active duplicate: base node j takes the label of the duplicate's column-j
    cell."""
    if len(c) != r.rows * r.base.n:
        raise ValueError("clustering does not cover the rolled graph")
    cells = r._cells.get(d)
    if cells is None:
        raise ValueError(f"duplicate {d} is not active")
    labels = c.labels
    return Clustering([labels[i] for i in cells])


def duplication_clustering(u: Clustering, rows: int) -> Clustering:
    """Lift a base clustering to the grid: node (i, j) takes u's label of
    column j. Its value on the pre-rounding rolled graph is exactly
    (rows^2/n) times u's value on the base graph."""
    return Clustering(list(u.labels) * rows)
