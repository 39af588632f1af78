"""Rolling a base graph into a larger grid graph made of embedded copies.

A roll of a base graph g on n nodes places grid nodes in N rows and n
columns. Node columns correspond to base nodes. A pair of grid nodes in
different columns is a grid bone when the wrapped vertical distance between
them, divided by their column gap, is an integer slope in 0..(N-1)/(n-1).
Each bone belongs to exactly one duplicate: the copy of the base node set
that starts at some row and advances by a fixed slope per column. Every
duplicate therefore sees an isomorphic copy of the base graph, and distinct
duplicates share no bones.

duplicate_of finds a bone's duplicate in closed form.

There are N*((N-1)/(n-1)+1) duplicates in total, more than fit disjoint
copies of the edge set. Only the first N^2/n duplicates in lexicographic
(slope, start_row) order stay active, and build_roll builds only their
copies; the trimmed duplicates' bones carry no weight in the rolled graph.
The sum of any clustering's value over the active duplicates' induced
clusterings equals its value on the rolled graph exactly.

duplication_clustering lifts a base clustering onto the grid, and
induced_clustering reads a base clustering back out of one active duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .core import Clustering, SignedGraph


class GridNode(NamedTuple):
    row: int
    col: int


class DuplicateId(NamedTuple):
    start_row: int
    slope: int


def max_slope(rows: int, cols: int) -> int:
    # valid rolls have (rows-1) divisible by (cols-1)
    return (rows - 1) // (cols - 1)


def is_grid_bone(a: GridNode, b: GridNode, rows: int, cols: int) -> bool:
    """Whether the unordered pair {a, b} is a grid bone of the roll."""
    if a.col == b.col:
        return False
    lo, hi = (a, b) if a.col < b.col else (b, a)
    dist = (hi.row - lo.row) % rows
    gap = hi.col - lo.col
    return dist % gap == 0 and dist // gap <= max_slope(rows, cols)


def duplicate_of(a: GridNode, b: GridNode, rows: int, cols: int) -> DuplicateId:
    """The unique duplicate whose node set contains the bone {a, b}."""
    if not is_grid_bone(a, b, rows, cols):
        raise ValueError(f"pair {a}, {b} is not a grid bone")
    lo, hi = (a, b) if a.col < b.col else (b, a)
    slope = ((hi.row - lo.row) % rows) // (hi.col - lo.col)
    return DuplicateId((lo.row - lo.col * slope) % rows, slope)


def duplicate_nodes(d: DuplicateId, rows: int, cols: int) -> "tuple[GridNode, ...]":
    """The duplicate's nodes, one per column, advancing by its slope per column."""
    return tuple(
        GridNode((d.start_row + j * d.slope) % rows, j) for j in range(cols)
    )


def valid_roll_size(n: int, t: int) -> int:
    """Row count N = n*(1 + t*(n-1)); guarantees (n-1) | (N-1) and n | N^2."""
    if n < 3:
        raise ValueError("base graph must have at least 3 nodes")
    if t < 0:
        raise ValueError("t must be non-negative")
    return n * (1 + t * (n - 1))


def untrimmed_duplicate_count(n: int, rows: int) -> int:
    """Count of all duplicates before trimming: N*((N-1)/(n-1)+1)."""
    if (rows - 1) % (n - 1) != 0:
        raise ValueError(f"(rows-1) must be divisible by (n-1); got rows={rows}, n={n}")
    return rows * (max_slope(rows, n) + 1)


def all_duplicates(rows: int, cols: int) -> Iterator[DuplicateId]:
    """All duplicates in lexicographic (slope, start_row) order."""
    for slope in range(max_slope(rows, cols) + 1):
        for start in range(rows):
            yield DuplicateId(start, slope)


def grid_index(node: GridNode, cols: int) -> int:
    return node.row * cols + node.col


def grid_node(flat: int, cols: int) -> GridNode:
    return GridNode(*divmod(flat, cols))


def duplicate_cells(d: DuplicateId, rows: int, cols: int) -> "tuple[int, ...]":
    """The duplicate's flat grid indices, one per column."""
    return tuple(grid_index(node, cols) for node in duplicate_nodes(d, rows, cols))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RolledGraph:
    """A base graph rolled into an N-row grid.

    Fields: base (the original graph), rows (N), graph (the rolled graph on
    rows*n nodes, flat index row*n + col), active (kept duplicates in trim
    order). Only the active duplicates' copies are built; duplicate_of maps
    any bone, trimmed or not, to its duplicate. Each active duplicate's flat
    grid cells are computed once, when the RolledGraph is constructed, and
    every reader of the roll shares them: run_trials builds one roll per
    call, and all of its trials read their candidates through the same cells.
    """

    base: SignedGraph
    rows: int
    graph: SignedGraph
    active: "tuple[DuplicateId, ...]"
    # active duplicate -> its flat grid cells by column
    _cells: "dict[DuplicateId, tuple[int, ...]]" = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "active", tuple(self.active))
        object.__setattr__(
            self, "_cells", {d: duplicate_cells(d, self.rows, self.base.n) for d in self.active}
        )

    def __repr__(self) -> str:
        return (
            f"RolledGraph(n={self.base.n}, rows={self.rows}, "
            f"active={len(self.active)} of {untrimmed_duplicate_count(self.base.n, self.rows)})"
        )


def build_roll(g: SignedGraph, rows: int) -> RolledGraph:
    """Roll g into a grid with the given row count.

    Requires (rows-1) divisible by (n-1) and rows^2 divisible by n; sizes
    from valid_roll_size satisfy both. The first rows^2/n duplicates in
    (slope, start_row) order keep their copy of the edge set; the rest are
    trimmed and contribute no edges.
    """
    n = g.n
    if n < 2:
        raise ValueError("base graph must have at least 2 nodes")
    if rows < 1:
        raise ValueError(f"rows must be at least 1; got rows={rows}")
    if (rows - 1) % (n - 1) != 0:
        raise ValueError(f"(rows-1) must be divisible by (n-1); got rows={rows}, n={n}")
    if (rows * rows) % n != 0:
        raise ValueError(f"rows^2 must be divisible by n; got rows={rows}, n={n}")

    active = tuple(list(all_duplicates(rows, n))[: (rows * rows) // n])

    base_edges = list(g.scaled_weights())
    weights: dict[tuple[int, int], int] = {}
    for d in active:
        flat = duplicate_cells(d, rows, n)
        for (j1, j2), w in base_edges:
            a, b = flat[j1], flat[j2]
            weights[(a, b) if a < b else (b, a)] = w
    # each active copy adds one key per base edge unless two copies share a bone
    if len(weights) != len(active) * len(base_edges):
        raise AssertionError("a bone is claimed by two active duplicates")

    return RolledGraph(g, rows, SignedGraph._from_scaled(rows * n, g.scale, weights), active)


def induced_clustering(r: RolledGraph, c: Clustering, d: DuplicateId) -> Clustering:
    """Read the base-graph clustering that a grid clustering induces on one
    active duplicate: base node j takes the label of the duplicate's column-j
    grid node."""
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
