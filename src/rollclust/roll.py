"""Rolling a base graph into a larger grid graph made of embedded copies.

A roll of a base graph g on n nodes places grid cells in N rows and n
columns. The module names a cell by one coordinate, its flat index
row*n + col, the node index of the rolled SignedGraph. Column j corresponds
to base node j. A pair of cells in different columns is a grid bone when
the wrapped vertical distance between them, divided by their column gap, is
an integer slope in 0..(N-1)/(n-1). Each bone belongs to exactly one
duplicate: the copy of the base node set that starts at some row and
advances by a fixed slope per column. Every duplicate therefore sees an
isomorphic copy of the base graph, and distinct duplicates share no bones.

duplicate_cells gives a duplicate's cells in closed form, and duplicate_of
inverts it: it names the duplicate that owns a pair of cells, or returns
None when the pair is not a bone.

There are N*((N-1)/(n-1)+1) duplicates in total, more than fit disjoint
copies of the edge set. Only the first N^2/n duplicates in lexicographic
(slope, start_row) order stay active, and a RolledGraph builds only their
copies; the trimmed duplicates' bones carry no weight in the rolled graph.
The sum of any clustering's value over the active duplicates' induced
clusterings equals its value on the rolled graph exactly.

duplication_clustering lifts a base clustering onto the grid, and
induced_clustering reads a base clustering back out of one active duplicate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .core import Clustering, SignedGraph


class DuplicateId(NamedTuple):
    start_row: int
    slope: int


def max_slope(rows: int, cols: int) -> int:
    # valid rolls have (rows-1) divisible by (cols-1)
    return (rows - 1) // (cols - 1)


def duplicate_of(a: int, b: int, rows: int, cols: int) -> "DuplicateId | None":
    """The duplicate that owns the pair of flat cells {a, b}, or None when
    the pair is not a grid bone."""
    (row_a, col_a), (row_b, col_b) = divmod(a, cols), divmod(b, cols)
    if col_a == col_b:
        return None
    if col_a > col_b:
        row_a, col_a, row_b, col_b = row_b, col_b, row_a, col_a
    slope, rest = divmod((row_b - row_a) % rows, col_b - col_a)
    if rest == 0 and slope <= max_slope(rows, cols):
        return DuplicateId((row_a - col_a * slope) % rows, slope)
    return None


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


def duplicate_cells(d: DuplicateId, rows: int, cols: int) -> "tuple[int, ...]":
    """The duplicate's flat grid indices, one per column, in closed form:
    column j sits in row (start_row + j*slope) mod rows, at flat index
    row*cols + j."""
    start, slope = d
    return tuple(((start + j * slope) % rows) * cols + j for j in range(cols))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RolledGraph:
    """A base graph rolled into an N-row grid: RolledGraph(base, rows, active).

    Fields: base (the original graph), rows (N), active (kept duplicates in
    trim order), and, computed on construction, graph (the rolled graph on
    rows*n cells). The constructor computes each active duplicate's cells
    once, builds graph from them, and keeps them for induced_clustering:
    run_trials builds one roll per call, and all of its trials read their
    candidates through the same cells. Only the active duplicates' copies
    are built; duplicate_of maps any bone, trimmed or not, to its duplicate.
    """

    base: SignedGraph
    rows: int
    active: "tuple[DuplicateId, ...]"
    graph: SignedGraph = field(init=False)
    # active duplicate -> its flat grid cells by column
    _cells: "dict[DuplicateId, tuple[int, ...]]" = field(init=False)

    def __post_init__(self):
        n, rows = self.base.n, self.rows
        if n < 2:
            raise ValueError("base graph must have at least 2 nodes")
        if rows < 1:
            raise ValueError(f"rows must be at least 1; got rows={rows}")
        if (rows - 1) % (n - 1) != 0:
            raise ValueError(f"(rows-1) must be divisible by (n-1); got rows={rows}, n={n}")
        if (rows * rows) % n != 0:
            raise ValueError(f"rows^2 must be divisible by n; got rows={rows}, n={n}")
        active, top = tuple(self.active), max_slope(rows, n)
        for d in active:
            if not (0 <= d.start_row < rows and 0 <= d.slope <= top):
                raise ValueError(f"{d} is not a duplicate of a {rows}-row roll of {n} nodes")
        cells = {d: duplicate_cells(d, rows, n) for d in active}
        base_edges = list(self.base.scaled_weights())
        weights: dict[tuple[int, int], int] = {}
        for d in active:
            flat = cells[d]
            for (j1, j2), w in base_edges:
                a, b = flat[j1], flat[j2]
                weights[(a, b) if a < b else (b, a)] = w
        # each active copy adds one key per base edge unless two copies share a bone
        if len(weights) != len(active) * len(base_edges):
            raise AssertionError("a bone is claimed by two active duplicates")
        graph = SignedGraph._from_scaled(rows * n, self.base.scale, weights)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_cells", cells)

    def __repr__(self) -> str:
        return (
            f"RolledGraph(n={self.base.n}, rows={self.rows}, "
            f"active={len(self.active)} of {untrimmed_duplicate_count(self.base.n, self.rows)})"
        )


def build_roll(g: SignedGraph, rows: int) -> RolledGraph:
    """Roll g into a grid with the given row count.

    Requires (rows-1) divisible by (n-1) and rows^2 divisible by n; sizes
    from valid_roll_size satisfy both. The first rows^2/n duplicates in
    (slope, start_row) order stay active and keep their copy of the edge
    set; the rest are trimmed and contribute no edges.
    """
    def trimmed():  # read by RolledGraph only after it has checked the sizes
        yield from itertools.islice(all_duplicates(rows, g.n), (rows * rows) // g.n)

    return RolledGraph(g, rows, trimmed())


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
