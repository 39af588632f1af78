"""Independent checks of the roll's structure, for the tests to run on
generated and on deliberately corrupted rolls.

all_duplicates lists the paper's full duplicate family on an N x n grid:
one duplicate per start row and slope 0..(N-1)/(n-1), N*((N-1)/(n-1)+1) in
all, more than fit disjoint copies of the edge set. The roll keeps the
first N^2/n of them in (slope, start_row) order as its active copies, and
the trimmed duplicates' bones carry no weight in the rolled graph.
duplicate_of inverts duplicate_cells from the grid geometry alone: it names
the duplicate that owns a pair of cells, or None when the pair is not a
bone. Each check_* returns the first failure it finds as a string, or None.
total_abs_weight sums |weight| over a graph's edges() as they are listed.
"""

import itertools
import math
from fractions import Fraction

from rollclust.core import Clustering, ObjectiveKind, SignedGraph, clustering_value
from rollclust.roll import DuplicateId, RolledGraph, duplicate_cells, induced_clustering


def total_abs_weight(g: SignedGraph) -> Fraction:
    """MaxAgree + MinDisagree of every clustering of g."""
    return sum((abs(w) for _, _, w in g.edges()), Fraction(0))


def max_slope(rows: int, cols: int) -> int:
    # valid rolls have (rows-1) divisible by (cols-1)
    return (rows - 1) // (cols - 1)


def all_duplicates(rows: int, cols: int) -> "list[DuplicateId]":
    """Every duplicate, active and trimmed, in (slope, start_row) order."""
    return [DuplicateId(start, slope)
            for slope in range(max_slope(rows, cols) + 1) for start in range(rows)]


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


def check_edge_disjointness(r: RolledGraph) -> "str | None":
    """Active duplicates' bone sets are pairwise disjoint and cover every
    nonzero edge of the rolled graph. Recomputed from scratch so corrupted
    structures are caught."""
    claimed: dict = {}
    for d in r.active:
        for a, b in itertools.combinations(duplicate_cells(d, r.rows, r.base.n), 2):
            key = (a, b) if a < b else (b, a)
            if key in claimed:
                return f"edge {key} claimed by {claimed[key]} and {d}"
            claimed[key] = d
    for u, v, _ in r.graph.edges():
        if (u, v) not in claimed:
            return f"rolled edge ({u},{v}) belongs to no active duplicate"


def check_isomorphism(r: RolledGraph) -> "str | None":
    """Each active duplicate's induced subgraph matches the base graph
    weight for weight under the column map."""
    n = r.base.n
    for d in r.active:
        cells = duplicate_cells(d, r.rows, n)
        for j1, j2 in itertools.combinations(range(n), 2):
            got = r.graph.weight(cells[j1], cells[j2])
            want = r.base.weight(j1, j2)
            if got != want:
                return f"duplicate {d}: pair ({j1},{j2}) weight {got} != {want}"


def check_value_decomposition(r: RolledGraph, c: Clustering) -> "str | None":
    """A grid clustering's value equals the sum of its induced clusterings'
    values on the base graph, exactly, for both objectives."""
    for objective in ObjectiveKind:
        whole = clustering_value(r.graph, c, objective)
        parts = sum(
            (
                clustering_value(r.base, induced_clustering(r, c, d), objective)
                for d in r.active
            ),
            Fraction(0),
        )
        if whole != parts:
            return f"{objective.value}: rolled value {whole} != sum of parts {parts}"


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x), within a relative 1e-6 of it,
    computed in integers so that no x underflows or overflows a float."""
    p, q = x.numerator, x.denominator
    return Fraction(math.isqrt(p * q * 10**12) + (p != 0), q * 10**6)
