"""Instance generators and the cross-module verification suite.

Three generator models cover the experiments: planted partitions with sign
flips, sparse uniform rational weights, and dense random +-1 signs. All
instance randomness flows from the GenSpec seed through a named stream.

verify_all replays every module's invariant checks over generated
instances: the duplicate-count formula, the bone partition, edge
disjointness, per-duplicate isomorphism, the value decomposition over
duplicates, contributing-set preservation under rounding, per-edge
unbiasedness, the exact-solver cross-check, the trivial half bound, and
the duplication round-trip. Each check returns the first failure it finds
as a string, or None, and CheckResult.record counts it. Check functions
are exposed individually so tests can also run them on deliberately
corrupted structures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Union

from .core import (
    Clustering,
    ObjectiveKind,
    SignedGraph,
    clustering_value,
    contributing_edges,
)
from .roll import (
    RolledGraph,
    all_duplicates,
    build_roll,
    duplicate_cells,
    duplicate_of,
    duplication_clustering,
    induced_clustering,
    untrimmed_duplicate_count,
    valid_roll_size,
)
from .rounding import RoundingParams, round_graph
from .solvers import solve_exact, solve_exact_reference, solve_trivial_max
from .streams import derive_seed, make_rng


@dataclass(frozen=True)
class PlantedPartition:
    """Complete +-1 instance: +1 inside the k planted clusters (node i goes
    to cluster i mod k), -1 across, each sign flipped with flip_prob."""

    clusters: int
    flip_prob: float = 0.0

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError("clusters must be at least 1")
        if not 0 <= self.flip_prob <= 1:
            raise ValueError("flip_prob must lie in [0, 1]")


@dataclass(frozen=True)
class UniformRational:
    """Each pair independently present with probability density; present
    weights are uniform nonzero p/q with q <= denominator_bound, |w| <= 1."""

    density: float = 0.5
    denominator_bound: int = 6

    def __post_init__(self):
        if not 0 <= self.density <= 1:
            raise ValueError("density must lie in [0, 1]")
        if self.denominator_bound < 1:
            raise ValueError("denominator_bound must be at least 1")


@dataclass(frozen=True)
class CompleteSigned:
    """Every pair weighted +1 with probability plus_prob, else -1."""

    plus_prob: float = 0.5

    def __post_init__(self):
        if not 0 <= self.plus_prob <= 1:
            raise ValueError("plus_prob must lie in [0, 1]")


Model = Union[PlantedPartition, UniformRational, CompleteSigned]


@dataclass(frozen=True)
class GenSpec:
    n: int
    model: Model
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if isinstance(self.model, PlantedPartition) and self.model.clusters > max(self.n, 1):
            raise ValueError("planted cluster count cannot exceed n")


def generate(spec: GenSpec) -> SignedGraph:
    """Deterministic instance for the given GenSpec seed."""
    rng = make_rng(spec.seed, "gen")
    n = spec.n
    model = spec.model
    weights: dict = {}
    if isinstance(model, PlantedPartition):
        k = model.clusters
        for u in range(n):
            for v in range(u + 1, n):
                w = 1 if u % k == v % k else -1
                if model.flip_prob and rng.random() < model.flip_prob:
                    w = -w
                weights[(u, v)] = Fraction(w)
    elif isinstance(model, UniformRational):
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < model.density:
                    q = rng.randint(1, model.denominator_bound)
                    p = rng.randint(1, q)
                    if rng.random() < 0.5:
                        p = -p
                    weights[(u, v)] = Fraction(p, q)
    elif isinstance(model, CompleteSigned):
        for u in range(n):
            for v in range(u + 1, n):
                weights[(u, v)] = Fraction(1 if rng.random() < model.plus_prob else -1)
    else:
        raise TypeError(f"unknown model {model!r}")
    return SignedGraph(n, weights)


# --- invariant checks -----------------------------------------------------


@dataclass
class CheckResult:
    instances_run: int = 0
    failures: int = 0
    worst_case_detail: str = ""  # the first failure found

    def record(self, detail: "str | None") -> None:
        """Count one instance checked; a detail is its failure."""
        self.instances_run += 1
        if detail is not None:
            self.failures += 1
            if not self.worst_case_detail:
                self.worst_case_detail = detail


@dataclass
class VerifyReport:
    checks: "dict[str, CheckResult]"

    @property
    def ok(self) -> bool:
        return all(c.failures == 0 for c in self.checks.values())

    def to_dict(self) -> dict:
        return {name: asdict(c) for name, c in self.checks.items()}


def check_duplicate_count(n: int, rows: int) -> "str | None":
    """Untrimmed duplicate count matches the closed form and exceeds rows^2/n."""
    count = sum(1 for _ in all_duplicates(rows, n))
    expected = untrimmed_duplicate_count(n, rows)
    if count != expected:
        return f"n={n} rows={rows}: counted {count}, formula {expected}"
    if n >= 1 and rows * rows % n == 0 and count <= rows * rows // n:
        return f"n={n} rows={rows}: {count} duplicates, need more than {rows * rows // n}"


def check_bone_partition(n: int, rows: int) -> "str | None":
    """Every grid bone belongs to exactly one duplicate, and the bone count
    is duplicates * C(n,2). Exhaustive over all cell pairs."""
    owned: dict = {}
    for a, b in itertools.combinations(range(rows * n), 2):
        d = duplicate_of(a, b, rows, n)
        if d is None:
            continue
        cells = duplicate_cells(d, rows, n)
        if a not in cells or b not in cells:
            return f"n={n} rows={rows}: bone {a},{b} not inside duplicate {d}"
        owned[d] = owned.get(d, 0) + 1
    expected_per_dup = n * (n - 1) // 2
    bones = sum(owned.values())
    expected = untrimmed_duplicate_count(n, rows) * expected_per_dup
    if bones != expected:
        return f"n={n} rows={rows}: {bones} bones, expected {expected}"
    for d, count in owned.items():
        if count != expected_per_dup:
            return f"n={n} rows={rows}: duplicate {d} owns {count} bones"


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


def check_rounding_preservation(
    g: SignedGraph, c: Clustering, params: RoundingParams
) -> "str | None":
    """Rounding never adds contributing edges, and the post-rounding value
    equals the |rounded| sum over the pre-rounding contributing set."""
    out = round_graph(g, params)
    for objective in ObjectiveKind:
        pre = contributing_edges(out.before, c, objective)
        post = contributing_edges(out.after, c, objective)
        if not post <= pre:
            return f"{objective.value}: contributing set grew under rounding"
        direct = clustering_value(out.after, c, objective)
        summed = out.after.abs_weight(pre)
        if direct != summed:
            return f"{objective.value}: value {direct} != surviving sum {summed}"


def check_unbiasedness(w: Fraction, alpha, beta, samples: int, seed: int) -> "str | None":
    """Empirical mean of the rounded weight stays within 4 standard errors
    of the original weight."""
    g = SignedGraph(2, {(0, 1): w})
    total = Fraction(0)
    for i in range(samples):
        params = RoundingParams(alpha=alpha, beta=beta, seed=derive_seed(seed, "mean", i))
        total += round_graph(g, params).after.weight(0, 1)
    mean = total / samples
    magnitude = Fraction(beta) if w > 0 else Fraction(alpha)
    variance = magnitude * abs(w) - w * w
    tolerance = 4 * _sqrt_upper(variance / samples)
    if abs(mean - w) > tolerance:
        return f"w={w}: mean {mean} drifted more than {tolerance} from {w}"


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x), within a relative 1e-6 of it,
    computed in integers so that no x underflows or overflows a float."""
    p, q = x.numerator, x.denominator
    return Fraction(math.isqrt(p * q * 10**12) + (p != 0), q * 10**6)


def check_oracle_agreement(g: SignedGraph) -> "str | None":
    """The incremental exact solver and the naive reference enumerator agree
    on the optimal value for both objectives, and both sides' reported
    values re-evaluate correctly."""
    for objective in ObjectiveKind:
        fast = solve_exact(g, objective)
        slow = solve_exact_reference(g, objective)
        if fast.value != slow.value:
            return f"{objective.value}: fast {fast.value} != reference {slow.value}"
        if clustering_value(g, fast.clustering, objective) != fast.value:
            return f"{objective.value}: fast result value does not re-evaluate"
        if clustering_value(g, slow.clustering, objective) != slow.value:
            return f"{objective.value}: reference result value does not re-evaluate"


def check_trivial_bound(g: SignedGraph) -> "str | None":
    """2 * trivial >= total |weight| >= OPT >= trivial, all exact."""
    trivial = solve_trivial_max(g)
    total = g.total_abs_weight()
    if 2 * trivial.value < total:
        return f"2*{trivial.value} < total {total}"
    if g.n <= 8:
        opt = solve_exact(g, ObjectiveKind.MAX_AGREE)
        if not (total >= opt.value >= trivial.value):
            return f"ordering violated: total {total}, opt {opt.value}, trivial {trivial.value}"


def check_duplication_roundtrip(r: RolledGraph, u: Clustering) -> "str | None":
    """Inducing the duplication clustering on any active duplicate gives
    back the original base clustering."""
    lifted = duplication_clustering(u, r.rows)
    for d in r.active:
        if induced_clustering(r, lifted, d) != u:
            return f"duplicate {d} does not round-trip"


def _random_clustering(rng, n: int) -> Clustering:
    k = rng.randint(1, max(1, min(10, n)))
    return Clustering(rng.randrange(k) for _ in range(n))


def verify_all(seed: int = 0, sizes=(3, 4, 5), ts=(0, 1), instances: int = 5) -> VerifyReport:
    """Run every invariant suite over generated instances. All randomness
    derives from the seed; the report counts failures per check."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    # with no size or no t, most checks would run nothing and still read ok
    if not sizes or not ts:
        raise ValueError("sizes and ts must each name at least one value")
    checks = {
        name: CheckResult()
        for name in (
            "duplicate_count",
            "bone_partition",
            "edge_disjointness",
            "isomorphism",
            "value_decomposition",
            "rounding_preservation",
            "unbiasedness",
            "oracle_agreement",
            "trivial_bound",
            "duplication_roundtrip",
        )
    }

    for n in sizes:
        for t in ts:
            rows = valid_roll_size(n, t)
            checks["duplicate_count"].record(check_duplicate_count(n, rows))
            if rows <= 15:
                checks["bone_partition"].record(check_bone_partition(n, rows))
            for i in range(instances):
                gen_seed = derive_seed(seed, "verify", n, t, i)
                g = generate(GenSpec(n=n, model=UniformRational(density=0.7), seed=gen_seed))
                r = build_roll(g, t)
                rng = make_rng(gen_seed, "clusterings")
                checks["edge_disjointness"].record(check_edge_disjointness(r))
                checks["isomorphism"].record(check_isomorphism(r))
                checks["value_decomposition"].record(
                    check_value_decomposition(r, _random_clustering(rng, rows * n))
                )
                params = RoundingParams(alpha=1, beta=2, seed=derive_seed(gen_seed, "round"))
                checks["rounding_preservation"].record(
                    check_rounding_preservation(r.graph, _random_clustering(rng, rows * n), params)
                )
                checks["duplication_roundtrip"].record(
                    check_duplication_roundtrip(r, _random_clustering(rng, n))
                )

    for idx, (w, alpha, beta) in enumerate(
        [(Fraction(1, 2), 1, 2), (Fraction(-1, 3), 2, 1), (Fraction(1), 1, 1)]
    ):
        checks["unbiasedness"].record(
            check_unbiasedness(w, alpha, beta, samples=2000, seed=derive_seed(seed, "unbias", idx))
        )

    for n in sizes:
        for i in range(instances):
            g = generate(
                GenSpec(
                    n=min(n, 6),
                    model=UniformRational(density=0.8),
                    seed=derive_seed(seed, "oracle", n, i),
                )
            )
            checks["oracle_agreement"].record(check_oracle_agreement(g))
            checks["trivial_bound"].record(check_trivial_bound(g))

    return VerifyReport(checks=checks)
