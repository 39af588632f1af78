"""The instance generators, and negative controls for the checks in
tests/invariants.py: each must catch the corruption it is built for."""

from fractions import Fraction

import pytest

from rollclust.core import Clustering, ObjectiveKind, SignedGraph
from rollclust.harness import (
    CompleteSigned,
    GenSpec,
    PlantedPartition,
    UniformRational,
    generate,
)
from rollclust.roll import RolledGraph, build_roll, duplicate_cells
from rollclust.solvers import solve_exact

from invariants import (
    check_edge_disjointness,
    check_isomorphism,
    check_value_decomposition,
    sqrt_upper,
)


def complete_pairs(n):
    return n * (n - 1) // 2


def test_planted_no_flips_is_perfectly_clusterable():
    g = generate(GenSpec(n=6, model=PlantedPartition(clusters=2), seed=1))
    assert g.edge_count == complete_pairs(6)
    assert all(abs(w) == 1 for _, _, w in g.edges())
    res = solve_exact(g, ObjectiveKind.MIN_DISAGREE)
    assert res.value == 0
    assert res.clustering == Clustering([i % 2 for i in range(6)])


def test_planted_flip_prob_one_inverts_every_sign():
    clean = generate(GenSpec(n=5, model=PlantedPartition(clusters=2), seed=3))
    flipped = generate(GenSpec(n=5, model=PlantedPartition(clusters=2, flip_prob=1.0), seed=3))
    for u, v, w in clean.edges():
        assert flipped.weight(u, v) == -w


def test_uniform_weights_are_bounded_rationals():
    spec = GenSpec(n=8, model=UniformRational(density=0.6, denominator_bound=4), seed=7)
    g = generate(spec)
    for _, _, w in g.edges():
        assert 0 < abs(w) <= 1
        assert w.denominator <= 4
    assert generate(spec) == g  # same spec, same instance
    assert generate(GenSpec(n=8, model=spec.model, seed=8)) != g


def test_uniform_density_extremes():
    empty = generate(GenSpec(n=6, model=UniformRational(density=0.0), seed=0))
    assert empty.edge_count == 0
    full = generate(GenSpec(n=6, model=UniformRational(density=1.0), seed=0))
    assert full.edge_count == complete_pairs(6)


def test_complete_signed_model():
    g = generate(GenSpec(n=7, model=CompleteSigned(), seed=2))
    assert g.edge_count == complete_pairs(7)
    assert all(w in (Fraction(1), Fraction(-1)) for _, _, w in g.edges())
    plus = generate(GenSpec(n=5, model=CompleteSigned(plus_prob=1.0), seed=0))
    assert all(w == 1 for _, _, w in plus.edges())
    minus = generate(GenSpec(n=5, model=CompleteSigned(plus_prob=0.0), seed=0))
    assert all(w == -1 for _, _, w in minus.edges())


def test_model_validation():
    with pytest.raises(ValueError):
        PlantedPartition(clusters=0)
    with pytest.raises(ValueError):
        PlantedPartition(clusters=2, flip_prob=1.5)
    with pytest.raises(ValueError):
        UniformRational(density=-0.1)
    with pytest.raises(ValueError):
        UniformRational(denominator_bound=0)
    with pytest.raises(ValueError):
        CompleteSigned(plus_prob=2.0)
    with pytest.raises(ValueError):
        GenSpec(n=3, model=PlantedPartition(clusters=4))
    with pytest.raises(ValueError):
        GenSpec(n=-1, model=CompleteSigned())
    # the spec refuses an unknown model, after its n checks
    for n in (0, 3):
        with pytest.raises(TypeError, match="^unknown model 'bogus'$"):
            GenSpec(n=n, model="bogus")
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        GenSpec(n=-1, model="bogus")
    with pytest.raises(ValueError, match="pair limit$"):
        GenSpec(n=4900, model="bogus")


@pytest.mark.parametrize("model", [PlantedPartition(clusters=2), UniformRational(density=0.0),
                                   CompleteSigned()])
def test_gen_spec_refuses_more_pair_draws_than_the_pair_limit(model):
    # by arithmetic alone: every model draws once per pair, and the largest
    # admitted request takes minutes and gigabytes, so nothing is generated
    assert (complete_pairs(4899), complete_pairs(4900)) == (11_997_651, 12_002_550)
    assert GenSpec(n=4899, model=model).n == 4899
    with pytest.raises(ValueError, match=r"^n = '4900' needs n\(n-1\)/2 pair draws,"
                                         r" above the 12000000-pair limit$"):
        GenSpec(n=4900, model=model)
    # a long n is shown by its head, its tail and its length, also past the
    # 4,300 digits Python writes in decimal, as an API caller's n may be
    for digits in (4300, 5001):
        with pytest.raises(ValueError) as info:
            GenSpec(n=10 ** (digits - 1), model=model)
        assert str(info.value) == (f"n = '1{'0' * 19}...{'0' * 20}' ({digits} characters) needs"
                                   " n(n-1)/2 pair draws, above the 12000000-pair limit")


def test_structural_checks_do_not_read_the_cached_cells():
    # the edge-disjointness and isomorphism checks recompute every
    # duplicate's cells, so a roll whose cached cells are wrong still passes
    # them on a sound graph, while reading candidates through those cells
    # breaks the value decomposition
    g = generate(GenSpec(n=4, model=UniformRational(density=1.0), seed=9))
    r = build_roll(g, 1)
    wrong = RolledGraph(r.base, 1)
    object.__setattr__(wrong, "_cells", {d: (0, 1, 2, 3) for d in r.active})
    assert check_edge_disjointness(wrong) is None
    assert check_isomorphism(wrong) is None
    c = Clustering([i // 5 % 2 for i in range(r.rows * 4)])
    assert check_value_decomposition(r, c) is None
    assert "sum of parts" in check_value_decomposition(wrong, c)


def test_checks_pass_on_clean_roll():
    g = generate(GenSpec(n=4, model=UniformRational(density=0.8), seed=9))
    r = build_roll(g, 0)
    for check in (check_edge_disjointness, check_isomorphism):
        assert check(r) is None


def test_negative_control_missing_duplicate_is_caught():
    # drop one active duplicate from a built roll: its bones are now claimed by nobody
    g = generate(GenSpec(n=4, model=UniformRational(density=1.0), seed=9))
    corrupted = build_roll(g, 0)
    object.__setattr__(corrupted, "active", corrupted.active[:-1])
    assert "no active duplicate" in check_edge_disjointness(corrupted)


def test_negative_control_double_claim_is_caught(monkeypatch):
    g = generate(GenSpec(n=4, model=UniformRational(density=1.0), seed=9))
    corrupted = build_roll(g, 0)
    doubled = corrupted.active + (corrupted.active[0],)
    # the constructor refuses a second active copy on the first copy's
    # cells, and the check catches a duplicate listed twice on a built roll
    first, second = corrupted.active[:2]
    monkeypatch.setattr(
        "rollclust.roll.duplicate_cells",
        lambda d, rows, cols: duplicate_cells(first if d == second else d, rows, cols),
    )
    with pytest.raises(AssertionError, match="claimed by two active duplicates"):
        RolledGraph(corrupted.base, 0)
    object.__setattr__(corrupted, "active", doubled)
    assert "claimed by" in check_edge_disjointness(corrupted)


def test_negative_control_wrong_weight_is_caught():
    g = generate(GenSpec(n=3, model=CompleteSigned(), seed=4))
    corrupted = build_roll(g, 0)
    weights = {(u, v): w for u, v, w in corrupted.graph.edges()}
    u, v, w = next(iter(corrupted.graph.edges()))
    weights[(u, v)] = w + 1 if w != -1 else Fraction(1, 2)
    object.__setattr__(corrupted, "graph", SignedGraph(corrupted.graph.n, weights))
    assert "weight" in check_isomorphism(corrupted)
    # the changed edge goes from +1 to 2 inside the one cluster, so it
    # contributes to MaxAgree and the grid's value outgrows its parts
    one_cluster = Clustering([0] * (corrupted.rows * 3))
    assert "sum of parts" in check_value_decomposition(corrupted, one_cluster)


def test_sqrt_upper_takes_values_beyond_float_range():
    # a float-seeded square root loops forever on a value that underflows a
    # float to 0, and overflows on one beyond float range
    for x in (Fraction(0), Fraction(1, 10**400), Fraction(10**400), Fraction(3, 8000), Fraction(2)):
        r = sqrt_upper(x)
        assert x <= r * r <= x * Fraction(1000001, 1000000) ** 2
