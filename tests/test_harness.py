from fractions import Fraction

import pytest

from rollclust.core import Clustering, ObjectiveKind, SignedGraph
from rollclust.harness import (
    CheckResult,
    CompleteSigned,
    GenSpec,
    PlantedPartition,
    UniformRational,
    check_bone_partition,
    check_duplicate_count,
    check_edge_disjointness,
    check_isomorphism,
    check_unbiasedness,
    check_value_decomposition,
    generate,
    verify_all,
    _sqrt_upper,
)
from rollclust.roll import RolledGraph, build_roll, valid_roll_size
from rollclust.solvers import solve_exact


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
    with pytest.raises(TypeError):
        generate(GenSpec(n=3, model="bogus"))


def test_verify_all_is_green():
    report = verify_all(seed=1, sizes=(3, 4), ts=(0, 1), instances=2)
    assert report.ok
    assert len(report.checks) == 10
    for name, check in report.checks.items():
        assert check.instances_run > 0, name


@pytest.mark.parametrize("instances", [0, -1])
def test_verify_all_rejects_fewer_than_one_instance(instances):
    with pytest.raises(ValueError, match="instances must be at least 1"):
        verify_all(seed=1, sizes=(3,), ts=(0,), instances=instances)


@pytest.mark.parametrize("sizes, ts", [((), (0,)), ((3,), ()), ((), ())])
def test_verify_all_rejects_empty_sizes_or_ts(sizes, ts):
    # most checks would run no instance and still read ok
    with pytest.raises(ValueError, match="sizes and ts must each name at least one value"):
        verify_all(seed=1, sizes=sizes, ts=ts, instances=1)


def test_structural_checks_do_not_read_the_cached_cells():
    # the edge-disjointness and isomorphism checks recompute every
    # duplicate's nodes, so a roll whose cached cells are wrong still passes
    # them on a sound graph, while reading candidates through those cells
    # breaks the value decomposition
    g = generate(GenSpec(n=4, model=UniformRational(density=1.0), seed=9))
    r = build_roll(g, valid_roll_size(4, 1))
    wrong = RolledGraph(r.base, r.rows, r.graph, r.active)
    object.__setattr__(wrong, "_cells", {d: (0, 1, 2, 3) for d in r.active})
    assert check_edge_disjointness(wrong) is None
    assert check_isomorphism(wrong) is None
    c = Clustering([i // 5 % 2 for i in range(r.rows * 4)])
    assert check_value_decomposition(r, c) is None
    assert "sum of parts" in check_value_decomposition(wrong, c)


def test_checks_pass_on_clean_roll():
    g = generate(GenSpec(n=4, model=UniformRational(density=0.8), seed=9))
    rows = valid_roll_size(4, 0)
    r = build_roll(g, rows)
    for check in (check_edge_disjointness, check_isomorphism):
        assert check(r) is None


def test_negative_control_missing_duplicate_is_caught():
    # drop one active duplicate: its bones are now claimed by nobody
    g = generate(GenSpec(n=4, model=UniformRational(density=1.0), seed=9))
    r = build_roll(g, valid_roll_size(4, 0))
    corrupted = RolledGraph(r.base, r.rows, r.graph, r.active[:-1])
    assert "no active duplicate" in check_edge_disjointness(corrupted)


def test_negative_control_double_claim_is_caught():
    g = generate(GenSpec(n=4, model=UniformRational(density=1.0), seed=9))
    r = build_roll(g, valid_roll_size(4, 0))
    corrupted = RolledGraph(r.base, r.rows, r.graph, r.active + (r.active[0],))
    assert "claimed by" in check_edge_disjointness(corrupted)


def test_negative_control_wrong_weight_is_caught():
    g = generate(GenSpec(n=3, model=CompleteSigned(), seed=4))
    r = build_roll(g, valid_roll_size(3, 0))
    weights = {(u, v): w for u, v, w in r.graph.edges()}
    u, v, w = next(iter(r.graph.edges()))
    weights[(u, v)] = w + 1 if w != -1 else Fraction(1, 2)
    bad_graph = SignedGraph(r.graph.n, weights)
    corrupted = RolledGraph(r.base, r.rows, bad_graph, r.active)
    assert "weight" in check_isomorphism(corrupted)
    # a one-cluster grid clustering sees the weight change on both sides
    # only if the edge contributes; the isomorphism check is the reliable one
    check_value_decomposition(corrupted, Clustering([0] * (r.rows * 3)))


def test_structural_checks_report_counts():
    assert check_duplicate_count(3, 9) is None
    assert check_duplicate_count(4, 4) is None
    assert check_bone_partition(3, 9) is None


def test_check_result_keeps_first_detail():
    result = CheckResult()
    result.record("first")
    result.record(None)
    result.record("second")
    assert result.instances_run == 3
    assert result.failures == 2
    assert result.worst_case_detail == "first"


def test_unbiasedness_check_takes_weights_beyond_float_range():
    # a float-seeded square root looped forever on the first (the float
    # underflows to 0) and overflowed on the second
    assert check_unbiasedness(Fraction(1, 10**400), 1, 1, samples=3, seed=0) is None
    assert check_unbiasedness(Fraction(1, 2), 1, 10**400, samples=3, seed=0) is None
    for x in (Fraction(0), Fraction(1, 10**400), Fraction(10**400), Fraction(3, 8000), Fraction(2)):
        r = _sqrt_upper(x)
        assert x <= r * r <= x * Fraction(1000001, 1000000) ** 2
