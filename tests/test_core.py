import dataclasses
import random
from fractions import Fraction

import pytest

from rollclust.core import (
    Clustering,
    MAX_EXPONENT,
    MAX_NODES,
    GraphFormatError,
    ObjectiveKind,
    SignedGraph,
    clustering_value,
    contributing_edges,
    format_graph,
    parse_graph,
    parse_rational,
    quoted,
    scaled_values,
    shown,
)
from rollclust.solvers import solve_exact, solve_local_search

from invariants import total_abs_weight

MAX = ObjectiveKind.MAX_AGREE
MIN = ObjectiveKind.MIN_DISAGREE


def naive_contributing(g, c, objective):
    # independent restatement of the objective, straight from the definition
    pairs = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            w = g.weight(u, v)
            if w == 0:
                continue
            together = c.labels[u] == c.labels[v]
            if objective is MAX:
                counts = (w > 0 and together) or (w < 0 and not together)
            else:
                counts = (w > 0 and not together) or (w < 0 and together)
            if counts:
                pairs.add((u, v))
    return pairs


def naive_value(g, c, objective):
    return sum((abs(g.weight(u, v)) for u, v in naive_contributing(g, c, objective)), Fraction(0))


def random_graph(rng, n, density=0.7):
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                q = rng.randint(1, 6)
                p = rng.randint(-q, q)
                if p:
                    weights[(u, v)] = Fraction(p, q)
    return SignedGraph(n, weights)


def test_triangle_max_agree_examples():
    g = SignedGraph(3, {(0, 1): 1, (1, 2): -1, (0, 2): 1})
    assert clustering_value(g, Clustering.one_cluster(3), MAX) == 2
    assert clustering_value(g, Clustering([0, 0, 1]), MAX) == 2
    assert clustering_value(g, Clustering.singletons(3), MAX) == 1
    # complementarity on the same instances
    assert clustering_value(g, Clustering.one_cluster(3), MIN) == 1
    assert clustering_value(g, Clustering([0, 0, 1]), MIN) == 1


def test_four_cycle_contributing_set():
    # +1, -1, +1, -1 around a 4-cycle; split into the two +1 pairs
    g = SignedGraph(4, {(0, 1): 1, (1, 2): -1, (2, 3): 1, (0, 3): -1})
    c = Clustering([0, 0, 1, 1])
    expected = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert contributing_edges(g, c, MAX) == expected
    # every edge agrees here, so MinDisagree has nothing
    assert contributing_edges(g, c, MIN) == frozenset()
    assert clustering_value(g, c, MAX) == 4


def test_contributing_sets_partition_nonzero_edges():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        labels = [rng.randrange(3) for _ in range(n)]
        c = Clustering(labels)
        agree = contributing_edges(g, c, MAX)
        disagree = contributing_edges(g, c, MIN)
        assert agree & disagree == frozenset()
        assert agree | disagree == frozenset((u, v) for u, v, _ in g.edges())


def test_values_sum_to_total_abs_weight():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        c = Clustering([rng.randrange(4) for _ in range(n)])
        assert clustering_value(g, c, MAX) + clustering_value(g, c, MIN) == total_abs_weight(g)


def test_value_matches_naive_definition():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        c = Clustering([rng.randrange(3) for _ in range(n)])
        for objective in (MAX, MIN):
            assert clustering_value(g, c, objective) == naive_value(g, c, objective)


def test_label_permutation_invariance():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        labels = [rng.randrange(3) for _ in range(n)]
        perm = {0: 7, 1: 2, 2: 5}
        a = Clustering(labels)
        b = Clustering([perm[lbl] for lbl in labels])
        assert a == b
        for objective in (MAX, MIN):
            assert clustering_value(g, a, objective) == clustering_value(g, b, objective)


def test_values_are_exact_fractions():
    g = SignedGraph(3, {(0, 1): Fraction(1, 3), (1, 2): Fraction(-1, 7)})
    v = clustering_value(g, Clustering.one_cluster(3), MAX)
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 3)
    assert clustering_value(g, Clustering.one_cluster(3), MIN) == Fraction(1, 7)


def test_zero_weight_is_nonedge():
    g = SignedGraph(3, {(0, 1): 0, (1, 2): 1})
    assert g.edge_count == 1
    assert g.weight(0, 1) == 0
    assert (0, 1) not in contributing_edges(g, Clustering.one_cluster(3), MAX)


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        SignedGraph(3, {(1, 1): 1})
    with pytest.raises(ValueError):
        SignedGraph(2, {(0, 5): 1})
    with pytest.raises(TypeError):
        SignedGraph(2, {(0, 1): 0.5})
    with pytest.raises(ValueError):
        SignedGraph(3, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})


def test_a_zero_and_a_nonzero_weight_for_one_pair_conflict_in_either_order():
    for weights in ({(0, 1): 0, (1, 0): 1}, {(1, 0): 1, (0, 1): 0}):
        with pytest.raises(ValueError, match=r"conflicting weights for pair \(0, 1\)"):
            SignedGraph(2, weights)
    g = SignedGraph(2, {(0, 1): 0, (1, 0): 0})
    assert g.edge_count == 0 and g == SignedGraph(2)


def test_clustering_domain_mismatch():
    g = SignedGraph(3, {(0, 1): 1})
    with pytest.raises(ValueError):
        clustering_value(g, Clustering([0, 0]), MAX)


def test_graph_text_roundtrip():
    g = SignedGraph(4, {(0, 1): Fraction(1, 2), (2, 3): -2, (0, 3): Fraction(5, 6)})
    text = format_graph(g)
    assert parse_graph(text) == g
    # decimals parse exactly too
    h = parse_graph("2 1\n0 1 0.5\n")
    assert h.weight(0, 1) == Fraction(1, 2)


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n0 0 1\n",          # self-loop
        "2 2\n0 1 1\n1 0 2\n",   # duplicate pair
        "2 1\n0 5 1\n",          # out of range
        "2 2\n0 1 1\n",          # edge count mismatch
        "2 1\n0 1 x\n",          # bad weight
        "nope\n",                # bad header
    ],
)
def test_graph_text_format_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_graph_header_node_count_is_capped():
    assert parse_graph(f"{MAX_NODES} 1\n0 1 1/2\n").n == MAX_NODES
    with pytest.raises(GraphFormatError, match="n = 1000001 is above the 1000000-node limit"):
        parse_graph(f"{MAX_NODES + 1} 1\n0 1 1/2\n")


def test_rationals_keep_their_decimal_exponent_within_the_cap():
    # Python caps an integer token at 4300 digits; Fraction would expand a
    # decimal exponent past that in full, so the parser refuses it first
    assert MAX_EXPONENT == 4300
    for token in ("1e4300", "1E-4300", " 25e+4_300 ", "-3/4", "0.125e2"):
        assert parse_rational(token) == Fraction(token)
    # underscores do not count toward a number's digits, as in Python
    assert parse_rational("1_" * 4299 + "1") == int("1" * 4300)
    exponent = "decimal exponent above 4300 in absolute value"
    digits = "a number of more than 4300 digits"
    refused = [("1e4301", exponent), ("1e-4301", exponent), ("1E+99999", exponent),
               ("1e4_301", exponent), ("2.5e20000000", exponent),
               ("1e" + "9" * 5000, digits), ("9" * 5000, digits), ("0." + "9" * 4301, digits),
               ("1/" + "0" * 4301 + "1", digits), ("x", "not a rational"),
               ("1/0", "not a rational"), ("1e1__2", "not a rational")]
    for token, cause in refused:
        # the message is the cause alone: no token, and no advice to raise
        # Python's own digit limit
        with pytest.raises(ValueError) as info:
            parse_rational(token)
        assert str(info.value) == cause, token
    with pytest.raises(GraphFormatError, match=r"bad weight '1e-20000000': decimal exponent above 4300"):
        parse_graph("2 1\n0 1 1e-20000000\n")
    with pytest.raises(GraphFormatError) as info:
        parse_graph("2 1\n0 1 " + "9" * 5000 + "\n")
    assert str(info.value) == f"bad weight '{'9' * 20}...{'9' * 20}' (5000 characters): {digits}"


def test_a_long_token_is_quoted_as_its_head_its_tail_and_its_length():
    for token in ("", "1e-20000000", "x" * 60):
        assert quoted(token) == repr(token)
    token = "1e" + "0123456789" * 500
    assert quoted(token) == "'1e012345678901234567...01234567890123456789' (5002 characters)"
    assert quoted("a" * 30 + "b" * 31) == f"'{'a' * 20}...{'b' * 20}' (61 characters)"


def test_a_long_int_is_shown_as_quoted_shows_its_decimal():
    # bare up to 60 digits unless quoted, and past 4,300 digits, where
    # Python refuses to write an int in decimal, measured by arithmetic
    for x in (0, 7, 10**59, 10**60 - 1):
        assert (shown(x), shown(x, quote=True)) == (str(x), repr(str(x)))
    for x in (10**60, 10**4299, 10**4300 - 1):
        assert shown(x) == shown(x, quote=True) == quoted(str(x))
    nines, one = f"'{'9' * 20}...{'9' * 20}'", f"'1{'0' * 19}...{'0' * 20}'"
    for digits in (61, 4300, 4301, 5000, 9999, 100000):
        assert shown(10**digits - 1) == f"{nines} ({digits} characters)"
        assert shown(10**digits, quote=True) == f"{one} ({digits + 1} characters)"
    x = 12345 * 10**6000 + 987
    assert shown(x) == "'12345000000000000000...00000000000000000987' (6005 characters)"


def test_clustering_canonical_form():
    assert Clustering([5, 5, 2, 5]).labels == (0, 0, 1, 0)
    assert Clustering.singletons(3).labels == (0, 1, 2)
    assert Clustering.one_cluster(3).labels == (0, 0, 0)
    assert Clustering([]).labels == ()


# --- the integer kernel against the definitions ---------------------------
#
# SignedGraph keeps integers over one per-graph scale; these checks read
# only weight(), so they share no code with that representation.

DENOMINATORS = (1, 2, 3, 5, 7, 11, 512)


def mixed_graph(rng, n, density=0.8):
    """Weights over mixed denominators, numerators up to 1000."""
    weights = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                p = rng.randint(-1000, 1000)
                if p:
                    weights[(u, v)] = Fraction(p, rng.choice(DENOMINATORS))
    return SignedGraph(n, weights)


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def test_kernel_matches_naive_definition_on_mixed_denominators():
    fixed = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(-2, 3), (0, 2): Fraction(5, 7)})
    assert fixed.scale == 42
    assert clustering_value(fixed, Clustering([0, 0, 1]), MAX) == Fraction(1, 2) + Fraction(2, 3)
    rng = random.Random(211)
    graphs = [fixed, SignedGraph(0), SignedGraph(4)]
    graphs += [mixed_graph(rng, rng.randint(2, 8)) for _ in range(60)]
    for g in graphs:
        for _ in range(4):
            c = Clustering([rng.randrange(3) for _ in range(g.n)])
            for objective in (MAX, MIN):
                assert contributing_edges(g, c, objective) == naive_contributing(g, c, objective)
                assert clustering_value(g, c, objective) == naive_value(g, c, objective)
        pairs = [p for p in all_pairs(g.n) if rng.random() < 0.5]
        # abs_weight is an int over the graph's scale
        assert type(g.abs_weight(pairs)) is int
        assert Fraction(g.abs_weight(pairs), g.scale) == sum((abs(g.weight(u, v)) for u, v in pairs), Fraction(0))
        assert Fraction(g.abs_weight(all_pairs(g.n)), g.scale) == total_abs_weight(g)
    empty = SignedGraph(0)
    assert empty.scale == 1 and empty.abs_weight([]) == 0 and empty.max_abs_weight() == 0


def test_scaled_values_times_scale_are_the_clustering_values():
    rng = random.Random(223)
    graphs = [SignedGraph(0), SignedGraph(4)] + [mixed_graph(rng, rng.randint(2, 8)) for _ in range(40)]
    for g in graphs:
        cs = [Clustering([rng.randrange(3) for _ in range(g.n)]) for _ in range(4)]
        cs.append(cs[0])  # a repeated labeling is scored once, reported at each place
        for objective in (MAX, MIN):
            values = scaled_values(g, cs, objective)
            assert len(values) == len(cs) and values[-1] == values[0]
            for value, c in zip(values, cs):
                assert type(value) is int
                assert Fraction(value, g.scale) == clustering_value(g, c, objective)
                assert Fraction(value, g.scale) == naive_value(g, c, objective)


def test_max_abs_weight_is_an_int_over_the_scale():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(-5, 6), (0, 2): Fraction(1, 3)})
    assert g.scale == 6
    assert g.max_abs_weight() == 5 and type(g.max_abs_weight()) is int
    rng = random.Random(227)
    for g in [mixed_graph(rng, rng.randint(2, 8)) for _ in range(40)]:
        top = max((abs(g.weight(u, v)) for u, v in all_pairs(g.n)), default=Fraction(0))
        assert type(g.max_abs_weight()) is int
        assert Fraction(g.max_abs_weight(), g.scale) == top


def test_equal_weights_in_any_spelling_make_equal_graphs():
    spellings = [Fraction(2, 4), Fraction(1, 2), "1/2"]
    graphs = [SignedGraph(3, {(0, 1): w, (2, 1): -3}) for w in spellings]
    graphs.append(SignedGraph(3, {(1, 2): -3, (1, 0): "2/4"}))
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0])
    assert SignedGraph(3, {(0, 1): 1, (1, 2): -3}) != graphs[0]


def test_from_scaled_matches_the_fraction_built_graph():
    rng = random.Random(229)
    graphs = [SignedGraph(0), SignedGraph(3), SignedGraph(3, {(0, 1): 1, (1, 2): -1})]
    graphs += [mixed_graph(rng, rng.randint(2, 8)) for _ in range(40)]
    for g in graphs:
        for factor in (1, 6):
            # a scale that is not reduced must come back reduced
            scaled = {pair: w * factor for pair, w in g.scaled_weights()}
            h = SignedGraph._from_scaled(g.n, g.scale * factor, scaled)
            assert h == g and hash(h) == hash(g)
            assert h.scale == g.scale
            assert list(h.scaled_weights()) == list(g.scaled_weights())
    unsorted = SignedGraph._from_scaled(4, 4, {(2, 3): 2, (0, 1): -1, (1, 3): 4})
    assert unsorted == SignedGraph(4, {(0, 1): Fraction(-1, 4), (1, 3): 1, (2, 3): Fraction(1, 2)})
    assert [pair for pair, _ in unsorted.scaled_weights()] == [(0, 1), (1, 3), (2, 3)]
    assert SignedGraph._from_scaled(2, 3, {(0, 1): 3}).scale == 1


def scaled_by(g, c):
    return SignedGraph(g.n, {(u, v): c * w for u, v, w in g.edges()})


@pytest.mark.parametrize("factor", [Fraction(2, 7), Fraction(3)])
def test_positive_scaling_scales_values_and_keeps_solutions(factor):
    rng = random.Random(223)
    for _ in range(12):
        n = rng.randint(2, 7)
        g = mixed_graph(rng, n)
        h = scaled_by(g, factor)
        c = Clustering([rng.randrange(3) for _ in range(n)])
        for objective in (MAX, MIN):
            assert clustering_value(h, c, objective) == factor * clustering_value(g, c, objective)
            assert contributing_edges(h, c, objective) == contributing_edges(g, c, objective)
            for solve in (solve_exact, lambda graph, obj: solve_local_search(graph, obj, budget=50)):
                a, b = solve(g, objective), solve(h, objective)
                assert b.clustering == a.clustering
                assert b.value == factor * a.value


def test_node_relabeling_preserves_values():
    rng = random.Random(227)
    for _ in range(12):
        n = rng.randint(2, 7)
        g = mixed_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = SignedGraph(n, {(perm[u], perm[v]): w for u, v, w in g.edges()})
        labels = [rng.randrange(3) for _ in range(n)]
        moved = [0] * n
        for v in range(n):
            moved[perm[v]] = labels[v]
        for objective in (MAX, MIN):
            assert clustering_value(h, Clustering(moved), objective) == clustering_value(
                g, Clustering(labels), objective
            )
            assert solve_exact(h, objective).value == solve_exact(g, objective).value


def test_graphs_and_clusterings_are_frozen_slotted_records():
    g = SignedGraph(3, {(0, 1): Fraction(1, 2), (1, 2): -1})
    c = Clustering([2, 2, 0])
    assert (repr(g), repr(c)) == ("SignedGraph(n=3, edges=2)", "Clustering([0, 0, 1])")
    for record, name in ((g, "n"), (g, "_weights"), (c, "labels")):
        assert dataclasses.is_dataclass(record) and not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
    # equality and hashing follow (n, scale, weights) and the canonical labels
    same = SignedGraph(3, {(2, 1): -1, (1, 0): Fraction(2, 4)})
    assert g == same and hash(g) == hash(same)
    assert g != SignedGraph(4, {(0, 1): Fraction(1, 2), (1, 2): -1})
    assert c == Clustering([1, 1, 5]) and hash(c) == hash(Clustering([1, 1, 5]))
