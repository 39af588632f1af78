"""Frozen seeded outputs: reports stay byte-identical across refactors.

Each report case runs run_trials with fixed seeds and hashes the JSON the
`rollclust reduce` command writes for it (aggregate_to_dict, two-space
indent, sorted keys). The cases cover both objectives, the exact, trivial
and local solvers, lambda 1 and 3/2, +-1 and rational bases, integer and
rational rounding magnitudes, and rounded grids on which the local search
starts from one cluster, from singletons, and from a tie between the two.
The local cases run solve_local_search directly on unrounded rolled grids
and freeze its labels and exact value. The roll cases run `rollclust roll`
on seeded rational bases and hash the rolled graph file and its
`.duplicates.json` sidecar byte for byte. The generator cases hash the
graph files `generate` makes for n = 0..8 and three seeds, each model at
two parameter settings.

The digests were computed once from the pipeline and are not derived from
any formula: a mismatch means a seeded report changed.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from rollclust.cli import main
from rollclust.core import ObjectiveKind, SignedGraph, format_graph, write_graph
from rollclust.harness import CompleteSigned, GenSpec, PlantedPartition, UniformRational, generate
from rollclust.reduction import ReductionConfig, aggregate_to_dict, run_trials
from rollclust.roll import build_roll
from rollclust.rounding import RoundingParams
from rollclust.solvers import SolverKind, SolverSpec, solve_local_search

# name -> (n, t, model, generator seed, (alpha, beta))
BASES = {
    "rational-3-0": (3, 0, UniformRational(density=1.0), 11, (1, 1)),
    "rational-3-1": (3, 1, UniformRational(density=1.0), 12, (1, 1)),
    "planted-4-1": (4, 1, PlantedPartition(clusters=2, flip_prob=0.1), 13, (1, 1)),
    "signed-3-1": (3, 1, CompleteSigned(plus_prob=0.9), 14, (1, 1)),
    "sparse-4-0": (4, 0, UniformRational(density=0.8), 15, (Fraction(3, 2), 2)),
}
LAMBDAS = {"1": Fraction(1), "3/2": Fraction(3, 2)}
SEEDS = (1, 2)
TRIALS = 3


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def report_keys():
    for name, (n, t, _, _, _) in BASES.items():
        for objective in ("max", "min"):
            solvers = ["local"]
            if objective == "max":
                solvers.append("trivial")
            if n == 3 and t == 0:
                solvers.append("exact")
            for solver in solvers:
                for lam in LAMBDAS:
                    for seed in SEEDS:
                        yield (name, objective, solver, lam, seed)


def report_digest(name, objective, solver, lam, seed) -> str:
    n, t, model, gen_seed, (alpha, beta) = BASES[name]
    g = generate(GenSpec(n=n, model=model, seed=gen_seed))
    cfg = ReductionConfig(
        objective=ObjectiveKind(objective),
        t=t,
        rounding=RoundingParams(alpha=alpha, beta=beta, seed=seed),
        solver=SolverSpec(SolverKind(solver), seed=seed + 100),
        epsilon=Fraction(1, 20),
        lambda_ref=LAMBDAS[lam],
    )
    text = json.dumps(aggregate_to_dict(run_trials(g, cfg, TRIALS)), indent=2, sort_keys=True)
    return hashlib.sha256((text + "\n").encode()).hexdigest()[:16]


# name -> (base graph, t); the rolled grids keep the base's rational weights
LOCAL_GRAPHS = {
    "rational-3-1": (lambda: generate(GenSpec(n=3, model=UniformRational(density=1.0), seed=12)), 1),
    "rational-4-1": (lambda: generate(GenSpec(n=4, model=UniformRational(density=0.9), seed=21)), 1),
    "planted-4-1": (lambda: generate(GenSpec(n=4, model=PlantedPartition(2, 0.2), seed=22)), 1),
    # equal positive and negative totals: the start is the tie
    "tie-4-1": (lambda: SignedGraph(4, {(0, 1): 1, (2, 3): 1, (0, 2): -1, (1, 3): -1}), 1),
    "negative-3-1": (lambda: SignedGraph(3, {(0, 1): Fraction(1, 3), (1, 2): -1, (0, 2): Fraction(-1, 2)}), 1),
    "positive-4-1": (
        lambda: SignedGraph(
            4,
            {(0, 1): 1, (1, 2): Fraction(2, 3), (2, 3): 1, (0, 3): Fraction(-1, 2), (0, 2): Fraction(-1, 4)},
        ),
        1,
    ),
}
LOCAL_CASES = [(name, objective) for name in LOCAL_GRAPHS for objective in ("max", "min")]


def rolled_grid(name) -> SignedGraph:
    make, t = LOCAL_GRAPHS[name]
    base = make()
    return build_roll(base, t).graph


def local_result(name, objective):
    return solve_local_search(rolled_grid(name), ObjectiveKind(objective), budget=1000)


REPORTS = {
    ("rational-3-0", "max", "local", "1", 1): "7695895c51613a22",
    ("rational-3-0", "max", "local", "1", 2): "5c9441d5f618aa03",
    ("rational-3-0", "max", "local", "3/2", 1): "88523365da1a9c31",
    ("rational-3-0", "max", "local", "3/2", 2): "1bcf2927aca672ae",
    ("rational-3-0", "max", "trivial", "1", 1): "db85e9e914a68521",
    ("rational-3-0", "max", "trivial", "1", 2): "a1dbebab4624d269",
    ("rational-3-0", "max", "trivial", "3/2", 1): "19f71638f551f250",
    ("rational-3-0", "max", "trivial", "3/2", 2): "a4fc778113df60a4",
    ("rational-3-0", "max", "exact", "1", 1): "dcdb53a363153840",
    ("rational-3-0", "max", "exact", "1", 2): "99852bfce5c485b8",
    ("rational-3-0", "max", "exact", "3/2", 1): "bbc87bc6c1baf89b",
    ("rational-3-0", "max", "exact", "3/2", 2): "24628e3d1351a7b7",
    ("rational-3-0", "min", "local", "1", 1): "43df047e31aedda2",
    ("rational-3-0", "min", "local", "1", 2): "a88b61fe177369a7",
    ("rational-3-0", "min", "local", "3/2", 1): "679f61c07cffac82",
    ("rational-3-0", "min", "local", "3/2", 2): "e9c06417cf2f0bcc",
    ("rational-3-0", "min", "exact", "1", 1): "ef3b097ed5b8c51d",
    ("rational-3-0", "min", "exact", "1", 2): "55c80022886cdfac",
    ("rational-3-0", "min", "exact", "3/2", 1): "2340a1f05cb6be17",
    ("rational-3-0", "min", "exact", "3/2", 2): "c299eff3887293f8",
    ("rational-3-1", "max", "local", "1", 1): "bb8f0f2cf545b685",
    ("rational-3-1", "max", "local", "1", 2): "009fec5d049d6031",
    ("rational-3-1", "max", "local", "3/2", 1): "ec5d8099a92755bf",
    ("rational-3-1", "max", "local", "3/2", 2): "bc81eb7a70f4e6b0",
    ("rational-3-1", "max", "trivial", "1", 1): "43950d357cf90f2e",
    ("rational-3-1", "max", "trivial", "1", 2): "712dea6f0d2c63c8",
    ("rational-3-1", "max", "trivial", "3/2", 1): "df4424536bddb41c",
    ("rational-3-1", "max", "trivial", "3/2", 2): "9adb532747a80f34",
    ("rational-3-1", "min", "local", "1", 1): "95dc300bc0809d9e",
    ("rational-3-1", "min", "local", "1", 2): "a53200c62b078792",
    ("rational-3-1", "min", "local", "3/2", 1): "f4bbe1976b0ec32f",
    ("rational-3-1", "min", "local", "3/2", 2): "6f13bc2ff4c25e82",
    ("planted-4-1", "max", "local", "1", 1): "f7dfb2fe7af7a4d2",
    ("planted-4-1", "max", "local", "1", 2): "6014cf62a4604aa8",
    ("planted-4-1", "max", "local", "3/2", 1): "4f6a2a3f551efa47",
    ("planted-4-1", "max", "local", "3/2", 2): "98791184f601c780",
    ("planted-4-1", "max", "trivial", "1", 1): "27d61b30d861f8d8",
    ("planted-4-1", "max", "trivial", "1", 2): "f148fc503c47d840",
    ("planted-4-1", "max", "trivial", "3/2", 1): "0606d50372ac164b",
    ("planted-4-1", "max", "trivial", "3/2", 2): "d16f167de89b2a19",
    ("planted-4-1", "min", "local", "1", 1): "8f8a5c73182ba45e",
    ("planted-4-1", "min", "local", "1", 2): "2cefcd3498512667",
    ("planted-4-1", "min", "local", "3/2", 1): "41f89b545b560269",
    ("planted-4-1", "min", "local", "3/2", 2): "9099a14d7d8cc4e9",
    ("signed-3-1", "max", "local", "1", 1): "329ff980b7a65973",
    ("signed-3-1", "max", "local", "1", 2): "e7f4ce40d3548cb8",
    ("signed-3-1", "max", "local", "3/2", 1): "d8713ef6194dec08",
    ("signed-3-1", "max", "local", "3/2", 2): "3666cc45cb053658",
    ("signed-3-1", "max", "trivial", "1", 1): "af2b038127cc8da2",
    ("signed-3-1", "max", "trivial", "1", 2): "db51955082cb6e5c",
    ("signed-3-1", "max", "trivial", "3/2", 1): "bd263b7dd8bb8508",
    ("signed-3-1", "max", "trivial", "3/2", 2): "391c67d5f9940e1c",
    ("signed-3-1", "min", "local", "1", 1): "bf6b36d449486231",
    ("signed-3-1", "min", "local", "1", 2): "99cbe9bf58580131",
    ("signed-3-1", "min", "local", "3/2", 1): "d66ab599df45b18f",
    ("signed-3-1", "min", "local", "3/2", 2): "9d25b878a3493931",
    ("sparse-4-0", "max", "local", "1", 1): "7e1f624c6afd7731",
    ("sparse-4-0", "max", "local", "1", 2): "1d4f3d624392cb22",
    ("sparse-4-0", "max", "local", "3/2", 1): "a082108a9fcfd281",
    ("sparse-4-0", "max", "local", "3/2", 2): "edcbe7a79dda2c0a",
    ("sparse-4-0", "max", "trivial", "1", 1): "6803d6fb7d6e93f1",
    ("sparse-4-0", "max", "trivial", "1", 2): "c51308730dd881d3",
    ("sparse-4-0", "max", "trivial", "3/2", 1): "408cefd767eaa57f",
    ("sparse-4-0", "max", "trivial", "3/2", 2): "942564721f8765d0",
    ("sparse-4-0", "min", "local", "1", 1): "d48f67ef2aa8cd29",
    ("sparse-4-0", "min", "local", "1", 2): "6a97d5536268ece9",
    ("sparse-4-0", "min", "local", "3/2", 1): "ccc52315e4058b39",
    ("sparse-4-0", "min", "local", "3/2", 2): "b95d657b3303c47f",
}

LOCAL = {
    ("rational-3-1", "max"): ("465bad8f62dcc84b", "27"),
    ("rational-3-1", "min"): ("465bad8f62dcc84b", "0"),
    ("rational-4-1", "max"): ("d2d6d8ad9e8c246f", "512/3"),
    ("rational-4-1", "min"): ("d2d6d8ad9e8c246f", "64"),
    ("planted-4-1", "max"): ("6a908a479525a2d6", "384"),
    ("planted-4-1", "min"): ("6a908a479525a2d6", "0"),
    ("tie-4-1", "max"): ("76b25cdd1535b0bb", "128"),
    ("tie-4-1", "min"): ("76b25cdd1535b0bb", "128"),
    ("negative-3-1", "max"): ("465bad8f62dcc84b", "99/2"),
    ("negative-3-1", "min"): ("465bad8f62dcc84b", "0"),
    ("positive-4-1", "max"): ("76b25cdd1535b0bb", "512/3"),
    ("positive-4-1", "min"): ("76b25cdd1535b0bb", "48"),
}

# which trivial clustering each direct local case starts from
LOCAL_STARTS = {
    "rational-3-1": "singletons",
    "rational-4-1": "singletons",
    "planted-4-1": "singletons",
    "tie-4-1": "tie",
    "negative-3-1": "singletons",
    "positive-4-1": "one-cluster",
}


def test_report_cases_are_all_frozen():
    assert sorted(REPORTS) == sorted(report_keys())
    assert sorted(LOCAL) == sorted(LOCAL_CASES)


@pytest.mark.parametrize("key", sorted(REPORTS), ids=lambda key: "-".join(map(str, key)))
def test_seeded_report_is_byte_identical(key):
    assert report_digest(*key) == REPORTS[key]


@pytest.mark.parametrize("key", sorted(LOCAL), ids=lambda key: "-".join(map(str, key)))
def test_local_search_on_rolled_grid_is_frozen(key):
    res = local_result(*key)
    assert (digest(res.clustering.labels), str(res.value)) == LOCAL[key]


def test_local_cases_cover_every_start():
    for name, expected in LOCAL_STARTS.items():
        g = rolled_grid(name)
        pos = sum(w for _, _, w in g.edges() if w > 0)
        neg = -sum(w for _, _, w in g.edges() if w < 0)
        start = "tie" if pos == neg else ("one-cluster" if pos > neg else "singletons")
        assert start == expected, name


# (n, t) -> generator seed of a UniformRational(density=0.9) base
ROLL_BASES = {(3, 1): 31, (4, 1): 41, (5, 2): 52}

# (n, t) -> digests of the rolled graph file and of its sidecar
ROLLS = {
    (3, 1): ("433479ca83f1ee3e", "7456a3f93089bbf0"),
    (4, 1): ("7d03ac91bfc5d5b3", "5426ef68caf0afcb"),
    (5, 2): ("fb43c38f226d7702", "c43d41189103feb8"),
}


@pytest.mark.parametrize("key", sorted(ROLLS), ids=lambda key: "n%d-t%d" % key)
def test_roll_command_output_is_byte_identical(key, tmp_path):
    n, t = key
    base, out = tmp_path / "base.txt", tmp_path / "rolled.txt"
    write_graph(generate(GenSpec(n=n, model=UniformRational(density=0.9), seed=ROLL_BASES[key])), str(base))
    assert main(["roll", str(base), "--t", str(t), "--out", str(out)]) == 0
    files = (out, tmp_path / "rolled.txt.duplicates.json")
    assert tuple(hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in files) == ROLLS[key]


# name -> (model, digest of its graph files for n = 0..8 and seeds 1..3)
GENERATED = {
    "planted-1": (PlantedPartition(clusters=1, flip_prob=0.3), "4164210c322946f6"),
    "planted-3": (PlantedPartition(clusters=3, flip_prob=0.1), "ba9fddc2ab94e53a"),
    "uniform-sparse": (UniformRational(density=0.4, denominator_bound=6), "719ff056d61c4e97"),
    "uniform-dense": (UniformRational(density=1.0, denominator_bound=2), "02949754b6ac6add"),
    "signed-even": (CompleteSigned(plus_prob=0.5), "041ee8da9b387e9c"),
    "signed-plus": (CompleteSigned(plus_prob=0.9), "80fc1a65d192243a"),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_graphs_are_frozen(name):
    model, expected = GENERATED[name]
    # a planted spec needs at least as many nodes as clusters
    texts = [format_graph(generate(GenSpec(n=n, model=model, seed=seed)))
             for n in range(9) for seed in (1, 2, 3)
             if not isinstance(model, PlantedPartition) or model.clusters <= max(n, 1)]
    assert hashlib.sha256("".join(texts).encode()).hexdigest()[:16] == expected
