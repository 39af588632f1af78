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
`.duplicates.json` sidecar byte for byte.

The digests were computed once from the pipeline and are not derived from
any formula: a mismatch means a seeded report changed.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from rollclust.cli import main
from rollclust.core import ObjectiveKind, SignedGraph, write_graph
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
    ("rational-3-0", "max", "local", "1", 1): "418d648bbc107d42",
    ("rational-3-0", "max", "local", "1", 2): "fddb8a91599259b6",
    ("rational-3-0", "max", "local", "3/2", 1): "bb206082052c75c8",
    ("rational-3-0", "max", "local", "3/2", 2): "217c500ece99c25c",
    ("rational-3-0", "max", "trivial", "1", 1): "9df2e7945319aafe",
    ("rational-3-0", "max", "trivial", "1", 2): "4db8e7195b9ea7e1",
    ("rational-3-0", "max", "trivial", "3/2", 1): "a8517a75491ae26a",
    ("rational-3-0", "max", "trivial", "3/2", 2): "a6a3fb0aa3dd0450",
    ("rational-3-0", "max", "exact", "1", 1): "4c920cfa399bc5ac",
    ("rational-3-0", "max", "exact", "1", 2): "454539d8c38944b6",
    ("rational-3-0", "max", "exact", "3/2", 1): "9dec2af269fbfe59",
    ("rational-3-0", "max", "exact", "3/2", 2): "5a7753133525643e",
    ("rational-3-0", "min", "local", "1", 1): "f44407e8094b33c2",
    ("rational-3-0", "min", "local", "1", 2): "2b94cf83a9ef5577",
    ("rational-3-0", "min", "local", "3/2", 1): "72a447f17ba6dd21",
    ("rational-3-0", "min", "local", "3/2", 2): "55ea9754e8e10b3c",
    ("rational-3-0", "min", "exact", "1", 1): "117b0f7c03d8a9be",
    ("rational-3-0", "min", "exact", "1", 2): "0c8f508727783a39",
    ("rational-3-0", "min", "exact", "3/2", 1): "99b539bfad1031e4",
    ("rational-3-0", "min", "exact", "3/2", 2): "9b282e05b2c87e94",
    ("rational-3-1", "max", "local", "1", 1): "1d2aa498440e5efe",
    ("rational-3-1", "max", "local", "1", 2): "a75fccae09bcf6fb",
    ("rational-3-1", "max", "local", "3/2", 1): "3173efa4aadd9dfb",
    ("rational-3-1", "max", "local", "3/2", 2): "0006be8aa62a4ea4",
    ("rational-3-1", "max", "trivial", "1", 1): "a2c6fbf93af1b0c5",
    ("rational-3-1", "max", "trivial", "1", 2): "c7de1d6d02a5f3a3",
    ("rational-3-1", "max", "trivial", "3/2", 1): "c260390e34c3a15f",
    ("rational-3-1", "max", "trivial", "3/2", 2): "76088b243c258ad0",
    ("rational-3-1", "min", "local", "1", 1): "b21a76c55b0e4e8c",
    ("rational-3-1", "min", "local", "1", 2): "f01f9292d1cc3965",
    ("rational-3-1", "min", "local", "3/2", 1): "0d51d09863ea1b64",
    ("rational-3-1", "min", "local", "3/2", 2): "9658bd0bad6eb4ae",
    ("planted-4-1", "max", "local", "1", 1): "4732ea7b89f2d50a",
    ("planted-4-1", "max", "local", "1", 2): "461fb6269fc78025",
    ("planted-4-1", "max", "local", "3/2", 1): "4fae544876615b5d",
    ("planted-4-1", "max", "local", "3/2", 2): "c91e1a83bab8a30a",
    ("planted-4-1", "max", "trivial", "1", 1): "d5897de5b715af0f",
    ("planted-4-1", "max", "trivial", "1", 2): "c8e9df375ad978f5",
    ("planted-4-1", "max", "trivial", "3/2", 1): "b861160f6670543c",
    ("planted-4-1", "max", "trivial", "3/2", 2): "ffd34cd42366599f",
    ("planted-4-1", "min", "local", "1", 1): "8ec096cb6661580f",
    ("planted-4-1", "min", "local", "1", 2): "6fd4926d331f1f68",
    ("planted-4-1", "min", "local", "3/2", 1): "328dbbb639eaf478",
    ("planted-4-1", "min", "local", "3/2", 2): "364cac551bd154b7",
    ("signed-3-1", "max", "local", "1", 1): "62f642fb44cd76b3",
    ("signed-3-1", "max", "local", "1", 2): "a1725c833bdd76cf",
    ("signed-3-1", "max", "local", "3/2", 1): "7c46821a9a63b726",
    ("signed-3-1", "max", "local", "3/2", 2): "71aa443a6044deeb",
    ("signed-3-1", "max", "trivial", "1", 1): "8f22bcf3cecd2b62",
    ("signed-3-1", "max", "trivial", "1", 2): "fc62943a49ad62e4",
    ("signed-3-1", "max", "trivial", "3/2", 1): "baea18bd2d48cb37",
    ("signed-3-1", "max", "trivial", "3/2", 2): "bc9be9bb88f59401",
    ("signed-3-1", "min", "local", "1", 1): "0995a7bc38a72b8c",
    ("signed-3-1", "min", "local", "1", 2): "773bf8091735a62d",
    ("signed-3-1", "min", "local", "3/2", 1): "dca0fcc5e13403af",
    ("signed-3-1", "min", "local", "3/2", 2): "76110db0f5503a81",
    ("sparse-4-0", "max", "local", "1", 1): "f1c39dc69a1b6d75",
    ("sparse-4-0", "max", "local", "1", 2): "7ccf94c7436761b7",
    ("sparse-4-0", "max", "local", "3/2", 1): "d6ddf44cd5c13ac7",
    ("sparse-4-0", "max", "local", "3/2", 2): "1f4f3bac55e0c4a4",
    ("sparse-4-0", "max", "trivial", "1", 1): "0a298bbd9b2c6a6f",
    ("sparse-4-0", "max", "trivial", "1", 2): "cf7906490bb5d369",
    ("sparse-4-0", "max", "trivial", "3/2", 1): "45f6219f147d2394",
    ("sparse-4-0", "max", "trivial", "3/2", 2): "2c7492dca39e9413",
    ("sparse-4-0", "min", "local", "1", 1): "a978160f52a5201f",
    ("sparse-4-0", "min", "local", "1", 2): "c5ab615adfcbe936",
    ("sparse-4-0", "min", "local", "3/2", 1): "768594f41b9cee32",
    ("sparse-4-0", "min", "local", "3/2", 2): "8f70ed1eda9c243f",
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
