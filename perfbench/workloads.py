"""The benchmark's workloads and the inputs each one draws from a seed.

A workload fixes the base-graph model and the ReductionConfig; the seed
picks the base graphs and the per-call seeds. Call i runs on base
i % pool with the config `rollclust reduce --seed call_seed(seed, i)` would
build, so a CLI child given that seed and base i replays call i exactly.
rollclust sees only the generated graphs and configs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from rollclust import (
    GenSpec,
    ObjectiveKind,
    PlantedPartition,
    ReductionConfig,
    RoundingParams,
    SignedGraph,
    SolverKind,
    SolverSpec,
    UniformRational,
    generate,
)
from rollclust.jsonutil import frac_to_str
from rollclust.streams import derive_seed


def derive(*parts) -> int:
    """A 64-bit seed from the workload seed and a tuple of name parts."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    model: object
    objective: ObjectiveKind
    t: int
    solver: SolverKind
    budget: int
    lambda_ref: Fraction
    epsilon: Fraction
    trials: int  # trials per run_trials call
    pool: int  # distinct bases per seed; calls cycle through them
    cli_runs: int  # `rollclust reduce` children per run, replaying calls 0..cli_runs-1
    tail_pct: float  # call_ms_tail percentile, lowered only when samples run short

    def bases(self, seed: int, gen=generate) -> "list[SignedGraph]":
        return [
            gen(GenSpec(self.n, self.model, seed=derive(seed, self.name, "base", i)))
            for i in range(self.pool)
        ]

    def warmup_base(self, gen=generate) -> SignedGraph:
        # Fixed across seeds so that set-up time does not depend on which
        # base (and so which local-search start) a seed happens to draw.
        return gen(GenSpec(self.n, self.model, seed=derive("warmup", self.name)))

    def call_seed(self, seed: int, call: int) -> int:
        return derive(seed, self.name, "call", call)

    def config(self, call_seed: int) -> ReductionConfig:
        """The config `rollclust reduce --seed call_seed` builds from config_text()."""
        return ReductionConfig(
            objective=self.objective,
            t=self.t,
            rounding=RoundingParams(
                alpha=Fraction(1), beta=Fraction(1), seed=derive_seed(call_seed, "round")
            ),
            solver=SolverSpec(
                kind=self.solver, seed=derive_seed(call_seed, "solver"), budget=self.budget
            ),
            epsilon=self.epsilon,
            lambda_ref=self.lambda_ref,
        )

    def config_text(self) -> str:
        """`key = value` defaults for `rollclust reduce --config`."""
        values = {
            "objective": self.objective.value,
            "t": self.t,
            "alpha": 1,
            "beta": 1,
            "epsilon": frac_to_str(self.epsilon),
            "lambda_ref": frac_to_str(self.lambda_ref),
            "solver": self.solver.value,
            "budget": self.budget,
            "trials": self.trials,
        }
        return "".join(f"{key} = {value}\n" for key, value in values.items())


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="trials-small",
            n=3,
            model=UniformRational(density=1.0),
            objective=ObjectiveKind.MAX_AGREE,
            t=1,
            solver=SolverKind.LOCAL_SEARCH,
            budget=1000,
            lambda_ref=Fraction(3, 2),
            epsilon=Fraction(1, 20),
            trials=4,
            pool=16,
            cli_runs=15,
            tail_pct=95.0,
        ),
        Workload(
            name="grid-local",
            n=4,
            model=PlantedPartition(clusters=2, flip_prob=0.1),
            objective=ObjectiveKind.MIN_DISAGREE,
            t=1,
            solver=SolverKind.LOCAL_SEARCH,
            budget=1000,
            lambda_ref=Fraction(1),
            epsilon=Fraction(1, 20),
            trials=1,
            pool=512,
            cli_runs=21,
            tail_pct=95.0,
        ),
        Workload(
            name="oracle-exact",
            n=12,
            model=UniformRational(density=1.0),
            objective=ObjectiveKind.MAX_AGREE,
            t=0,
            solver=SolverKind.TRIVIAL_MAX,
            budget=1000,
            lambda_ref=Fraction(1),
            epsilon=Fraction(1, 20),
            trials=1,
            pool=512,
            cli_runs=21,
            tail_pct=90.0,
        ),
    )
}
