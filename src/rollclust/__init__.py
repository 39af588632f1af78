"""Correlation clustering on signed rational-weight graphs.

Rolls a base graph into a grid of edge-disjoint isomorphic copies, rounds
the weights to {-alpha, 0, beta} with exact per-edge expectations, solves
the rounded graph, and reads candidate clusterings of the base graph back
out of the copies, with exact accounting at every step.

The top level exports the run_trials pipeline and the few names needed to
set it up and write its inputs and reports; everything else is imported
from the module that defines it (rollclust.core, rollclust.roll, ...).
"""

from .core import ObjectiveKind, SignedGraph, write_graph
from .harness import GenSpec, PlantedPartition, UniformRational, generate
from .reduction import ReductionConfig, aggregate_to_dict, run_trials
from .rounding import RoundingParams
from .solvers import SolverKind, SolverSpec, solve_exact_reference

__version__ = "0.1.0"

__all__ = [
    "GenSpec",
    "ObjectiveKind",
    "PlantedPartition",
    "ReductionConfig",
    "RoundingParams",
    "SignedGraph",
    "SolverKind",
    "SolverSpec",
    "UniformRational",
    "aggregate_to_dict",
    "generate",
    "run_trials",
    "solve_exact_reference",
    "write_graph",
]
