"""Spans around the calls rollclust's modules make into one another.

The traced run swaps the names that rollclust.reduction, rollclust.rounding,
rollclust.solvers and rollclust.cli call through (rollclust.reduction.
build_roll, rollclust.rounding.make_rng, ...) for wrappers that record one
span per call: name, start, end, parent span and the (call, trial) id.
Nothing under src/ changes. Spans stay in memory until the run writes them
out. restore() puts every original back, and check_originals() proves it
before an untraced phase runs.

Span names are "<layer>.<function>", the layer being the rollclust module
that defines the function (aggregate_to_dict is filed under jsonutil, the
report-encoding layer). A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter_ns

# (module whose global is patched, attribute, span name)
PATCHES = (
    ("rollclust.reduction", "reduce_and_solve", "reduction.reduce_and_solve"),
    ("rollclust.reduction", "build_roll", "roll.build_roll"),
    ("rollclust.reduction", "induced_clustering", "roll.induced_clustering"),
    ("rollclust.reduction", "round_graph", "rounding.round_graph"),
    ("rollclust.reduction", "deviation_stats", "rounding.deviation_stats"),
    ("rollclust.reduction", "run_solver", "solvers.run_solver"),
    ("rollclust.reduction", "solve_exact", "solvers.solve_exact"),
    ("rollclust.reduction", "clustering_value", "core.clustering_value"),
    ("rollclust.reduction", "contributing_edges", "core.contributing_edges"),
    ("rollclust.rounding", "make_rng", "streams.make_rng"),
    ("rollclust.rounding", "contributing_edges", "core.contributing_edges"),
    ("rollclust.solvers", "clustering_value", "core.clustering_value"),
    ("rollclust.solvers", "make_rng", "streams.make_rng"),
    ("rollclust.cli", "read_graph", "cli.read_graph"),
    ("rollclust.cli", "run_trials", "reduction.run_trials"),
    ("rollclust.cli", "aggregate_to_dict", "jsonutil.aggregate_to_dict"),
)

TRIAL_SPAN = "reduction.reduce_and_solve"
ROOT_SPAN = "reduction.run_trials"

# span fields, stored as lists for speed
NAME, START, END, PARENT, CALL, TRIAL = range(6)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _observe_roll(counts, args, result):
    _add(counts, "roll.grid_nodes", result.graph.n)
    _add(counts, "roll.grid_edges", result.graph.edge_count)
    _add(counts, "roll.bone_index_entries", len(getattr(result, "bone_index", None) or ()))


def _observe_rounding(counts, args, result):
    _add(counts, "rounding.edges_in", args[0].edge_count)
    _add(counts, "rounding.edges_kept", result.after.edge_count)


OBSERVERS = {"roll.build_roll": _observe_roll, "rounding.round_graph": _observe_rounding}


class Tracer:
    def __init__(self):
        self.spans: "list[list]" = []
        self.counts: "dict[str, int]" = {}
        self._stack: "list[int]" = []
        self._call = -1
        self._trial = -1
        self._installed: "list[tuple[object, str, object]]" = []

    def begin_call(self, call: int) -> None:
        """Spans until the next begin_call carry this call id; trial -1
        marks work before the first trial (the OPT oracle)."""
        self._call = call
        self._trial = -1

    def wrap(self, name: str, fn, root: bool = False):
        """fn, recording a span per call. Only a root wrapper records
        outside any span, so calls made between the benchmark's root calls
        (its own output checks) go unrecorded and uncounted."""
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        counts = self.counts
        starts_trial = name == TRIAL_SPAN

        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            if starts_trial:
                self._trial += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, self._call, self._trial]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            _add(counts, name, 1)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self) -> "list[str]":
        """Patch every name in PATCHES that its module still has; returns
        the ones it skipped."""
        missing = []
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        return missing

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, fh, part: str) -> None:
        """One JSON array per span: part, then the span fields."""
        for rec in self.spans:
            fh.write(json.dumps([part] + rec, separators=(",", ":")))
            fh.write("\n")


def snapshot_originals() -> dict:
    """The function object behind every patchable name, taken while untraced."""
    out = {}
    for module_name, attr, _ in PATCHES:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out[(module_name, attr)] = getattr(module, attr)
    return out


def check_originals(originals: dict) -> None:
    """Raise unless every patchable name is its original function again."""
    for (module_name, attr), original in originals.items():
        current = getattr(importlib.import_module(module_name), attr)
        if current is not original:
            raise RuntimeError(f"{module_name}.{attr} is still patched")


def self_times(spans) -> "list[int]":
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: "dict[int, list[tuple[int, int]]]" = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def pipeline_metrics(tracer: Tracer, calls: int, trials: int) -> "dict[str, float]":
    """Per-layer numbers from a tracer whose root spans are the benchmark's
    run_trials calls. Times are per trial unless the name says otherwise;
    the layers' self times add up to the run_trials spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: "dict[str, int]" = {}
    module_self: "dict[str, int]" = {}
    root_ns = 0
    for idx, rec in enumerate(spans):
        name = rec[NAME]
        total[name] = total.get(name, 0) + rec[END] - rec[START]
        layer = name.split(".", 1)[0]
        module_self[layer] = module_self.get(layer, 0) + selfs[idx]
        if rec[PARENT] < 0:
            root_ns += rec[END] - rec[START]
    c = tracer.counts

    def ms(name):
        return total.get(name, 0) / 1e6 / trials

    edges_in = c.get("rounding.edges_in", 0)
    grid_edges = c.get("roll.grid_edges", 0)
    bone_entries = c.get("roll.bone_index_entries", 0)
    builds = max(c.get("roll.build_roll", 0), 1)
    out = {
        "reduction.run_trials.ms_per_trial": ms(ROOT_SPAN),
        "reduction.reduce_and_solve.ms_per_trial": ms("reduction.reduce_and_solve"),
        "reduction.candidates_per_trial": c.get("roll.induced_clustering", 0) / trials,
        "roll.build_roll.ms_per_trial": ms("roll.build_roll"),
        "roll.induced_clustering.ms_per_trial": ms("roll.induced_clustering"),
        "roll.grid_nodes": c.get("roll.grid_nodes", 0) / builds,
        "roll.grid_edges": grid_edges / builds,
        "roll.bone_index_entries": bone_entries / builds,
        # with no bone index left to build, every bone built is used
        "roll.bones_used_frac": grid_edges / bone_entries if bone_entries else 1.0,
        "rounding.round_graph.ms_per_trial": ms("rounding.round_graph"),
        "rounding.us_per_edge": total.get("rounding.round_graph", 0) / 1e3 / max(edges_in, 1),
        "rounding.edges_in_per_trial": edges_in / trials,
        "rounding.kept_frac": c.get("rounding.edges_kept", 0) / max(edges_in, 1),
        "rounding.deviation_stats.ms_per_trial": ms("rounding.deviation_stats"),
        "streams.make_rng.calls_per_trial": c.get("streams.make_rng", 0) / trials,
        "streams.make_rng.ms_per_trial": ms("streams.make_rng"),
        "solvers.run_solver.ms_per_trial": ms("solvers.run_solver"),
        "solvers.solve_exact.ms_per_call": total.get("solvers.solve_exact", 0) / 1e6 / calls,
        "core.clustering_value.calls_per_trial": c.get("core.clustering_value", 0) / trials,
        "core.clustering_value.ms_per_trial": ms("core.clustering_value"),
        "core.contributing_edges.ms_per_trial": ms("core.contributing_edges"),
    }
    for layer in ("reduction", "roll", "rounding", "streams", "solvers", "core"):
        out[f"{layer}.self_ms_per_trial"] = module_self.get(layer, 0) / 1e6 / trials
    out["trace.accounted_frac"] = sum(module_self.values()) / root_ns if root_ns else 0.0
    return out


def cli_metrics(tracer: Tracer) -> "dict[str, float]":
    """Medians over the traced in-process `rollclust reduce` runs (root
    span cli.main) of main's time, its self time, and two of its children."""
    spans = tracer.spans
    selfs = self_times(spans)
    per_main: "dict[int, dict[str, float]]" = {}
    for idx, rec in enumerate(spans):
        if rec[NAME] == "cli.main" and rec[PARENT] < 0:
            per_main[idx] = {
                "cli.main.ms": (rec[END] - rec[START]) / 1e6,
                "cli.self_ms": selfs[idx] / 1e6,
                "cli.read_graph.ms": 0.0,
                "jsonutil.aggregate_to_dict.ms": 0.0,
            }
    for rec in spans:
        parent = per_main.get(rec[PARENT])
        if parent is not None and rec[NAME] in ("cli.read_graph", "jsonutil.aggregate_to_dict"):
            parent[rec[NAME] + ".ms"] += (rec[END] - rec[START]) / 1e6
    keys = ("cli.main.ms", "cli.read_graph.ms", "cli.self_ms", "jsonutil.aggregate_to_dict.ms")
    return {k: statistics.median(m[k] for m in per_main.values()) for k in keys}


def generate_ms_per_graph(tracer: Tracer) -> float:
    times = [rec[END] - rec[START] for rec in tracer.spans if rec[NAME] == "harness.generate"]
    return sum(times) / 1e6 / len(times)
