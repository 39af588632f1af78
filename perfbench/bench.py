"""One benchmark run: set-up, a timed closed loop of run_trials calls,
`rollclust reduce` children, output checks and, with --trace 1, a traced
phase whose spans give the per-layer numbers.

Load is one single-threaded caller: each run_trials call starts after the
previous one returns, and CLI children run one at a time. End-to-end
numbers come only from untraced phases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import rollclust.cli
from rollclust import (
    ObjectiveKind,
    aggregate_to_dict,
    generate,
    run_trials,
    solve_exact_reference,
    write_graph,
)

import tracing
from workloads import Workload

SETUP_REPS = 5
SEGMENTS = 5  # parts of the timed loop; CLI children and set-up repeats run between them
MIN_CALLS = 24  # a timed phase never stops before this many calls
KEEP_CALLS = 24  # reports kept for the digest and for CLI replays; >= every cli_runs
DIGEST_CALLS = 8
TRACE_CLI_RUNS = 3
CHILD_TIMEOUT_S = 120
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
REFERENCE_NODE_LIMIT = 10  # solve_exact_reference's size limit

# --- statistics -----------------------------------------------------------


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(len(sorted_values) * p / 100))
    return sorted_values[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(n * p / 100))


def tail_percentile(n: int, cap: float) -> "float | None":
    """The highest ladder percentile, at most cap, with at least ten samples
    beyond it; None when even the median has fewer."""
    for p in reversed(TAIL_LADDER):
        if p <= cap and beyond(n, p) >= 10:
            return p
    return None


# --- output checks --------------------------------------------------------


def canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode("utf-8")


class Checker:
    """Checks one run_trials result; reference optima are cached per base."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self._reference: "dict[int, object]" = {}

    def problems(self, base_index: int, g, agg) -> "list[str]":
        out = []
        if agg.trials != self.wl.trials or len(agg.per_trial) != self.wl.trials:
            out.append(f"expected {self.wl.trials} trials, got {agg.trials}")
        maximize = self.wl.objective is ObjectiveKind.MAX_AGREE
        for i, s in enumerate(agg.per_trial):
            if (s.best_value > agg.opt_value) if maximize else (s.best_value < agg.opt_value):
                out.append(f"trial {i}: best {s.best_value} beats OPT {agg.opt_value}")
        if g.n <= REFERENCE_NODE_LIMIT:
            ref = self._reference.get(base_index)
            if ref is None:
                ref = solve_exact_reference(g, self.wl.objective).value
                self._reference[base_index] = ref
            if agg.opt_value != ref:
                out.append(f"OPT {agg.opt_value} != reference {ref}")
        return out


# --- the closed loop ------------------------------------------------------


@dataclass
class Phase:
    latencies_ns: "list[int]" = field(default_factory=list)
    calls: int = 0
    trials: int = 0
    busy_ns: int = 0
    reports: "list[dict | None]" = field(default_factory=list)  # calls 0..KEEP_CALLS-1
    failures: "list[str]" = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def trials_per_s(self) -> float:
        return self.trials / (self.busy_ns / 1e9)

    def digest(self) -> str:
        h = hashlib.sha256()
        for report in self.reports[:DIGEST_CALLS]:
            h.update(canonical(report))
        return h.hexdigest()


def timed_phase(wl: Workload, seed: int, bases, seconds: float, checker: Checker,
                run=run_trials, before_call=None, phase: "Phase | None" = None) -> Phase:
    """Call run(base, config, trials) back to back for `seconds` (and until
    the phase holds at least MIN_CALLS calls), continuing `phase` when one
    is given. Only the call itself is timed; its checks run between calls."""
    phase = Phase() if phase is None else phase
    deadline = perf_counter() + seconds
    while phase.calls < MIN_CALLS or perf_counter() < deadline:
        i = phase.calls
        g = bases[i % len(bases)]
        cfg = wl.config(wl.call_seed(seed, i))
        if before_call is not None:
            before_call(i)
        t0 = perf_counter_ns()
        try:
            agg = run(g, cfg, wl.trials)
        except Exception as exc:  # any raise, the accounting RuntimeError too, is a failed call
            phase.busy_ns += perf_counter_ns() - t0
            phase.calls += 1
            phase.failures.append(f"call {i}: {exc!r}")
            if i < KEEP_CALLS:
                phase.reports.append(None)
            continue
        dt = perf_counter_ns() - t0
        phase.busy_ns += dt
        phase.calls += 1
        problems = checker.problems(i % len(bases), g, agg)
        if problems:
            phase.failures.append(f"call {i}: {'; '.join(problems)}")
        else:
            phase.latencies_ns.append(dt)
            phase.trials += agg.trials
        if i < KEEP_CALLS:
            phase.reports.append(aggregate_to_dict(agg))
    return phase


# --- set-up ---------------------------------------------------------------


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def import_seconds(src: Path) -> float:
    """`import rollclust.cli` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import rollclust.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(src), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip())


@dataclass
class Inputs:
    bases: list
    graph_files: "list[Path]"
    config_file: Path


def set_up(wl: Workload, seed: int, work: Path, src: Path) -> "tuple[Inputs, float]":
    """Import in a fresh interpreter, generate the bases, write the CLI's
    graph and config files, and make one warm-up call; returns the inputs
    and the seconds all of that took."""
    imported = import_seconds(src)
    t0 = perf_counter()
    bases = wl.bases(seed)
    files = []
    for k in range(wl.cli_runs):
        path = work / f"base-{k}.txt"
        write_graph(bases[k], path)
        files.append(path)
    config_file = work / "reduce.conf"
    config_file.write_text(wl.config_text(), encoding="utf-8")
    run_trials(wl.warmup_base(), wl.config(wl.call_seed(seed, -1)), wl.trials)
    return Inputs(bases, files, config_file), imported + perf_counter() - t0


# --- CLI ------------------------------------------------------------------


def reduce_argv(wl: Workload, seed: int, inputs: Inputs, k: int, out: Path) -> "list[str]":
    return ["reduce", str(inputs.graph_files[k]), "--config", str(inputs.config_file),
            "--seed", str(wl.call_seed(seed, k)), "--out", str(out)]


def cli_phase(wl: Workload, seed: int, inputs: Inputs, expected: "list[dict]", work: Path,
              src: Path, ks) -> "tuple[list[float], list[str], list[dict]]":
    """Run `rollclust reduce` children k in ks one at a time; child k
    replays call k, so its report must equal that call's."""
    times, failures, reports = [], [], []
    for k in ks:
        out = work / f"cli-{k}.json"
        if out.exists():
            out.unlink()
        argv = [sys.executable, "-m", "rollclust.cli"] + reduce_argv(wl, seed, inputs, k, out)
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, env=child_env(src), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            times.append(perf_counter() - t0)
            failures.append(f"cli {k}: no exit within {CHILD_TIMEOUT_S} s")
            continue
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            failures.append(f"cli {k}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"cli {k}: unreadable report: {exc!r}")
            continue
        reports.append(report)
        if report != expected[k]:
            failures.append(f"cli {k}: report differs from in-process call {k}")
    return times, failures, reports


def traced_cli(wl: Workload, seed: int, inputs: Inputs, expected: "list[dict]",
               work: Path) -> "tuple[tracing.Tracer, list[str]]":
    """In-process rollclust.cli.main runs under spans, replaying calls 0.."""
    tracer = tracing.Tracer()
    main = tracer.wrap("cli.main", rollclust.cli.main, root=True)
    tracer.install()
    failures = []
    try:
        for k in range(TRACE_CLI_RUNS):
            out = work / f"cli-traced-{k}.json"
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(reduce_argv(wl, seed, inputs, k, out))
            except Exception as exc:  # a crash is this run's failure, not the benchmark's
                failures.append(f"traced cli {k}: {exc!r}")
                continue
            if code != 0:
                failures.append(f"traced cli {k}: exit {code}")
            elif json.loads(out.read_text(encoding="utf-8")) != expected[k]:
                failures.append(f"traced cli {k}: report differs from call {k}")
    finally:
        tracer.restore()
    return tracer, failures


# --- provenance -----------------------------------------------------------


def commit_of(root: Path) -> str:
    """HEAD's commit when root is a git checkout, else "unknown"."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def tree_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# --- one run --------------------------------------------------------------


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = root / "src"
    work = root / "perfbench" / "out" / wl.name
    work.mkdir(parents=True, exist_ok=True)
    originals = tracing.snapshot_originals()
    checker = Checker(wl)
    failures: "list[str]" = []
    attempted = 0

    inputs, took = set_up(wl, seed, work, src)
    setup_times = [took]

    def set_up_again():
        again, took = set_up(wl, seed, work, src)
        setup_times.append(took)
        if again.bases != inputs.bases:
            failures.append("set-up gave different bases")

    # The timed loop runs in SEGMENTS parts with CLI children and set-up
    # repeats between them, so that every end-to-end metric samples the
    # machine over the whole run rather than over a few seconds of it.
    tracing.check_originals(originals)
    plain_seconds = seconds / 2 if trace else seconds
    plain = Phase()
    cli_times, cli_reports = [], []
    for segment in range(SEGMENTS):
        timed_phase(wl, seed, inputs.bases, plain_seconds / SEGMENTS, checker, phase=plain)
        if not trace:
            times, cli_failures, reports = cli_phase(
                wl, seed, inputs, plain.reports, work, src,
                range(segment, wl.cli_runs, SEGMENTS))
            cli_times += times
            cli_reports += reports
            failures += cli_failures
        if len(setup_times) < SETUP_REPS:
            set_up_again()
    attempted += plain.calls + len(cli_times)
    failures += plain.failures
    meta = {
        "python": platform.python_version(),
        "commit": commit_of(root),
        "src_sha256": tree_sha256(src),
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls": plain.calls,
        "trials": plain.trials,
        "latency_samples": len(plain.latencies_ns),
        "setup_reps": SETUP_REPS,
        "digest": plain.digest(),
    }

    metrics: "dict[str, float]" = {}
    if not trace:
        h = hashlib.sha256(plain.digest().encode("ascii"))
        for report in cli_reports:
            h.update(canonical(report))
        meta["digest"] = h.hexdigest()
        lat = sorted(ns / 1e6 for ns in plain.latencies_ns)
        tail_p = tail_percentile(len(lat), wl.tail_pct)
        if tail_p is None:  # only when many calls failed, which already makes the run incorrect
            failures.append(f"only {len(lat)} latency samples; no percentile has 10 beyond it")
            tail_p = 50.0
            lat = lat or [0.0]
        meta.update(tail_percentile=tail_p, tail_samples_beyond=beyond(len(lat), tail_p),
                    cli_runs=len(cli_times))
        metrics = {
            "trials_per_s": plain.trials_per_s,
            "call_ms_p50": percentile(lat, 50.0),
            "call_ms_tail": percentile(lat, tail_p),
            "cli_reduce_s": statistics.median(cli_times),
        }
    else:
        metrics, traced_failures, traced_attempted = traced_run(
            wl, seed, seconds / 2, inputs, plain, checker, work, meta)
        failures += traced_failures
        attempted += traced_attempted
        tracing.check_originals(originals)

    # Same code, same seed: call 0 again must give the same report.
    attempted += 1
    try:
        again = aggregate_to_dict(
            run_trials(inputs.bases[0], wl.config(wl.call_seed(seed, 0)), wl.trials))
    except Exception as exc:  # counted like any failed call
        failures.append(f"call 0 repeated: {exc!r}")
    else:
        if again != plain.reports[0]:
            failures.append("call 0 repeated gave a different report")

    if not trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb()

    meta["attempted"] = attempted
    meta["failed"] = len(failures)
    meta["failed_frac"] = len(failures) / attempted
    meta["failures"] = failures[:20]
    return {"meta": meta, "metrics": metrics, "failures": failures, "attempted": attempted}


def traced_run(wl: Workload, seed: int, seconds: float, inputs: Inputs, plain: Phase,
               checker: Checker, work: Path, meta: dict):
    """Generation, a timed phase and CLI runs under spans; returns the
    per-layer metrics, failures and attempts, and writes the spans out."""
    failures: "list[str]" = []

    gen_tracer = tracing.Tracer()
    traced_generate = gen_tracer.wrap("harness.generate", generate, root=True)
    if wl.bases(seed, gen=traced_generate) != inputs.bases:
        failures.append("regenerated bases differ")

    tracer = tracing.Tracer()
    root_run = tracer.wrap(tracing.ROOT_SPAN, run_trials, root=True)
    missing = tracer.install()
    try:
        traced = timed_phase(wl, seed, inputs.bases, seconds, checker, run=root_run,
                             before_call=tracer.begin_call)
    finally:
        tracer.restore()
    failures += traced.failures
    if traced.digest() != plain.digest():
        failures.append("traced reports differ from untraced ones")
    # a name a later version stops calling through simply drops out of the trace
    meta["untraced_names"] = missing

    cli_tracer, cli_failures = traced_cli(wl, seed, inputs, plain.reports, work)
    failures += cli_failures

    metrics = tracing.pipeline_metrics(tracer, traced.calls, max(traced.trials, 1))
    if abs(metrics["trace.accounted_frac"] - 1.0) > 1e-9:
        failures.append(f"self times cover {metrics['trace.accounted_frac']} of run_trials")
    metrics.update(tracing.cli_metrics(cli_tracer))
    metrics["harness.generate.ms_per_graph"] = tracing.generate_ms_per_graph(gen_tracer)
    # with no traced trial completed the run is already incorrect; report no overhead
    metrics["trace.overhead_frac"] = (
        plain.trials_per_s / traced.trials_per_s - 1.0 if traced.trials else 0.0)

    spans = work / f"spans-seed{seed}.jsonl"
    with open(spans, "w", encoding="utf-8") as fh:
        for part, t in (("generate", gen_tracer), ("pipeline", tracer), ("cli", cli_tracer)):
            t.write(fh, part)
    meta["spans_file"] = str(spans.relative_to(work.parents[2]))
    return metrics, failures, traced.calls + TRACE_CLI_RUNS
