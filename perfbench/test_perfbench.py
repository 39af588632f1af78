"""Tests of the benchmark's own machinery: statistics, inputs, failure
counting, span accounting and the restoring of patched names."""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import rollclust.reduction  # noqa: E402
from rollclust import run_trials  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = replace(WORKLOADS["trials-small"], trials=1, pool=4)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert bench.percentile(values, 50) == 50
    assert bench.percentile(values, 90) == 90
    assert bench.percentile(values, 99.9) == 100
    assert bench.percentile([7], 50) == 7


@pytest.mark.parametrize(
    "n, cap, expected",
    [
        (19, 99.9, None),  # the median has only 9 samples beyond it
        (20, 99.9, 50.0),
        (39, 99.9, 50.0),
        (40, 99.9, 75.0),
        (100, 99.9, 90.0),
        (199, 99.9, 90.0),
        (200, 99.9, 95.0),
        (1000, 99.9, 99.0),
        (10000, 99.9, 99.9),
        (10000, 75.0, 75.0),  # the workload's cap wins when samples are plenty
        (30, 90.0, 50.0),  # too few samples lower the cap
    ],
)
def test_tail_percentile_needs_ten_beyond(n, cap, expected):
    p = bench.tail_percentile(n, cap)
    assert p == expected
    if p is not None:
        assert bench.beyond(n, p) >= 10
        higher = [q for q in bench.TAIL_LADDER if p < q <= cap]
        assert all(bench.beyond(n, q) < 10 for q in higher)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert WORKLOADS[name].cli_runs <= bench.KEEP_CALLS <= bench.MIN_CALLS
    wl = replace(WORKLOADS[name], pool=3)
    assert wl.bases(5) == wl.bases(5)
    assert wl.bases(5) != wl.bases(6)
    assert wl.config(wl.call_seed(5, 0)) == wl.config(wl.call_seed(5, 0))
    assert wl.config(wl.call_seed(5, 0)) != wl.config(wl.call_seed(6, 0))
    assert wl.config(wl.call_seed(5, 0)) != wl.config(wl.call_seed(5, 1))
    assert wl.warmup_base() == replace(wl, pool=1).warmup_base()


def test_failed_calls_are_counted():
    """A raise and a wrong output each fail their call; the rest pass."""

    def flaky(g, cfg, trials):
        agg = run_trials(g, cfg, trials)
        if flaky.calls == 3:
            flaky.calls += 1
            raise RuntimeError("candidate values do not sum to the pre-rounding rolled value")
        if flaky.calls == 7:
            bad = tuple(replace(s, best_value=agg.opt_value + 1) for s in agg.per_trial)
            agg = replace(agg, per_trial=bad)
        flaky.calls += 1
        return agg

    flaky.calls = 0
    phase = bench.timed_phase(SMALL, 1, SMALL.bases(1), 0.0, bench.Checker(SMALL), run=flaky)
    assert phase.calls == bench.MIN_CALLS
    assert phase.failed == 2
    assert phase.failed / phase.calls == 2 / bench.MIN_CALLS
    assert phase.failures[0].startswith("call 3: RuntimeError")
    assert phase.failures[1].startswith("call 7: trial 0: best")
    assert len(phase.latencies_ns) == bench.MIN_CALLS - 2
    assert phase.trials == bench.MIN_CALLS - 2
    assert phase.reports[3] is None


def test_digest_repeats_for_a_seed():
    one = bench.timed_phase(SMALL, 1, SMALL.bases(1), 0.0, bench.Checker(SMALL))
    two = bench.timed_phase(SMALL, 1, SMALL.bases(1), 0.0, bench.Checker(SMALL))
    other = bench.timed_phase(SMALL, 2, SMALL.bases(2), 0.0, bench.Checker(SMALL))
    assert one.failed == two.failed == other.failed == 0
    assert one.digest() == two.digest()
    assert one.digest() != other.digest()


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, -1]


def test_self_times_and_children_add_up_to_the_parent():
    spans = [
        _span("reduction.run_trials", 0, 100, -1),
        _span("solvers.solve_exact", 10, 30, 0),
        _span("reduction.reduce_and_solve", 40, 90, 0),
        _span("roll.build_roll", 45, 50, 2),
        _span("rounding.round_graph", 60, 80, 2),
        _span("streams.make_rng", 62, 64, 4),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [30, 20, 25, 5, 18, 2]
    for idx, rec in enumerate(spans):
        children = [c for c in spans if c[tracing.PARENT] == idx]
        covered = sum(c[tracing.END] - c[tracing.START] for c in children)
        assert selfs[idx] + covered == rec[tracing.END] - rec[tracing.START]
    assert sum(selfs) == 100


def test_traced_run_accounts_and_restores():
    originals = tracing.snapshot_originals()
    tracer = tracing.Tracer()
    run = tracer.wrap(tracing.ROOT_SPAN, run_trials, root=True)
    assert tracer.install() == []
    try:
        with pytest.raises(RuntimeError, match="still patched"):
            tracing.check_originals(originals)
        phase = bench.timed_phase(SMALL, 1, SMALL.bases(1), 0.0, bench.Checker(SMALL), run=run,
                                  before_call=tracer.begin_call)
    finally:
        tracer.restore()
    tracing.check_originals(originals)
    assert rollclust.reduction.build_roll is originals[("rollclust.reduction", "build_roll")]

    assert phase.failed == 0
    metrics = tracing.pipeline_metrics(tracer, phase.calls, phase.trials)
    assert metrics["trace.accounted_frac"] == 1.0
    layers = ("reduction", "roll", "rounding", "streams", "solvers", "core")
    total = sum(metrics[f"{layer}.self_ms_per_trial"] for layer in layers)
    assert total == pytest.approx(metrics["reduction.run_trials.ms_per_trial"])
    assert metrics["reduction.candidates_per_trial"] == 27  # active duplicates at n=3, t=1
    assert metrics["roll.grid_edges"] == 81
    roots = [rec for rec in tracer.spans if rec[tracing.PARENT] < 0]
    assert len(roots) == phase.calls  # the reference checks between calls are not recorded
    assert {rec[tracing.NAME] for rec in roots} == {tracing.ROOT_SPAN}
    trial_ids = {rec[tracing.TRIAL] for rec in tracer.spans}
    assert trial_ids == {-1, 0}  # the OPT oracle, then the one trial per call
    untraced = bench.timed_phase(SMALL, 1, SMALL.bases(1), 0.0, bench.Checker(SMALL))
    assert untraced.digest() == phase.digest()


def test_refuses_a_directory_without_sources(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trials-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
