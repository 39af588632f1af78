import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rollclust.cli import build_parser, main, parse_config_file
from rollclust.core import MAX_NODES, ObjectiveKind, parse_graph, quoted, read_graph
from rollclust.solvers import SolverKind, SolverSpec, budget_note, solve_exact, solve_local_search


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_graph(tmp_path, capsys, name="g.txt", *extra):
    path = tmp_path / name
    code, _, _ = run(
        capsys, "gen", "--n", "3", "--model", "uniform", "--density", "1.0",
        "--seed", "5", "--out", str(path), *extra,
    )
    assert code == 0
    return path


def test_gen_writes_parseable_deterministic_file(tmp_path, capsys):
    a = gen_graph(tmp_path, capsys, "a.txt")
    b = gen_graph(tmp_path, capsys, "b.txt")
    assert a.read_text() == b.read_text()
    g = read_graph(str(a))
    assert g.n == 3 and g.edge_count == 3
    code, _, _ = run(capsys, "gen", "--n", "3", "--model", "uniform",
                     "--density", "1.0", "--seed", "6", "--out", str(tmp_path / "c.txt"))
    assert code == 0
    assert (tmp_path / "c.txt").read_text() != a.read_text()


def test_gen_stdout_and_models(capsys):
    code, out, _ = run(capsys, "gen", "--n", "4", "--model", "complete", "--plus-prob", "1.0")
    assert code == 0
    g = parse_graph(out)
    assert g.edge_count == 6 and all(w == 1 for _, _, w in g.edges())
    code, out, _ = run(capsys, "gen", "--n", "4", "--model", "planted", "--k", "2")
    assert code == 0
    assert parse_graph(out).edge_count == 6


def test_gen_requires_n(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--model", "complete"])


@pytest.mark.parametrize("argv", [
    ["--n", "2000000", "--density", "0"], ["--n", "50000"], ["--n", "9" * 4300],
])
def test_gen_refuses_more_pair_draws_than_the_pair_limit(tmp_path, capsys, argv):
    # each would draw for every pair and run on for minutes or longer, and
    # n = 2,000,000 is a header that no graph reader accepts; a 4,300-digit
    # n, the longest int() reads, has more pairs than Python writes out
    out = tmp_path / "g.txt"
    start = time.perf_counter()
    code, stdout, err = run(capsys, "gen", *argv, "--out", str(out))
    assert time.perf_counter() - start < 1
    assert code == 2 and stdout == ""
    assert err == (f"error: n = {quoted(argv[1])} needs n(n-1)/2 pair draws,"
                   " above the 12000000-pair limit\n")
    assert len(err) <= 200
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--n", "9" * 5000], "--n"),
    (["gen", "--n", "3", "--seed", "x" + "9" * 5000], "--seed"),
    (["gen", "--n", "3", "--model", "planted", "--k", "9" * 5000], "--k"),
    (["gen", "--n", "3", "--denominator-bound", "9" * 5000], "--denominator-bound"),
    (["roll", "g.txt", "--t", "9" * 5000], "--t"),
    (["solve", "g.txt", "--budget", "x" + "9" * 5000], "--budget"),
    (["reduce", "g.txt", "--trials", "x" + "9" * 5000], "--trials"),
    (["reduce", "g.txt", "--t", "1.5" + "9" * 5000], "--t"),
])
def test_a_long_int_flag_value_is_shortened(tmp_path, capsys, monkeypatch, argv, flag):
    # int() refuses a number of more than 4300 digits as it refuses "x";
    # either way the one error line shows the token by its head, its tail
    # and its length, not in full
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("3 1\n0 1 1/2\n", encoding="utf-8")
    err = usage_error(capsys, *argv, "--out", "out.txt")
    errors = [line for line in err.splitlines() if "error: " in line]
    assert errors == [f"rollclust {argv[0]}: error: argument {flag}: "
                      f"invalid int value: {quoted(argv[argv.index(flag) + 1])}"], err
    assert all(len(line) <= 200 for line in err.splitlines())
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("flag", ["--flip-prob", "--density", "--plus-prob"])
def test_a_long_float_flag_value_is_shortened(tmp_path, capsys, flag):
    # argparse's own float type echoes a refused token in full
    token = "x" + "9" * 5000
    out = tmp_path / "g.txt"
    err = usage_error(capsys, "gen", "--n", "3", flag, token, "--out", str(out))
    errors = [line for line in err.splitlines() if "error: " in line]
    assert errors == [f"rollclust gen: error: argument {flag}: invalid float value: {quoted(token)}"]
    assert all(len(line) <= 200 for line in err.splitlines())
    # a config value is refused with the same cause, its value shown once
    cfg = tmp_path / "run.cfg"
    dest = flag[2:].replace("-", "_")
    for value in ("abc", token):
        cfg.write_text(f"n = 3\n{dest} = {value}\n", encoding="utf-8")
        err = usage_error(capsys, "gen", "--config", str(cfg), "--out", str(out))
        assert err == f"error: {cfg}: {dest} = {quoted(value)}: invalid float value\n"
    assert not out.exists()


def test_roll_writes_graph_and_sidecar(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    out = tmp_path / "rolled.txt"
    code, _, _ = run(capsys, "roll", str(base), "--t", "0", "--out", str(out))
    assert code == 0
    rolled = read_graph(str(out))
    assert rolled.n == 9  # 3 rows of 3 columns
    sidecar = json.loads((out.parent / (out.name + ".duplicates.json")).read_text())
    assert sidecar["n"] == 3 and sidecar["rows"] == 3
    assert len(sidecar["active"]) == 3  # rows^2 / n
    # t may come from a config file instead
    cfg = tmp_path / "roll.cfg"
    cfg.write_text("t = 0\n")
    code, _, _ = run(capsys, "roll", str(base), "--config", str(cfg), "--out", str(tmp_path / "r2.txt"))
    assert code == 0
    assert (tmp_path / "r2.txt").read_text() == out.read_text()


def test_roll_rejects_negative_t(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys, "g4.txt", "--n", "4")
    out = tmp_path / "r.txt"
    code, _, err = run(capsys, "roll", str(base), "--t", "-2", "--out", str(out))
    assert code == 2
    assert err == "error: t must be non-negative\n"
    assert list(tmp_path.iterdir()) == [base]


def test_roll_requires_t(tmp_path, capsys):
    # the roll's size follows from the base and t, so there is no --rows
    base = gen_graph(tmp_path, capsys)
    err = usage_error(capsys, "roll", str(base), "--out", str(tmp_path / "x.txt"))
    assert err == "error: roll: --t is required (flag or config file)\n"
    err = usage_error(capsys, "roll", str(base), "--rows", "3", "--out", str(tmp_path / "x.txt"))
    assert "unrecognized arguments: --rows 3" in err
    assert list(tmp_path.iterdir()) == [base]


def test_round_support_and_sidecar(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    out = tmp_path / "rounded.txt"
    code, _, _ = run(capsys, "round", str(base), "--alpha", "3/2", "--beta", "2",
                     "--seed", "11", "--out", str(out))
    assert code == 0
    g = read_graph(str(base))
    rounded = read_graph(str(out))
    for u, v, w in g.edges():
        after = rounded.weight(u, v)
        assert after in (Fraction(0), Fraction(2)) if w > 0 else after in (Fraction(0), Fraction(-3, 2))
    sidecar = json.loads((out.parent / (out.name + ".classes.json")).read_text())
    assert sidecar["alpha"] == "3/2" and sidecar["beta"] == "2"
    assert sum(c["count"] for c in sidecar["classes"]) == g.edge_count
    # same seed, same output
    out2 = tmp_path / "rounded2.txt"
    run(capsys, "round", str(base), "--alpha", "3/2", "--beta", "2",
        "--seed", "11", "--out", str(out2))
    assert out2.read_text() == out.read_text()


def test_solve_prints_labels_and_exact_value(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    report = tmp_path / "solve.json"
    code, out, _ = run(capsys, "solve", str(base), "--objective", "max",
                       "--out", str(report))
    assert code == 0
    label_line, value_line = out.strip().splitlines()
    g = read_graph(str(base))
    opt = solve_exact(g, ObjectiveKind.MAX_AGREE)
    assert Fraction(value_line) == opt.value
    assert len(label_line.split()) == g.n
    payload = json.loads(report.read_text())
    assert Fraction(payload["value"]) == opt.value
    assert payload["objective"] == "max" and payload["solver"] == "exact"


def test_solve_local_requires_nothing_extra(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    code, out, _ = run(capsys, "solve", str(base), "--solver", "local",
                       "--objective", "min", "--budget", "50")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_reduce_writes_its_json_report(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    report = tmp_path / "agg.json"
    code, out, _ = run(capsys, "reduce", str(base), "--t", "0", "--trials", "5",
                       "--out", str(report))
    assert code == 0
    assert "trials=5" in out and "bad_event_freq=" in out
    payload = json.loads(report.read_text())
    assert payload["trials"] == 5
    assert payload["config"]["alpha"] == "1"
    assert len(payload["per_trial"]) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["agg.json", "g.txt"]


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\nmodel = complete\nplus-prob = 1.0  # all positive\n")
    code, out, _ = run(capsys, "gen", "--config", str(cfg))
    assert code == 0
    g = parse_graph(out)
    assert g.n == 5 and all(w == 1 for _, _, w in g.edges())
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "gen", "--config", str(cfg), "--n", "4")
    assert code == 0
    assert parse_graph(out).n == 4


def test_config_parser_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    with pytest.raises(SystemExit):
        parse_config_file(str(cfg))


def test_missing_file_is_reported_as_error(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def usage_error(capsys, *argv):
    """Run argv expecting exit status 2; return the stderr text."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    return capsys.readouterr().err


def test_missing_config_file_is_reported_as_error(tmp_path, capsys):
    err = usage_error(capsys, "gen", "--n", "3", "--config", str(tmp_path / "nope.cfg"))
    assert err.startswith("error: cannot read config file:")


def test_config_file_that_is_not_utf8_is_reported_as_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n = 3\nmodel = \xff\n")
    err = usage_error(capsys, "gen", "--config", str(cfg))
    assert err.startswith("error: cannot read config file:")
    assert err.count("\n") == 1


def test_malformed_config_line_is_reported_as_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 3\nthis is not a key value line\n")
    err = usage_error(capsys, "gen", "--config", str(cfg))
    assert err == f"error: {cfg}:2: expected 'key = value'\n"


@pytest.mark.parametrize("line, key", [("model = bogus", "model"), ("objective = both", "objective")])
def test_config_values_must_be_valid_choices(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n = 3\n{line}\n")
    err = usage_error(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "g.txt"))
    assert err.startswith(f"error: {cfg}: {key} = ")
    assert not (tmp_path / "g.txt").exists()


def test_config_value_of_the_wrong_type_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\ntrials = x\n")
    err = usage_error(capsys, "reduce", "g.txt", "--config", str(cfg))
    assert err == f"error: {cfg}: trials = 'x': invalid int value\n"
    # a long value is shown by its head, its tail and its length
    cfg.write_text(f"trials = {'9' * 5000}\n")
    err = usage_error(capsys, "reduce", "g.txt", "--config", str(cfg))
    assert err == f"error: {cfg}: trials = {quoted('9' * 5000)}: invalid int value\n"
    # the same value as a flag reads as argparse words it
    err = usage_error(capsys, "reduce", "g.txt", "--trials", "x")
    assert err.endswith("rollclust reduce: error: argument --trials: invalid int value: 'x'\n")
    assert "usage:" in err and str(cfg) not in err
    # a value that converts runs as the same flag would
    cfg.write_text("n = 4\ndensity = 0.5\nseed = 2\n")
    from_file = run(capsys, "gen", "--config", str(cfg))
    assert from_file == run(capsys, "gen", "--n", "4", "--density", "0.5", "--seed", "2")
    assert from_file[0] == 0


@pytest.mark.parametrize("line", ["trails = 2", "sovler = local"])
def test_config_keys_that_match_no_flag_are_rejected(tmp_path, capsys, line):
    base = gen_graph(tmp_path, capsys)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"t = 0\n{line}\n")
    out = tmp_path / "agg.json"
    err = usage_error(capsys, "reduce", str(base), "--config", str(cfg), "--out", str(out))
    key = line.split()[0]
    assert err == f"error: {cfg}: unknown key {key!r}\n"
    assert not out.exists()


def test_config_key_named_after_a_flag_points_at_its_dest(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda = 3/2\n")
    err = usage_error(capsys, "reduce", str(base), "--config", str(cfg))
    assert err == f"error: {cfg}: unknown key 'lambda'; the key for --lambda is 'lambda_ref'\n"


def test_one_config_serves_several_subcommands(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    cfg = tmp_path / "run.cfg"
    # gen-only keys sit next to the reduce keys a benchmark config writes
    cfg.write_text(
        "n = 3\nmodel = uniform\nobjective = max\nt = 1\nalpha = 1\nbeta = 1\n"
        "epsilon = 1/20\nlambda_ref = 3/2\nsolver = local\nbudget = 50\ntrials = 2\n"
    )
    out = tmp_path / "agg.json"
    code, _, _ = run(capsys, "reduce", str(base), "--config", str(cfg), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 2
    assert payload["config"]["lambda"] == "3/2"
    assert payload["config"]["solver"] == "local"
    code, out_text, _ = run(capsys, "gen", "--config", str(cfg))
    assert code == 0 and parse_graph(out_text).n == 3


def test_directory_as_graph_is_reported_as_error(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_reduce_reports_accounting_failure_as_error(tmp_path, capsys, monkeypatch):
    import rollclust.reduction

    real = rollclust.reduction.run_solver

    def misreports(g, objective, spec):
        res = real(g, objective, spec)
        return replace(res, value=res.value + 1)

    base = gen_graph(tmp_path, capsys)
    monkeypatch.setattr(rollclust.reduction, "run_solver", misreports)
    code, _, err = run(capsys, "reduce", str(base), "--trials", "2",
                       "--out", str(tmp_path / "agg.json"))
    assert code == 1
    assert err.startswith("error: trial 0 (rounding seed ")
    assert not (tmp_path / "agg.json").exists()


def test_malformed_graph_is_reported_as_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0 1\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "error:" in err


def test_a_header_above_the_node_limit_fails_before_allocating_for_it(tmp_path, capsys):
    # 10^9 nodes declared in a 2-line file: the header is refused before
    # anything proportional to n is built
    big = tmp_path / "big.txt"
    big.write_text("1000000000 1\n0 1 1/2\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "solve", str(big), "--solver", "local")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == f"error: n = 1000000000 is above the {MAX_NODES}-node limit\n"
    assert peak < 10**6


@pytest.mark.parametrize("command", ["roll", "reduce"])
def test_a_roll_above_the_node_limit_fails_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                              command):
    # the t=10^6 roll of a 3-node base would hold 18,000,009 nodes, more
    # than a graph file may declare
    import rollclust.reduction

    def no_solving(*args, **kwargs):
        raise AssertionError("solved the base before sizing its roll")

    base = gen_graph(tmp_path, capsys)
    monkeypatch.setattr(rollclust.reduction, "solve_exact", no_solving)
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, command, str(base), "--t", "1000000", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: t=1000000 rolls 3 nodes into 18000009, above the {MAX_NODES}-node limit\n"
    assert list(tmp_path.iterdir()) == [base]


@pytest.mark.parametrize("command", ["roll", "reduce"])
@pytest.mark.parametrize("digits", [4000, 4300])
def test_a_long_t_is_shown_by_its_head_its_tail_and_its_length(tmp_path, capsys, command, digits):
    # the 3-node base's grid holds 18t+9 nodes: 18 * 10^d - 9, d + 2 digits,
    # more than Python writes in decimal once t has 4,300 digits
    base = gen_graph(tmp_path, capsys)
    t = "9" * digits
    code, stdout, err = run(capsys, command, str(base), "--t", t, "--out", str(tmp_path / "o.txt"))
    assert code == 2 and stdout == ""
    assert err == (f"error: t={quoted(t)} rolls 3 nodes into"
                   f" '17{'9' * 18}...{'9' * 19}1' ({digits + 2} characters),"
                   f" above the {MAX_NODES}-node limit\n")
    assert len(err) <= 200
    assert list(tmp_path.iterdir()) == [base]


@pytest.mark.parametrize("command", ["roll", "reduce"])
def test_a_roll_above_the_pair_limit_fails_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                              command):
    # the t=1000 roll of a 3-node, 3-edge base is an 18,009-node grid, under
    # the node limit, but 12,012,003 active copies and ~36M pairs
    import rollclust.reduction

    def no_solving(*args, **kwargs):
        raise AssertionError("solved the base before sizing its roll")

    base = gen_graph(tmp_path, capsys)
    assert read_graph(str(base)).edge_count == 3
    monkeypatch.setattr(rollclust.reduction, "solve_exact", no_solving)
    out = tmp_path / "out.txt"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, command, str(base), "--t", "1000", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and stdout == ""
    assert err == ("error: t=1000 rolls 3 nodes into 12012003 copies of 3 edges,"
                   " above the 12000000-pair limit\n")
    assert time.perf_counter() - start < 1
    assert peak < 10**6
    assert list(tmp_path.iterdir()) == [base]


EXPONENT = "decimal exponent above 4300 in absolute value"
DIGITS = "a number of more than 4300 digits"
NINES = "9" * 5000
# how a message shows a 5,000-digit token: its head, its tail and its length
SHORT_NINES = f"'{'9' * 20}...{'9' * 20}' (5000 characters)"
SHORT_1E_NINES = f"'1e{'9' * 18}...{'9' * 20}' (5002 characters)"


@pytest.mark.parametrize("argv, cause", [
    (["solve", "huge.txt", "--solver", "local"], f"bad weight '1e20000000': {EXPONENT}"),
    (["round", "g.txt", "--alpha", "1e-20000000", "--out", "r.txt"],
     f"argument --alpha: {EXPONENT}: '1e-20000000'"),
    (["round", "g.txt", "--config", "exponent.cfg", "--out", "r.txt"],
     f"exponent.cfg: alpha = '1e-20000000': {EXPONENT}"),
    (["solve", "nines.txt"], f"bad weight {SHORT_1E_NINES}: {DIGITS}"),
    (["reduce", "g.txt", "--beta", NINES, "--out", "r.txt"], f"argument --beta: {DIGITS}: {SHORT_NINES}"),
    (["reduce", "g.txt", "--config", "nines.cfg", "--out", "r.txt"],
     f"nines.cfg: lambda_ref = {SHORT_1E_NINES}: {DIGITS}"),
    (["round", "g.txt", "--config", "digits.cfg", "--out", "r.txt"],
     f"digits.cfg: beta = {SHORT_NINES}: {DIGITS}"),
])
def test_a_huge_decimal_exponent_fails_promptly(tmp_path, argv, cause):
    # Fraction would expand 1e20000000 into a 20-million-digit integer and
    # run on, and Python refuses to convert a number of more than 4300
    # digits with advice to raise its limit; the parser refuses both first,
    # naming the cause, from a flag, a config value or a graph weight. The
    # line shows the token once, a long one by its head, tail and length. A
    # separate process, so a regression times out instead of hanging the suite
    files = {"huge.txt": "3 1\n0 1 1e20000000\n", "nines.txt": f"3 1\n0 1 1e{NINES}\n",
             "g.txt": "3 1\n0 1 1/2\n", "exponent.cfg": "alpha = 1e-20000000\n",
             "nines.cfg": f"lambda_ref = 1e{NINES}\n", "digits.cfg": f"beta = {NINES}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "rollclust.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2 and done.stdout == ""
    errors = [line for line in done.stderr.splitlines() if "error: " in line]
    assert len(errors) == 1 and errors[0].endswith("error: " + cause), done.stderr
    assert len(errors[0]) <= 200
    assert "set_int_max_str_digits" not in done.stderr
    assert elapsed < 5, elapsed
    assert not (tmp_path / "r.txt").exists()


def test_reduce_prints_trial_notes_on_stderr(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    code, out, err = run(capsys, "reduce", str(base), "--t", "1", "--solver", "local",
                         "--budget", "1", "--trials", "2", "--out", str(tmp_path / "agg.json"))
    assert code == 0
    assert out.startswith("trials=2 ")
    assert err.splitlines() == [
        f"note: {budget_note(1)} (2 of 2 trials)",
        "note: deviation stats skipped: lambda_ref is 1 (2 of 2 trials)",
    ]


def test_trial_notes_are_counted_in_first_seen_order(tmp_path, capsys):
    # 3 of the 6 trials run out of moves, the first among them; every trial
    # skips the stats. First-seen order puts the rarer note first, ahead of
    # both the count order and the alphabetical one
    base = gen_graph(tmp_path, capsys, "g.txt", "--seed", "3")
    code, out, err = run(capsys, "reduce", str(base), "--t", "1", "--solver", "local",
                         "--budget", "6", "--trials", "6", "--seed", "7",
                         "--out", str(tmp_path / "agg.json"))
    assert code == 0
    assert out.startswith("trials=6 ")
    assert err.splitlines() == [
        f"note: {budget_note(6)} (3 of 6 trials)",
        "note: deviation stats skipped: lambda_ref is 1 (6 of 6 trials)",
    ]


def test_solve_notes_an_exhausted_budget(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    rolled = tmp_path / "rolled.txt"
    assert run(capsys, "roll", str(base), "--t", "1", "--out", str(rolled))[0] == 0
    code, out, err = run(capsys, "solve", str(rolled), "--solver", "local", "--budget", "1")
    assert code == 0 and len(out.splitlines()) == 2
    assert err == f"note: {budget_note(1)}\n"
    code, _, err = run(capsys, "solve", str(rolled), "--solver", "local")
    assert code == 0 and err == ""


@pytest.mark.parametrize("solver, objective", [("pivot", "min"), ("trivial", "min"), ("exact", "max")])
def test_reduce_rejects_solvers_that_cannot_run_before_solving(
    tmp_path, capsys, monkeypatch, solver, objective
):
    import rollclust.reduction

    def no_solving(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    base = gen_graph(tmp_path, capsys)
    monkeypatch.setattr(rollclust.reduction, "solve_exact", no_solving)
    # the exact solver cannot take the 27-node t=1 grid of a 3-node base
    code, out, err = run(capsys, "reduce", str(base), "--t", "1", "--solver", solver,
                         "--objective", objective, "--out", str(tmp_path / "agg.json"))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "agg.json").exists()


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--format=csv"), ("roll", "--format=csv"), ("round", "--format=csv"),
     ("solve", "--format=csv"), ("reduce", "--format=csv"), ("roll", "--seed=3")],
)
def test_flags_are_only_accepted_where_they_are_read(tmp_path, capsys, command, flag):
    base = gen_graph(tmp_path, capsys)
    argv = {"gen": ["--n", "3"], "roll": [str(base), "--t", "0"]}.get(command, [str(base)])
    usage_error(capsys, command, *argv, flag, "--out", str(tmp_path / "x.txt"))
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("command, work", [("roll", "build_roll"), ("round", "round_graph")])
def test_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch, command, work):
    import rollclust.cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} did its work before checking --out")

    base = gen_graph(tmp_path, capsys)
    monkeypatch.setattr(rollclust.cli, "read_graph", no_work)
    monkeypatch.setattr(rollclust.cli, work, no_work)
    extra = ["--t", "0"] if command == "roll" else []
    err = usage_error(capsys, command, str(base), *extra)
    assert err.startswith(f"error: {command}: --out is required")


def test_budget_defaults_agree_with_solver_spec():
    # the local-search budget has one default, whichever way a search starts
    parser, _ = build_parser()
    default = SolverSpec(SolverKind.LOCAL_SEARCH).budget
    for command in ("solve", "reduce"):
        assert parser.parse_args([command, "g.txt"]).budget == default
    assert inspect.signature(solve_local_search).parameters["budget"].default == default
