import inspect
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from rollclust.cli import build_parser, main, parse_config_file
from rollclust.core import ObjectiveKind, parse_graph, read_graph
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


def test_reduce_writes_report_and_histogram(tmp_path, capsys):
    base = gen_graph(tmp_path, capsys)
    report = tmp_path / "agg.json"
    code, out, _ = run(capsys, "reduce", str(base), "--t", "0", "--trials", "5",
                       "--out", str(report), "--format", "csv")
    assert code == 0
    assert "trials=5" in out and "bad_event_freq=" in out
    payload = json.loads(report.read_text())
    assert payload["trials"] == 5
    assert payload["config"]["alpha"] == "1"
    assert len(payload["per_trial"]) == 5
    hist = (report.parent / (report.name + ".csv")).read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert sum(int(row.split(",")[2]) for row in hist[1:]) == 5


def test_reduce_histogram_takes_ratios_beyond_float_range(tmp_path, capsys):
    # one trial's ratio is 5*10^399, past the largest float
    base = tmp_path / "g.txt"
    base.write_text(f"3 3\n0 1 1/{10**400}\n1 2 1/2\n0 2 -1/2\n")
    report = tmp_path / "agg.json"
    code, _, _ = run(capsys, "reduce", str(base), "--objective", "min", "--solver", "exact",
                     "--trials", "20", "--format", "csv", "--out", str(report))
    assert code == 0
    ratios = [r for r in json.loads(report.read_text())["ratios"] if r is not None]
    assert str(5 * 10**399) in ratios
    hist = (tmp_path / "agg.json.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert sum(int(row.split(",")[2]) for row in hist[1:]) == len(ratios)
    # the edges are exact: the first bin opens at 1, the last closes at the maximum
    assert hist[1].split(",")[0] == "1.000000"
    assert hist[-1].split(",")[1] == f"{5 * 10**399}.000000"


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


@pytest.mark.parametrize("line, key", [("model = bogus", "model"), ("format = xml", "format")])
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
    assert err == f"error: {cfg}: trials = 'x': argument --trials: invalid int value: 'x'\n"
    # the same value as a flag keeps argparse's own message
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
     ("solve", "--format=csv"), ("roll", "--seed=3")],
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
