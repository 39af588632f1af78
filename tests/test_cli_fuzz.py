"""Seeded CLI fuzzer: bad input fails with one `error:` line, never a traceback.

Each case runs one of the five subcommands in-process through cli.main on a
small input drawn from a fixed seed: a graph file (n <= 8) that may be
mutated line by line, flag values that may not convert or may lie outside
their range, and options routed to a `--config` file that may itself be
mutated. Every case must return 0, or exit 2 with exactly one `error:`
line on stderr; exit 1 (a failed accounting identity) and any escaping
exception fail the test, which names the case. Rolls stay small (t <= 2,
at most ROLL_NODES grid nodes, REDUCE_NODES under `reduce`), except for
ceiling cases whose t puts the grid far above core.MAX_NODES, and so do
generated instances, except for ceiling cases whose n asks for more pair
draws than core.MAX_ROLL_PAIRS. No `error:` line is longer than 200
characters, leaving out the case's own paths. The first len(LONG) cases each
give one option one of the LONG tokens as a flag, where argparse would echo
it, so every such token is fuzzed.
"""

import random
import re
import time

import pytest

from rollclust.cli import main
from rollclust.roll import valid_roll_size

SEED = 20260
CASES = 200
ROLL_NODES = 300
REDUCE_NODES = 64
# far above the node ceiling for every n >= 3: refused before a roll is built
CEILING_TS = ("1000000", "1000000000")
# node counts whose n(n-1)/2 pair draws are above core.MAX_ROLL_PAIRS, the
# first of them 4,900: refused before gen draws anything
CEILING_NS = ["4900", "50000", "2000000"]

# dest -> (values a run accepts, values that must fail); a drawn value is
# a bad one with probability BAD_VALUE
BAD_VALUE = 0.08
# a token float() refuses, which argparse's own float type echoes in full
LONG_FLOAT = "x" + "9" * 5000
PROBS = (["0", "0.1", "0.5", "1"], ["-0.1", "1.5", "nan", "inf", "x", LONG_FLOAT])
# decimal exponents past core.MAX_EXPONENT, which Fraction would expand in
# full, and a number of more digits than Python converts, which an error
# line shows by its head, its tail and its length; an int flag refuses all four
HUGE = ["1e20000000", "1e-20000000", "1E+99999", "9" * 5000]
MAGNITUDES = (["1", "2", "3/2", "5/4"], ["1/3", "0", "-1", "1/0", "x", "0.5", ""] + HUGE)
POOLS = {
    "n": (["3", "4", "5", "8", "0", "1", "2"], ["-1", "x", "3.5", ""] + CEILING_NS + HUGE),
    "model": (["planted", "uniform", "complete"], ["bogus"]),
    "k": (["1", "2", "3"], ["0", "-2", "x", "9"] + HUGE),
    "flip_prob": PROBS,
    "density": PROBS,
    "denominator_bound": (["1", "2", "6"], ["0", "-3", "x"] + HUGE),
    "plus_prob": PROBS,
    "seed": (["0", "1", "7", "-5", "12345678901234567890123"], ["x", "1.5"] + HUGE),
    "alpha": MAGNITUDES,
    "beta": MAGNITUDES,
    "solver": (["exact", "local", "local", "trivial", "pivot"], ["bogus"]),
    "objective": (["max", "min"], ["mid"]),
    "budget": (["1", "3", "1000"], ["0", "-1", "x"] + HUGE),
    "epsilon": (["1/20", "1", "1/3"], ["0", "-1/2", "x", "1/0"] + HUGE),
    "lambda_ref": (["1", "3/2", "2"], ["1/2", "0", "x"] + HUGE),
    "trials": (["1", "2"], ["0", "-1", "x"] + HUGE),
}
OPTIONS = {
    "gen": ["n", "model", "k", "flip_prob", "density", "denominator_bound", "plus_prob", "seed"],
    "roll": ["t"],
    "round": ["alpha", "beta", "seed"],
    "solve": ["solver", "objective", "budget", "seed"],
    "reduce": ["objective", "t", "alpha", "beta", "epsilon", "lambda_ref", "solver", "budget",
               "trials", "seed"],
}
# a t of 4,000 digits rolls into a grid of 4,002, and one of 4,300 into
# more digits than Python writes in decimal
LONG_TS = ["9" * 4000, "9" * 4300]
BAD_TS = ["-1", "x", "1.5", ""] + LONG_TS
# the long tokens the fuzzer must give the CLI at least once each
LONG = HUGE + [LONG_FLOAT] + LONG_TS
WEIGHTS = ["1", "-1", "1/2", "-1/3", "2/3", "-5/6", "1"]
BAD_WEIGHTS = ["3/2", "-2", "0", "1/0", "abc", "nan", "inf", "1e2", "0.25"] + HUGE


def graph_lines(rng, n):
    """A valid graph file of n nodes as its lines, header first."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.8]
    return [f"{n} {len(pairs)}"] + [f"{u} {v} {rng.choice(WEIGHTS)}" for u, v in pairs]


def mutate_graph(rng, lines):
    """One textual fault, or none, in a graph file's lines."""
    n, m = (int(x) for x in lines[0].split())
    kind = rng.randrange(14)
    if kind == 0:
        lines[0] = f"{n} {m + rng.choice((-1, 1))}"
    elif kind == 1:
        lines[0] = f"{rng.choice((-1, 10**9, 10**6 + 1, 2))} {m}"
    elif kind == 2:
        lines[0] = rng.choice(["x y", "3", "3 1 1", "", "1.5 2"])
    elif kind == 3 and m:
        i = rng.randrange(1, m + 1)
        u = lines[i].split()[0]
        lines[i] = f"{u} {u} 1"
    elif kind == 4 and m:
        lines.append(lines[rng.randrange(1, m + 1)])
        lines[0] = f"{n} {m + 1}"
    elif kind == 5 and m:
        i = rng.randrange(1, m + 1)
        u, v, _ = lines[i].split()
        lines[i] = f"{u} {v} {rng.choice(BAD_WEIGHTS)}"
    elif kind == 6 and m:
        i = rng.randrange(1, m + 1)
        lines[i] = rng.choice([lines[i] + " 7", " ".join(lines[i].split()[:2]), "-1 0 1",
                               f"0 {n} 1", "0 1.0 1"])
    elif kind == 7:
        lines[:] = rng.choice([[], ["", "  "]])
    return lines


def write_graph_file(rng, case_dir):
    """A graph file for the case and the node count its header declares."""
    n = rng.choice([0, 1, 2, 3, 3, 3, 4, 4, 5, 6, 8])
    lines = graph_lines(rng, n)
    if rng.random() < 0.3:
        lines = mutate_graph(rng, lines)
    path = case_dir / "g.txt"
    fault = rng.random()
    if fault < 0.02:
        path.write_bytes(b"3 1\n0 1 \xff\n")
    elif fault < 0.04:
        return str(case_dir / "missing.txt"), n
    elif fault < 0.05:
        return str(case_dir), n
    else:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path), n


def draw_t(rng, n, limit):
    """A t value: mostly one whose roll of an n-node base is at most limit
    nodes, else an out-of-range, malformed or above-the-ceiling one."""
    fits = [str(t) for t in range(3) if n >= 3 and valid_roll_size(n, t) * n <= limit]
    roll = rng.random()
    if fits and roll < 0.9:
        return rng.choice(fits)
    if roll < 0.95:
        return rng.choice(BAD_TS)
    return rng.choice(CEILING_TS)


def draw_options(rng, command, n):
    values = {}
    for dest in OPTIONS[command]:
        if rng.random() < 0.4:
            continue
        if dest == "t":
            limit = REDUCE_NODES if command == "reduce" else ROLL_NODES
            values[dest] = draw_t(rng, n, limit)
        else:
            good, bad = POOLS[dest]
            values[dest] = rng.choice(bad if rng.random() < BAD_VALUE else good)
    if command == "reduce":
        # keep a run to a few small trials whatever else is drawn
        values.setdefault("trials", rng.choice(["1", "2"]))
        values.setdefault("t", draw_t(rng, n, REDUCE_NODES))
    # leave out a required option now and then
    if command == "roll" and rng.random() < 0.95:
        values.setdefault("t", draw_t(rng, n, ROLL_NODES))
    if command == "gen" and rng.random() < 0.95:
        values.setdefault("n", rng.choice(POOLS["n"][0]))
    return values


def config_text(rng, values):
    lines = [f"{key} = {value}" for key, value in values.items()]
    kind = rng.randrange(16)
    if kind == 0:
        lines.append(rng.choice(["lambda = 2", "bogus = 1", "flip-prob = 0.1", "format = csv"]))
    elif kind == 1:
        lines.append(rng.choice(["no equals sign", "= 3", "t ="]))
    elif kind == 2:
        lines.insert(0, "# a comment line")
    return "\n".join(lines) + "\n"


def long_dests(command, token):
    """The options of command whose bad values include token."""
    return [dest for dest in OPTIONS[command]
            if token in (BAD_TS if dest == "t" else POOLS[dest][1])]


def build_case(rng, case_dir, long=None):
    """A case's argv, its files written to case_dir; long, if given, is the
    flag value of one option that can draw it."""
    command = rng.choice([c for c in OPTIONS if long is None or long_dests(c, long)])
    argv = [command]
    n = 0
    if command != "gen":
        path, n = write_graph_file(rng, case_dir)
        argv.append(path)
    values = draw_options(rng, command, n)
    if long is not None:
        values[rng.choice(long_dests(command, long))] = long
    flags = {key: value for key, value in values.items()
             if rng.random() < 0.6 or value == long}
    in_file = {key: value for key, value in values.items() if key not in flags}
    if in_file or rng.random() < 0.1:
        cfg = case_dir / "run.cfg"
        if rng.random() < 0.02:
            cfg.write_bytes(b"t = \xfe\n")
        else:
            cfg.write_text(config_text(rng, in_file), encoding="utf-8")
        argv += ["--config", str(cfg)]
    for key, value in flags.items():
        flag = "--lambda" if key == "lambda_ref" else "--" + key.replace("_", "-")
        argv += [flag, value] if rng.random() < 0.8 else [f"{flag}={value}"]
    out = rng.random()
    if out < 0.9:
        argv += ["--out", str(case_dir / "out.txt")]
    elif out < 0.95:
        argv += ["--out", str(case_dir / "no-such-dir" / "out.txt")]
    if rng.random() < 0.03:
        argv.append(rng.choice(["--format=csv", "--bogus", "--seed", "--t"]))
    return argv


ERROR_LINE = re.compile(r"^(rollclust( \w+)?: )?error: ")


def run_case(k, argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any other escape is what the fuzzer looks for
        pytest.fail(f"case {k} {argv}: {type(exc).__name__}: {exc}")
    return code, capsys.readouterr().err


def test_cli_fuzz_fails_only_with_one_error_line(tmp_path, capsys, monkeypatch):
    # reduce writes report.json to the working directory when --out is absent
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    start = time.perf_counter()
    outcomes = set()
    fuzzed = set()
    for k in range(CASES):
        case_dir = tmp_path / f"case{k}"
        case_dir.mkdir()
        argv = build_case(rng, case_dir, LONG[k] if k < len(LONG) else None)
        # the tokens the case hands the CLI in its flags, config and graph
        # files; whole tokens, as one long token holds a shorter one
        texts = argv + [path.read_bytes().decode("utf-8", "replace")
                        for path in case_dir.iterdir() if path.is_file()]
        fuzzed.update({token for text in texts for token in re.split(r"[\s=]+", text)}
                      .intersection(LONG))
        code, err = run_case(k, argv, capsys)
        errors = [line for line in err.splitlines() if ERROR_LINE.match(line)]
        assert (code, len(errors)) in ((0, 0), (2, 1)), (k, argv, code, err)
        # a long token is shortened; the case's own paths are not counted
        assert all(len(line.replace(str(case_dir), "")) <= 200 for line in errors), (k, argv, err)
        assert "Traceback" not in err, (k, argv, err)
        outcomes.add((argv[0], code))
    # every subcommand both ran to the end and refused some input
    assert outcomes == {(command, code) for command in OPTIONS for code in (0, 2)}
    assert fuzzed == set(LONG)
    assert time.perf_counter() - start < 10
