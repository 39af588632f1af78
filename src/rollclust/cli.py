"""Command line interface.

Subcommands: gen, roll, round, solve, reduce. Every command is
deterministic; all but roll take --seed, and their generation, rounding,
and solver randomness run on named sub-streams derived from that one seed.
roll and reduce size a roll by --t alone: the row count follows from the
base and t. An optional config file supplies "key = value" defaults for
any flag; explicit flags win. Every numeric flag, and its config value,
converts through one _flag_type, so a refused token is named by
core.quoted. Notes on what a run cut short go to stderr. Exit status is 0
only when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from typing import NoReturn

from .core import ObjectiveKind, format_graph, parse_rational, quoted, read_graph, write_graph
from .harness import (
    CompleteSigned,
    GenSpec,
    PlantedPartition,
    UniformRational,
    generate,
)
from .jsonutil import frac_to_str
from .reduction import ReductionConfig, aggregate_to_dict, run_trials
from .roll import build_roll
from .rounding import RoundingParams, round_graph
from .solvers import DEFAULT_BUDGET, SolverKind, SolverSpec, budget_note, run_solver
from .streams import derive_seed


def _flag_type(convert, cause: str | None = None):
    """An argparse type that refuses a token as `<cause>: <quoted token>`, by
    default convert's own cause; argparse's message echoes it in full."""
    def flag_type(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{cause or exc}: {quoted(text)}") from None
    return flag_type


_int = _flag_type(int, "invalid int value")
_float = _flag_type(float, "invalid float value")
_fraction = _flag_type(parse_rational)


def _parent_parsers() -> "tuple[argparse.ArgumentParser, ...]":
    """Shared flags: --out and --config for every subcommand, --seed for
    the ones that draw randomness."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--config", default=None,
                        help="file of 'key = value' defaults; flags override")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int, default=0, help="root seed for all randomness")
    return common, seeded


def build_parser() -> "tuple[argparse.ArgumentParser, dict]":
    """The parser, and its subcommand name -> subparser map; each subparser
    names its handler as its `run` default."""
    common, seeded = _parent_parsers()
    parser = argparse.ArgumentParser(
        prog="rollclust",
        description="Correlation clustering with rolls, rounding, and exact accounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common, seeded], help="generate a random instance")
    p.add_argument("--n", type=_int, default=None, help="node count (required here or in --config)")
    p.add_argument("--model", choices=("planted", "uniform", "complete"), default="uniform")
    p.add_argument("--k", type=_int, default=2, help="planted cluster count")
    p.add_argument("--flip-prob", type=_float, default=0.0)
    p.add_argument("--density", type=_float, default=0.5)
    p.add_argument("--denominator-bound", type=_int, default=6)
    p.add_argument("--plus-prob", type=_float, default=0.5)
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("roll", parents=[common], help="roll a graph into a grid")
    p.add_argument("graph", help="input graph file")
    p.add_argument("--t", type=_int, default=None,
                   help="roll size parameter (required here or in --config)")
    p.set_defaults(run=cmd_roll)

    p = sub.add_parser("round", parents=[common, seeded], help="randomly round weights")
    p.add_argument("graph")
    p.add_argument("--alpha", type=_fraction, default=Fraction(1))
    p.add_argument("--beta", type=_fraction, default=Fraction(1))
    p.set_defaults(run=cmd_round)

    p = sub.add_parser("solve", parents=[common, seeded], help="cluster a graph")
    p.add_argument("graph")
    p.add_argument("--solver", choices=[k.value for k in SolverKind], default="exact")
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--budget", type=_int, default=DEFAULT_BUDGET)
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("reduce", parents=[common, seeded], help="run the roll pipeline trials")
    p.add_argument("graph")
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--t", type=_int, default=0)
    p.add_argument("--alpha", type=_fraction, default=Fraction(1))
    p.add_argument("--beta", type=_fraction, default=Fraction(1))
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 20))
    p.add_argument("--lambda", dest="lambda_ref", type=_fraction, default=Fraction(1))
    p.add_argument("--solver", choices=[k.value for k in SolverKind], default="local")
    p.add_argument("--budget", type=_int, default=DEFAULT_BUDGET)
    p.add_argument("--trials", type=_int, default=20)
    p.set_defaults(run=cmd_reduce)

    return parser, sub.choices


def _usage_error(message: str) -> NoReturn:
    """Report bad input on stderr and exit with status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_config_file(path: str) -> "dict[str, str]":
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        _usage_error(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _apply_config(argv, subparsers) -> None:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    values = parse_config_file(known.config)
    # keys are flag dests of any subcommand, so one file can serve several
    actions = [action for p in subparsers.values() for action in p._actions]
    dests = {action.dest for action in actions}
    for key in values:
        if key not in dests:
            flag = "--" + key.replace("_", "-")
            named = [action.dest for action in actions if flag in action.option_strings]
            hint = f"; the key for {flag} is {named[0]!r}" if named else ""
            _usage_error(f"{known.config}: unknown key {quoted(key)}{hint}")
    for p in subparsers.values():
        applicable = {}
        for action in p._actions:
            text = values.get(action.dest)
            if text is None:
                continue
            # argparse names only the flag when a string default fails to
            # convert, and checks choices on flags only
            try:
                value = action.type(text) if action.type else text
            except argparse.ArgumentTypeError as exc:
                # its message ends with the value, which this line shows once
                cause = str(exc).removesuffix(f": {quoted(text)}")
                _usage_error(f"{known.config}: {action.dest} = {quoted(text)}: {cause}")
            if action.choices is not None and value not in action.choices:
                _usage_error(
                    f"{known.config}: {action.dest} = {quoted(text)} is not one of "
                    + ", ".join(action.choices)
                )
            applicable[action.dest] = value
        if applicable:
            p.set_defaults(**applicable)


def _rounding_params(args) -> RoundingParams:
    return RoundingParams(alpha=args.alpha, beta=args.beta, seed=derive_seed(args.seed, "round"))


def _solver_spec(args) -> SolverSpec:
    return SolverSpec(
        kind=SolverKind(args.solver), seed=derive_seed(args.seed, "solver"), budget=args.budget
    )


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    if args.n is None:
        _usage_error("gen: --n is required (flag or config file)")
    if args.model == "planted":
        model = PlantedPartition(clusters=args.k, flip_prob=args.flip_prob)
    elif args.model == "uniform":
        model = UniformRational(density=args.density, denominator_bound=args.denominator_bound)
    else:
        model = CompleteSigned(plus_prob=args.plus_prob)
    g = generate(GenSpec(n=args.n, model=model, seed=derive_seed(args.seed, "gen")))
    if args.out:
        write_graph(g, args.out)
    else:
        sys.stdout.write(format_graph(g))
    return 0


def cmd_roll(args) -> int:
    if not args.out:
        _usage_error("roll: --out is required (a sidecar file is written next to it)")
    if args.t is None:
        _usage_error("roll: --t is required (flag or config file)")
    g = read_graph(args.graph)
    rolled = build_roll(g, args.t)
    write_graph(rolled.graph, args.out)
    sidecar = {
        "n": g.n,
        "rows": rolled.rows,
        "active": [[d.start_row, d.slope] for d in rolled.active],
    }
    _write_json(args.out + ".duplicates.json", sidecar)
    return 0


def cmd_round(args) -> int:
    if not args.out:
        _usage_error("round: --out is required (a sidecar file is written next to it)")
    g = read_graph(args.graph)
    params = _rounding_params(args)
    out = round_graph(g, params)
    write_graph(out.after, args.out)
    by_class: dict = {}
    for u, v, w in g.edges():
        count, total = by_class.get(w, (0, Fraction(0)))
        by_class[w] = (count + 1, total + out.after.weight(u, v))
    sidecar = {
        "alpha": frac_to_str(params.alpha),
        "beta": frac_to_str(params.beta),
        "classes": [
            {
                "weight": frac_to_str(w),
                "count": count,
                "empirical_mean": frac_to_str(total / count),
            }
            for w, (count, total) in sorted(by_class.items())
        ],
    }
    _write_json(args.out + ".classes.json", sidecar)
    return 0


def cmd_solve(args) -> int:
    g = read_graph(args.graph)
    objective = ObjectiveKind(args.objective)
    res = run_solver(g, objective, _solver_spec(args))
    print(" ".join(str(lbl) for lbl in res.clustering.labels))
    print(frac_to_str(res.value))
    if res.budget_exhausted:
        print(f"note: {budget_note(args.budget)}", file=sys.stderr)
    if args.out:
        _write_json(
            args.out,
            {
                "labels": list(res.clustering.labels),
                "value": frac_to_str(res.value),
                "objective": objective.value,
                "solver": args.solver,
            },
        )
    return 0


def cmd_reduce(args) -> int:
    g = read_graph(args.graph)
    cfg = ReductionConfig(
        objective=ObjectiveKind(args.objective),
        t=args.t,
        rounding=_rounding_params(args),
        solver=_solver_spec(args),
        epsilon=args.epsilon,
        lambda_ref=args.lambda_ref,
    )
    try:
        agg = run_trials(g, cfg, args.trials)
    except RuntimeError as exc:
        # a failed accounting identity: the program's fault, not the input's
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_json(args.out or "report.json", aggregate_to_dict(agg))
    print(f"trials={agg.trials} opt={frac_to_str(agg.opt_value)} "
          f"bad_event_freq={frac_to_str(agg.bad_event_freq)}")
    # each distinct note with the number of trials that raised it, in first-seen order
    for note, count in Counter(note for s in agg.per_trial for note in s.notes).items():
        print(f"note: {note} ({count} of {agg.trials} trials)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    _apply_config(argv, subparsers)
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # a GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
