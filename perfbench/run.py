"""Run one benchmark workload against the rollclust checkout in the
current directory.

    python3 perfbench/run.py --workload trials-small --seed 1 --seconds 30 --trace 0

Prints each metric as "name value unit", then a line of run metadata, then
as its last line one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The full result, and the spans of a traced run, are written
under perfbench/out/<workload>/. Exits 2, printing no result, when the
directory holds no rollclust sources.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rollclust" / "__init__.py").is_file():
        print(f"error: no rollclust sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rollclust

    if Path(rollclust.__file__).resolve().parent != (src / "rollclust").resolve():
        print(f"error: imported rollclust from {rollclust.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    declared = declared_metrics(args.trace)
    result = bench.run(wl, args.seed, args.seconds, bool(args.trace), root)
    if set(result["metrics"]) != set(declared):
        print(f"error: measured {sorted(result['metrics'])}, declared {sorted(declared)}",
              file=sys.stderr)
        return 1
    meta = result["meta"]
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in declared.items()}
    out = root / "perfbench" / "out" / wl.name / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=2) + "\n",
                   encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_frac {meta['failed_frac']!r} frac")
    for line in meta["failures"]:
        print(f"failure: {line}")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "failures"}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0


def declared_metrics(trace: int) -> "dict[str, str]":
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
