"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train|fleet|online --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout.  Standard output carries a provenance line, a summary
line and, last, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` every end-to-end metric named in
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric (0 for a
layer the workload does not run).  A failed correctness check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "fleet", "online")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    import importlib

    from perfbench.common import environment

    print(json.dumps({"environment": environment(args.seed, args.workload)}), flush=True)
    workload = importlib.import_module(f"perfbench.{args.workload}")
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    unknown = set(result.metrics) - set(declared)
    missing = set(declared) - set(result.metrics)
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {unknown=} {missing=}")
    print(
        json.dumps(
            {
                "summary": {name: {"value": v, "unit": u} for name, (v, u) in result.summary.items()},
                "checks": result.checks,
                "seed": args.seed,
            }
        ),
        flush=True,
    )
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    print(
        json.dumps(
            {
                "correct": bool(result.correct),
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
