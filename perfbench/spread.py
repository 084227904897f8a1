"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fleet --seeds 1-10 [--seconds S]

Runs the benchmark once per seed (each in its own process, one after
another) and prints, per metric, the median and the quartile spread
(Q3 − Q1) ÷ median with quartiles from ``statistics.quantiles(n=4)``,
next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]  # fmt: skip
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-4000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = json.loads(lines[-2])["summary"]["host_steal_share"]["value"]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append(values)
        shown = {name: round(value, 4) for name, value in values.items()}
        print(f"seed {seed}: {elapsed:.0f} s, steal {steal:.3f} {shown}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [run[name] for run in runs]
        middle = statistics.median(values)
        spread = quartile_spread(values) if len(values) >= 2 and middle else float("nan")
        print(f"{name:40} {middle:12.4f} {spread:8.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
