"""One smoke-size pass of each workload, untraced and traced, plus the CLI."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import fleet, online, train
from perfbench.common import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

CASES = [
    (train, train.SMOKE, 1.0),
    (fleet, fleet.SMOKE, 3.0),
    (online, online.SMOKE, 1.0),
]


@pytest.mark.parametrize("module, config, seconds", CASES, ids=lambda c: getattr(c, "__name__", ""))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_smoke_pass(module, config, seconds, trace):
    result = module.run(3, seconds, trace, config=config)
    assert result.correct, result.checks
    assert result.failed == 0 and result.attempted > 0
    if trace:
        assert set(result.metrics) <= PER_LAYER
        assert result.metrics["trace.overhead"] > 0
    else:
        assert set(result.metrics) == END_TO_END
        assert all(value > 0 for value in result.metrics.values()), result.metrics


def test_fleet_trace_shows_todays_placement_skew():
    metrics = fleet.run(4, 3.0, True, config=fleet.SMOKE).metrics
    # CRC32 places tenant-0..3 on one of two shards, and both shards bind
    # every tenant's tables.
    assert metrics["serving.shard.max_share"] == 1.0
    per_tenant = metrics["lookhd.encoder.prebound_mb"]
    assert metrics["serving.registry.table_mb"] >= 2 * 4 * per_tenant


def test_run_prints_every_metric_last(tmp_path):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    done = subprocess.run(
        [*command, "--workload", "online", "--seed", "0", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == END_TO_END
    first = json.loads(done.stdout.splitlines()[0])["environment"]
    assert first["seed"] == 0 and first["nproc"] >= 1 and "blas" in first


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
