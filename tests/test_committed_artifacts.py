"""Every committed ``BENCH_*.json`` at the repo root still validates.

Old artifacts are the repo's performance record, so a schema change that
stops reading them must fail here rather than orphan the history.  The
same artifacts pin the checker's type rules and the writer's byte format.
"""

import copy
import json
import math
import re
from pathlib import Path

import pytest

from repro.bench.schema import validate_bench_payload
from repro.faults import validate_faults_payload
from repro.resilience import validate_resilience_payload
from repro.serving import validate_serving_payload
from repro.streaming import validate_streaming_payload
from repro.telemetry import validate_snapshot, validate_stats_payload
from repro.telemetry.stats import StatsWorkload, run_stats_workload
from repro.utils.artifact import write_artifact

ROOT = Path(__file__).resolve().parents[1]

ARTIFACTS = {
    "BENCH_training.json": lambda payload: validate_bench_payload(payload, "training"),
    "BENCH_inference.json": lambda payload: validate_bench_payload(payload, "inference"),
    "BENCH_faults.json": validate_faults_payload,
    "BENCH_resilience.json": validate_resilience_payload,
    "BENCH_serving.json": validate_serving_payload,
    "BENCH_streaming.json": validate_streaming_payload,
}


def test_every_committed_artifact_is_covered():
    assert sorted(path.name for path in ROOT.glob("BENCH_*.json")) == sorted(ARTIFACTS)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_committed_artifact_validates(name):
    payload = json.loads((ROOT / name).read_text())
    assert ARTIFACTS[name](payload) is payload


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_writer_reproduces_committed_bytes(name, tmp_path):
    text = (ROOT / name).read_text()
    write_artifact(tmp_path / name, json.loads(text))
    assert (tmp_path / name).read_text() == text


def test_writer_rejects_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        write_artifact(tmp_path / "BENCH_x.json", {"unchecked": float("nan")})
    assert not (tmp_path / "BENCH_x.json").exists()


# -- type rules: an int is never a bool, a number is always finite -----------

VALIDATORS = {**ARTIFACTS, "STATS.json": validate_stats_payload, "snapshot": validate_snapshot}

#: One int field and one number field per artifact kind, each named by the
#: dotted path its schema error must quote.
FIELDS = (
    (
        "BENCH_training.json",
        "workloads[0].config.dim",
        "workloads[0].timings['train_lookup'].seconds_median",
    ),
    ("BENCH_inference.json", "workloads[1].config.seed", "workloads[0].speedups['predict']"),
    ("BENCH_faults.json", "config.dim", "models[0].curve[0].accuracy_std"),
    ("BENCH_resilience.json", "serving.requests", "overhead.overhead_fraction"),
    ("BENCH_serving.json", "workload.n_requests", "results.throughput_rps"),
    ("BENCH_streaming.json", "workload.window", "modes.abrupt.sketch.rank_error_bound"),
    (
        "STATS.json",
        "workload.dim",
        "telemetry.timers['trainer.observe_seconds'].total_seconds",
    ),
    (
        "snapshot",
        "timers['trainer.observe_seconds'].count",
        "histograms['online.rival_push'].buckets[0]",
    ),
)
TYPE_CASES = [
    case
    for name, int_field, number_field in FIELDS
    for case in (
        (name, int_field, True),
        (name, number_field, math.nan),
        (name, number_field, math.inf),
    )
]

_STEP = re.compile(r"\.?([A-Za-z_]\w*)|\[(\d+)\]|\['([^']*)'\]")


def _locate(payload, path):
    """The container holding the field at ``path``, and its key there."""
    keys = [name or (int(index) if index else key) for name, index, key in _STEP.findall(path)]
    for key in keys[:-1]:
        payload = payload[key]
    return payload, keys[-1]


@pytest.fixture(scope="module")
def stats_payload():
    return run_stats_workload(
        StatsWorkload(dim=128, n_features=16, n_train=120, n_test=60, seed=11)
    )


def _valid_payload(name, stats_payload):
    if name == "STATS.json":
        payload = copy.deepcopy(stats_payload)
    elif name == "snapshot":
        payload = copy.deepcopy(stats_payload["telemetry"])
    else:
        payload = json.loads((ROOT / name).read_text())
    VALIDATORS[name](copy.deepcopy(payload))
    return payload


@pytest.mark.parametrize(("name", "field", "value"), TYPE_CASES)
def test_int_is_never_bool_and_number_always_finite(name, field, value, stats_payload):
    payload = _valid_payload(name, stats_payload)
    container, key = _locate(payload, field)
    container[key] = value
    with pytest.raises(ValueError, match=re.escape(field)):
        VALIDATORS[name](payload)


#: Every int field above, plus the zero-drop counts a gate pins to ``0``.
INT_FIELDS = [(name, int_field) for name, int_field, _ in FIELDS] + [
    ("BENCH_serving.json", "results.requests.dropped"),
    ("BENCH_serving.json", "results.sharding.acceptor.dropped"),
]


@pytest.mark.parametrize(("name", "field"), INT_FIELDS)
def test_int_is_never_float(name, field, stats_payload):
    payload = _valid_payload(name, stats_payload)
    container, key = _locate(payload, field)
    container[key] = float(container[key])
    with pytest.raises(ValueError, match=re.escape(field)):
        VALIDATORS[name](payload)
