"""Every committed ``BENCH_*.json`` at the repo root still validates.

Old artifacts are the repo's performance record, so a schema change that
stops reading them must fail here rather than orphan the history.
"""

import json
from pathlib import Path

import pytest

from repro.bench.schema import validate_bench_payload
from repro.faults import validate_faults_payload
from repro.resilience import validate_resilience_payload
from repro.serving import validate_serving_payload
from repro.streaming import validate_streaming_payload

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
