"""The ``repro stats`` workload, its schema, and the overhead gate."""

import json

import pytest

from repro.telemetry import validate_snapshot, validate_stats_payload
from repro.telemetry.stats import (
    StatsWorkload,
    measure_disabled_overhead,
    run_stats_workload,
    write_stats_file,
)

TINY = StatsWorkload(dim=128, n_features=16, n_train=120, n_test=60, seed=11)


@pytest.fixture(scope="module")
def stats_payload():
    return run_stats_workload(TINY)


class TestStatsWorkload:
    def test_payload_passes_schema(self, stats_payload):
        assert validate_stats_payload(stats_payload) is stats_payload

    def test_captures_fused_hits_and_fallback_reason(self, stats_payload):
        counters = stats_payload["telemetry"]["counters"]
        assert counters["inference.fused.queries"] > 0
        assert counters["inference.fused.fallbacks{reason=score_table_over_budget}"] >= 1

    def test_captures_both_score_table_build_triggers(self, stats_payload):
        counters = stats_payload["telemetry"]["counters"]
        assert counters["inference.score_table.builds{trigger=initial}"] >= 1
        # The workload mutates the model, so the version counter must have
        # forced a rebuild — the staleness bug class PR 1 fixed.
        assert counters["inference.score_table.builds{trigger=version_change}"] >= 1

    def test_captures_encoder_accumulator(self, stats_payload):
        counters = stats_payload["telemetry"]["counters"]
        assert counters["encoder.encode.batches{accumulator=int16}"] >= 1

    def test_captures_online_and_persistence(self, stats_payload):
        telemetry_block = stats_payload["telemetry"]
        counters = telemetry_block["counters"]
        assert counters["online.samples"] == 120
        assert (
            counters["online.updates.applied"] + counters["online.updates.skipped"]
            == counters["online.samples"]
        )
        assert counters["persistence.checksums_verified"] > 0
        assert telemetry_block["timers"]["persistence.save_seconds"]["count"] == 1
        assert telemetry_block["timers"]["persistence.load_seconds"]["count"] == 1

    def test_global_telemetry_left_disabled(self, stats_payload):
        from repro import telemetry

        assert not telemetry.is_enabled()

    def test_write_stats_file_round_trips(self, tmp_path, capsys):
        path = write_stats_file(tmp_path / "STATS.json", workload=TINY)
        payload = json.loads(path.read_text())
        validate_stats_payload(payload)
        out = capsys.readouterr().out
        assert "[stats] inference.fused.queries" in out
        assert "[stats] kernel backends:" in out

    def test_payload_surfaces_kernel_backends(self, stats_payload):
        from repro.kernels.reference import OP_NAMES

        block = stats_payload["kernels"]
        assert set(block["active"]) == set(OP_NAMES)
        assert all(isinstance(backend, str) for backend in block["active"].values())
        counters = stats_payload["telemetry"]["counters"]
        dispatches = [name for name in counters if name.startswith("kernels.dispatch{")]
        assert dispatches, "stats workload recorded no kernel dispatches"


class TestSchemaRejections:
    def test_missing_fused_counter_rejected(self, stats_payload):
        broken = json.loads(json.dumps(stats_payload))
        broken["telemetry"]["counters"] = {
            name: value
            for name, value in broken["telemetry"]["counters"].items()
            if not name.startswith("inference.fused.queries")
        }
        with pytest.raises(ValueError, match="inference.fused.queries"):
            validate_stats_payload(broken)

    def test_histogram_count_mismatch_rejected(self):
        snapshot = {
            "counters": {},
            "timers": {},
            "histograms": {
                "h": {"buckets": [1.0], "counts": [1, 0], "count": 5, "total": 0.5}
            },
        }
        with pytest.raises(ValueError, match="sum of its bucket counts"):
            validate_snapshot(snapshot)

    def test_non_int_counter_rejected(self):
        with pytest.raises(ValueError, match="must be an int"):
            validate_snapshot({"counters": {"c": 1.5}, "timers": {}, "histograms": {}})

    def test_malformed_kernels_block_rejected(self, stats_payload):
        broken = json.loads(json.dumps(stats_payload))
        broken["kernels"] = {"mode": "auto"}  # missing numba_available/active
        with pytest.raises(ValueError, match="kernels"):
            validate_stats_payload(broken)

    def test_payload_without_kernels_block_still_validates(self, stats_payload):
        legacy = json.loads(json.dumps(stats_payload))
        del legacy["kernels"]
        validate_stats_payload(legacy)


class TestOverheadGate:
    def test_measurement_shape_and_sanity(self):
        # CI-sized: small repeats, small workload.  The 5% production gate
        # runs in the telemetry-smoke CI job on the full micro-workload.
        result = measure_disabled_overhead(repeats=3, n_test=1_000, dim=256)
        assert result["baseline_seconds"] > 0
        assert result["instrumented_seconds"] > 0
        # Batch-level instrumentation must stay within noise; anything near
        # 50% means a per-sample call slipped onto the hot path.
        assert result["overhead_fraction"] < 0.5

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            measure_disabled_overhead(repeats=0)
