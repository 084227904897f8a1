"""FleetScrubber: round-robin fleet scrubbing, swap/eviction awareness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.resilience import FleetScrubber, IntegrityGuard
from repro.serving import ModelRegistry


def _fit(dataset, seed):
    clf = LookHDClassifier(LookHDConfig(dim=512, levels=4, chunk_size=4, seed=seed))
    clf.fit(dataset.train_features, dataset.train_labels)
    return clf


@pytest.fixture
def registry(small_dataset):
    fleet = ModelRegistry()
    for seed, tenant in ((3, "alpha"), (11, "beta")):
        fleet.publish(tenant, _fit(small_dataset, seed))
    return fleet


def test_config_validation(registry):
    with pytest.raises(ValueError, match="blocks_per_tick"):
        FleetScrubber(registry, blocks_per_tick=0)
    with pytest.raises(ValueError, match="canary_every"):
        FleetScrubber(registry, canary_every=0)


def test_round_robin_scrubs_every_tenant(registry):
    scrubber = FleetScrubber(registry, blocks_per_tick=4)
    for _ in range(6):
        assert scrubber.tick() == []
    status = scrubber.status()
    assert status["ticks"] == 6
    assert sorted(status["tenants"]) == ["alpha", "beta"]
    for tenant in ("alpha", "beta"):
        sub = status["tenants"][tenant]
        assert sub["ticks"] == 3  # 6 fleet ticks, 2 tenants
        assert sub["bound"] is True
        assert sub["derived_guarded"] is True
    assert status["blocks_verified"] > 0
    assert status["degraded"] is False
    # Top-level keys the server health probe reports.
    for key in ("enabled", "degraded", "errors_detected", "repairs", "ticks"):
        assert key in status


def test_disabled_tick_is_noop(registry):
    scrubber = FleetScrubber(registry, enabled=False)
    assert scrubber.tick() == []
    assert scrubber.status()["ticks"] == 0
    assert scrubber.guard_builds == 0


def test_detects_and_repairs_corruption_in_one_tenant(registry):
    scrubber = FleetScrubber(registry, blocks_per_tick=1_000_000)
    for _ in range(2):
        scrubber.tick()  # baselines for both tenants
    victim = registry.record("alpha").classifier
    victim.class_model.class_vectors[0, :5] += 17  # silent corruption
    detected = []
    for _ in range(4):
        detected += scrubber.tick()
    assert any(error.artifact == "class_vectors" for error in detected)
    status = scrubber.status()
    assert status["errors_detected"] >= 1
    assert status["repairs"] >= 1  # rebuilt from intact counters
    assert status["degraded"] is False
    assert status["tenants"]["beta"]["errors_detected"] == 0


def test_mid_scrub_hot_swap_rebuilds_guard(small_dataset, registry):
    scrubber = FleetScrubber(registry, blocks_per_tick=4)
    for _ in range(4):
        scrubber.tick()
    builds_before = scrubber.guard_builds
    # Swap alpha between ticks: a replacement with *different* geometry
    # would trip "geometry changed" alarms if the stale guard survived.
    registry.publish("alpha", _fit(small_dataset, 23))
    errors = []
    for _ in range(4):
        errors += scrubber.tick()
    assert errors == []
    assert scrubber.guard_builds == builds_before + 1
    status = scrubber.status()
    assert status["tenants"]["alpha"]["version"] == 2
    assert status["degraded"] is False


def test_evicted_tenant_scrubbed_without_rebinding(small_dataset, registry):
    bytes_each = registry.record("alpha").classifier.warm_tables()
    budgeted = ModelRegistry(cache_budget_bytes=bytes_each)
    budgeted.publish("alpha", registry.record("alpha").classifier)
    budgeted.publish("beta", registry.record("beta").classifier)  # evicts alpha
    assert not budgeted.record("alpha").bound

    scrubber = FleetScrubber(budgeted, blocks_per_tick=8, canary_every=1)
    for _ in range(6):
        assert scrubber.tick() == []
    # The scrub loop must not have materialised what the LRU evicted —
    # probing derived caches would silently defeat the byte budget.
    assert not budgeted.record("alpha").bound
    assert budgeted.record("alpha").classifier.serving_table_bytes() == 0
    status = scrubber.status()
    assert status["tenants"]["alpha"]["derived_guarded"] is False
    assert status["tenants"]["beta"]["derived_guarded"] is True

    # Lazy rebind flips the binding state; the next tick rebuilds the
    # guard with derived coverage instead of serving the stale one.
    budgeted.get("alpha")
    assert budgeted.record("alpha").bound
    builds_before = scrubber.guard_builds
    for _ in range(2):
        assert scrubber.tick() == []
    assert scrubber.guard_builds == builds_before + 2  # alpha gains, beta loses
    assert scrubber.status()["tenants"]["alpha"]["derived_guarded"] is True


def test_tenant_removal_prunes_scrubber_state(registry):
    scrubber = FleetScrubber(registry)
    for _ in range(2):
        scrubber.tick()
    assert sorted(scrubber.status()["tenants"]) == ["alpha", "beta"]
    registry.remove("beta")
    scrubber.tick()
    assert sorted(scrubber.status()["tenants"]) == ["alpha"]


def test_guard_without_derived_coverage_leaves_caches_released(small_dataset):
    clf = _fit(small_dataset, 3)
    clf.release_tables()
    guard = IntegrityGuard(clf, include_derived=False)
    assert guard.check_canaries() == []
    assert guard.verify_all() == []
    # Building and sweeping the guard must not have rebuilt the caches.
    assert clf.serving_table_bytes() == 0


def test_guard_without_derived_coverage_runs_encode_canary(small_dataset):
    clf = _fit(small_dataset, 3)
    clf.release_tables()
    guard = IntegrityGuard(clf, include_derived=False)
    clf.encoder.lookup_table.table[:, :8] *= -1  # silent in-place damage
    assert [error.artifact for error in guard.check_canaries()] == ["encode"]
    assert clf.serving_table_bytes() == 0
