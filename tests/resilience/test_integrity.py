"""Integrity guard + scrubber: detect silent corruption, repair, degrade.

Every test fits its own classifier — these tests *corrupt* model state in
place, so sharing the session-scoped fixture would poison the suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.faults import inject_live_fault
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.resilience import IntegrityError, IntegrityGuard, Scrubber


@pytest.fixture(scope="module")
def data():
    return make_synthetic_classification(
        SyntheticSpec(n_features=20, n_classes=4, n_train=160, n_test=80, seed=9),
        name="integrity",
    )


@pytest.fixture
def clf(data):
    """A fresh fitted classifier per test (tests mutate it destructively)."""
    model = LookHDClassifier(LookHDConfig(dim=256, levels=4, chunk_size=4, seed=2))
    model.fit(data.train_features, data.train_labels)
    return model


def _detect(guard: IntegrityGuard) -> list[IntegrityError]:
    errors = guard.verify_all()
    assert errors, "corruption was not detected by a full sweep"
    return errors


class TestIntegrityGuard:
    def test_clean_state_verifies_clean(self, clf):
        guard = IntegrityGuard(clf)
        assert guard.verify_all() == []
        assert guard.blocks_verified > 0
        assert guard.canary_checks == 1

    def test_requires_fitted_classifier(self):
        with pytest.raises(RuntimeError, match="fitted"):
            IntegrityGuard(LookHDClassifier(LookHDConfig(dim=256)))

    def test_score_table_corruption_detected_and_rebuilt(self, clf, data):
        guard = IntegrityGuard(clf)
        clean = np.asarray(clf.predict(data.test_features))
        inject_live_fault(clf, "score_table", ber=1e-4, seed=1)
        errors = _detect(guard)
        assert any(e.artifact == "score_table" for e in errors)
        report = guard.repair(next(e for e in errors if e.artifact == "score_table"))
        assert report.action == "rebuilt_derived"
        assert report.repaired
        assert guard.verify_all() == []
        assert np.array_equal(np.asarray(clf.predict(data.test_features)), clean)
        assert not guard.degraded

    def test_encode_canary_detects_table_damage(self, clf):
        guard = IntegrityGuard(clf)
        # The encode kernel reads the lookup table on every call, so damage
        # to it changes the encode canary's known answer.
        clf.encoder.lookup_table.table *= -1
        errors = guard.check_canaries()
        assert [e.artifact for e in errors] == ["encode"]
        # No cache rebuild can fix the table: the ladder finds the
        # authoritative damage and degrades.
        report = guard.repair(errors[0])
        assert report.artifact == "lookup_table"
        assert report.action == "degraded_reference"
        assert guard.degraded

    def test_model_corruption_rebuilt_from_counters(self, clf, data):
        guard = IntegrityGuard(clf)
        clean = np.asarray(clf.predict(data.test_features))
        # Silent in-place damage to authoritative model state: no version
        # bump, no cache invalidation — exactly what a BRAM flip looks like.
        clf.class_model.class_vectors[0, 0] += 17
        errors = _detect(guard)
        target = next(e for e in errors if e.artifact == "class_vectors")
        assert target.kind == "authoritative"
        report = guard.repair(target)
        assert report.action == "rebuilt_from_counters"
        assert report.repaired
        assert guard.verify_all() == []
        assert np.array_equal(np.asarray(clf.predict(data.test_features)), clean)

    def test_compressed_corruption_rebuilt_from_counters(self, clf, data):
        guard = IntegrityGuard(clf)
        clean = np.asarray(clf.predict(data.test_features))
        inject_live_fault(clf, "compressed", ber=1e-3, seed=3)
        errors = _detect(guard)
        report = guard.repair(errors[0])
        assert report.action == "rebuilt_from_counters"
        assert np.array_equal(np.asarray(clf.predict(data.test_features)), clean)

    def test_unrepairable_state_degrades_to_reference(self, clf, data):
        guard = IntegrityGuard(clf)
        # Positions are not rebuildable from counters: the only honest move
        # is to degrade and surface it.
        clf.encoder.position_memory.vectors[0, 0] *= -1
        errors = _detect(guard)
        target = next(e for e in errors if e.artifact == "positions")
        report = guard.repair(target)
        assert report.action == "degraded_reference"
        assert not report.repaired
        assert guard.degraded
        assert clf.serve_reference
        # Serving continues (reference path), and the re-recorded baseline
        # means the guard does not re-alert on the same latched damage.
        assert clf.predict(data.test_features).shape == (data.test_features.shape[0],)
        assert guard.verify_all() == []

    def test_legitimate_mutation_is_not_corruption(self, clf):
        guard = IntegrityGuard(clf)
        # A version bump is the classifier's declared mutation protocol;
        # the guard must resync, not alert.
        clf.class_model.mark_dirty()
        assert guard.verify_all() == []
        assert not guard.degraded

    def test_counters_intact_reflects_damage(self, clf):
        guard = IntegrityGuard(clf)
        assert guard.counters_intact()
        clf.trainer.counters[0].counts[0, 0] += 1
        assert not guard.counters_intact()


class TestScrubber:
    def test_incremental_ticks_detect_and_repair(self, clf, data):
        guard = IntegrityGuard(clf)
        scrubber = Scrubber(guard, blocks_per_tick=4, canary_every=4)
        clean = np.asarray(clf.predict(data.test_features))
        inject_live_fault(clf, "score_table", ber=1e-4, seed=4)
        for _ in range(2_000):
            scrubber.tick()
            if scrubber.repairs:
                break
        assert scrubber.errors_detected >= 1
        assert scrubber.repairs == 1
        assert scrubber.last_repair["action"] == "rebuilt_derived"
        assert np.array_equal(np.asarray(clf.predict(data.test_features)), clean)

    def test_disabled_tick_is_a_noop(self, clf):
        scrubber = Scrubber(IntegrityGuard(clf), enabled=False)
        verified_before = scrubber.guard.blocks_verified
        assert scrubber.tick() == []
        assert scrubber.ticks == 0
        assert scrubber.guard.blocks_verified == verified_before

    def test_auto_repair_off_records_without_touching(self, clf):
        guard = IntegrityGuard(clf)
        scrubber = Scrubber(guard, blocks_per_tick=10_000, auto_repair=False)
        clf.class_model.class_vectors[0, 0] += 5
        scrubber.tick()
        assert scrubber.errors_detected >= 1
        assert scrubber.last_error is not None
        assert scrubber.repairs == 0
        assert scrubber.last_repair is None

    def test_status_snapshot_shape(self, clf):
        scrubber = Scrubber(IntegrityGuard(clf))
        scrubber.tick()
        status = scrubber.status()
        for key in (
            "enabled",
            "auto_repair",
            "ticks",
            "blocks_verified",
            "canary_checks",
            "errors_detected",
            "repairs",
            "degraded",
            "last_error",
            "last_repair",
        ):
            assert key in status
        assert status["ticks"] == 1
        assert status["degraded"] is False

    def test_validation(self, clf):
        guard = IntegrityGuard(clf)
        with pytest.raises(ValueError, match="blocks_per_tick"):
            Scrubber(guard, blocks_per_tick=0)
        with pytest.raises(ValueError, match="canary_every"):
            Scrubber(guard, canary_every=0)
