"""Fleet-mode InferenceService: routing, quotas, fairness, dispatch binding.

Also home to two serving-boundary regression suites: the exact-boundary
admission-control test (peak queue depth can never exceed the bound, no
matter how many coroutines submit in one event-loop tick) and the
online-learner staleness test (``partial_fit`` must bump the snapshot
version so fused score tables rebuild instead of serving stale answers).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.inference import FusedInferenceEngine
from repro.lookhd.online import OnlineLookHD
from repro.serving import (
    InferenceService,
    MicrobatchConfig,
    ModelRegistry,
    ServiceOverloadedError,
    TenantOverloadedError,
    UnknownTenantError,
)
from tests.serving.helpers import one_tenant


def run(coro):
    return asyncio.run(coro)


def _fit(dataset, seed):
    clf = LookHDClassifier(LookHDConfig(dim=512, levels=4, chunk_size=4, seed=seed))
    clf.fit(dataset.train_features, dataset.train_labels)
    return clf


@pytest.fixture(scope="module")
def tenant_models(small_dataset):
    return {"alpha": _fit(small_dataset, 3), "beta": _fit(small_dataset, 11)}


@pytest.fixture
def registry(tenant_models):
    fleet = ModelRegistry()
    for tenant, clf in tenant_models.items():
        fleet.publish(tenant, clf)
    return fleet


@pytest.fixture
def queries(small_dataset):
    return np.asarray(small_dataset.test_features, dtype=np.float64)


class _GatedClassifier:
    """Blocks predict on a threading event so a test can hold a batch open."""

    def __init__(self, inner):
        self.inner = inner
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def predict(self, batch):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=10.0), "test never released the batch"
        return self.inner.predict(batch)


def test_routes_each_request_to_its_tenants_model(tenant_models, registry, queries):
    rows = queries[:12]
    expected = {t: clf.predict(rows) for t, clf in tenant_models.items()}

    async def drive():
        config = MicrobatchConfig(max_batch=8, max_wait_ms=20.0)
        async with InferenceService(registry=registry, config=config) as service:
            tasks = []
            for index in range(rows.shape[0]):
                for tenant in ("alpha", "beta"):
                    tasks.append(service.predict(rows[index], tenant=tenant))
            flat = await asyncio.gather(*tasks)
            return flat, service.request_stats()

    flat, stats = run(drive())
    got = {
        "alpha": np.asarray(flat[0::2], dtype=np.int64),
        "beta": np.asarray(flat[1::2], dtype=np.int64),
    }
    for tenant in ("alpha", "beta"):
        np.testing.assert_array_equal(got[tenant], expected[tenant])
        assert stats["tenants"][tenant]["completed"] == 12
        assert stats["tenants"][tenant]["dropped"] == 0


def test_unknown_tenant_rejected_before_queueing(registry, queries):
    async def drive():
        async with InferenceService(registry=registry) as service:
            with pytest.raises(UnknownTenantError):
                await service.predict(queries[0], tenant="ghost")
            return service.request_stats()

    stats = run(drive())
    assert stats["admitted"] == 0


def test_single_model_service_rejects_tenants(tenant_models, queries):
    async def drive():
        async with InferenceService(one_tenant(tenant_models["alpha"])) as service:
            with pytest.raises(UnknownTenantError, match="'alpha'"):
                await service.predict(queries[0], tenant="alpha")
            # The implicit default tenant is accepted by name.
            return await service.predict(
                queries[0], tenant=InferenceService.DEFAULT_TENANT
            )

    assert run(drive()) == tenant_models["alpha"].predict(queries[0])


def test_tenant_quota_is_typed_and_per_tenant(registry, queries):
    async def drive():
        config = MicrobatchConfig(
            max_batch=64, max_wait_ms=10_000.0, max_queue_depth=64, tenant_quota=2
        )
        service = InferenceService(registry=registry, config=config)
        await service.start()
        pending = [
            asyncio.ensure_future(service.predict(queries[i], tenant="alpha"))
            for i in range(2)
        ]
        await asyncio.sleep(0)
        with pytest.raises(TenantOverloadedError) as excinfo:
            await service.predict(queries[2], tenant="alpha")
        # Another tenant still has its own quota under the global bound.
        pending.append(
            asyncio.ensure_future(service.predict(queries[0], tenant="beta"))
        )
        await asyncio.sleep(0)
        stats_mid = service.request_stats()
        await service.stop()  # drains the parked requests
        await asyncio.gather(*pending)
        return excinfo.value, stats_mid, service.request_stats()

    error, stats_mid, stats = run(drive())
    assert isinstance(error, ServiceOverloadedError)
    assert error.tenant == "alpha"
    assert error.tenant_quota == 2
    assert error.queue_depth == 2
    assert stats_mid["tenants"]["alpha"]["rejected"] == 1
    assert stats_mid["tenants"]["beta"]["admitted"] == 1
    assert stats["dropped"] == 0


def test_admission_boundary_never_exceeds_queue_depth(tenant_models, queries):
    """Regression: N coroutines admitted in one tick cannot overshoot the bound.

    Admission must be an atomic check-and-append — if the depth check and
    the enqueue could interleave across awaiters, a burst arriving in one
    event-loop tick would overshoot ``max_queue_depth``.  The always-on
    ``peak_queue_depth`` watermark is the witness.
    """
    clf = tenant_models["alpha"]

    async def drive():
        config = MicrobatchConfig(max_batch=4, max_queue_depth=4, max_wait_ms=5.0)
        service = InferenceService(one_tenant(clf), config)
        await service.start()
        # 32 submissions in the same tick: exactly 4 slots exist.
        pending = [
            asyncio.ensure_future(service.predict(queries[i % 16]))
            for i in range(32)
        ]
        results = await asyncio.gather(*pending, return_exceptions=True)
        await service.stop()
        return results, service.request_stats()

    results, stats = run(drive())
    rejected = [r for r in results if isinstance(r, ServiceOverloadedError)]
    completed = [r for r in results if isinstance(r, np.int64)]
    assert stats["peak_queue_depth"] == 4  # never exceeded max_queue_depth
    assert len(rejected) == 28 and all(r.queue_depth == 4 for r in rejected)
    assert len(completed) == 4
    assert stats["admitted"] == 4 and stats["rejected"] == 28
    assert stats["dropped"] == 0


def test_round_robin_flush_alternates_ready_tenants(registry, queries):
    """Two tenants with full batches waiting each get one flush per cycle."""

    async def drive():
        config = MicrobatchConfig(max_batch=2, max_wait_ms=10_000.0)
        service = InferenceService(registry=registry, config=config)
        order: list[str] = []
        original = service._dispatch

        async def spy(batch, reason, tenant):
            order.append(tenant)
            await original(batch, reason, tenant)

        service._dispatch = spy
        await service.start()
        pending = []
        for index in range(4):
            for tenant in ("alpha", "beta"):
                pending.append(
                    asyncio.ensure_future(
                        service.predict(queries[index], tenant=tenant)
                    )
                )
        await asyncio.gather(*pending)
        await service.stop()
        return order

    order = run(drive())
    assert len(order) == 4  # 8 requests, batches of 2
    assert sorted(order) == ["alpha", "alpha", "beta", "beta"]
    # Strict alternation: with both queues full the whole time, no tenant
    # is served twice while the other is ready.
    assert all(order[i] != order[i + 1] for i in range(len(order) - 1))


def test_hot_swap_binds_at_dispatch_time(small_dataset, registry, queries):
    """A batch in flight finishes on the old record; the next batch gets the new."""
    rows = queries[:4]
    expected = registry.record("alpha").classifier.predict(rows)
    gated = _GatedClassifier(registry.record("alpha").classifier)
    registry.publish("alpha", gated, n_features=rows.shape[1])
    replacement = _fit(small_dataset, 3)  # bit-identical geometry, seed 3

    version_before = registry.record("alpha").version

    def publish_during_first_batch():
        # The first batch runs inline and holds the event loop inside the
        # old model; the second batch is already queued behind it.  The
        # flip must not touch the in-flight batch, and the queued batch
        # must resolve the new record at dispatch time.
        assert gated.started.wait(timeout=10.0), "first batch never started"
        registry.publish("alpha", replacement)
        gated.release.set()

    async def drive():
        config = MicrobatchConfig(max_batch=2, max_wait_ms=5.0)
        service = InferenceService(registry=registry, config=config)
        await service.start()
        publisher = threading.Thread(target=publish_during_first_batch)
        publisher.start()
        pending = [
            asyncio.ensure_future(service.predict(rows[i], tenant="alpha"))
            for i in range(4)
        ]
        predictions = await asyncio.gather(*pending)
        await service.stop()
        publisher.join()
        return predictions, service.request_stats()

    predictions, stats = run(drive())
    assert registry.record("alpha").version == version_before + 1
    assert gated.calls == 1  # only the in-flight batch ran on the old model
    np.testing.assert_array_equal(np.asarray(predictions, dtype=np.int64), expected)
    assert stats["completed"] == 4 and stats["dropped"] == 0


class TestOnlineSnapshotStaleness:
    """``partial_fit`` must bump the snapshot version counter.

    A fused score table built over ``OnlineLookHD.class_model()`` caches by
    model version; if an online update did not move the counter, the table
    would keep serving the pre-update weights forever.
    """

    def test_partial_fit_bumps_snapshot_version(self, small_dataset, tenant_models):
        online = OnlineLookHD(
            tenant_models["alpha"].encoder, small_dataset.n_classes
        )
        online.partial_fit(
            small_dataset.train_features[:40], small_dataset.train_labels[:40]
        )
        snapshot = online.class_model()
        version_before = snapshot.version
        online.partial_fit(
            small_dataset.train_features[40:80], small_dataset.train_labels[40:80]
        )
        assert snapshot.version > version_before

    def test_interleaved_partial_fit_serves_fresh_through_service(
        self, small_dataset, tenant_models
    ):
        encoder = tenant_models["alpha"].encoder
        online = OnlineLookHD(encoder, small_dataset.n_classes)
        half = small_dataset.n_train // 2
        online.partial_fit(
            small_dataset.train_features[:half], small_dataset.train_labels[:half]
        )
        engine = FusedInferenceEngine(encoder, online.class_model())
        assert engine.enabled

        class FusedOnline:
            """The live-served shape: fused table over the online snapshot."""

            def __init__(self):
                self.encoder = encoder
                self.predict = engine.predict

        rows = np.asarray(small_dataset.test_features, dtype=np.float64)[:16]

        async def drive():
            config = MicrobatchConfig(max_batch=8, max_wait_ms=20.0)
            async with InferenceService(one_tenant(FusedOnline()), config) as service:
                before = await asyncio.gather(
                    *(service.predict(row) for row in rows)
                )
                # Mid-session online update between served batches.
                online.partial_fit(
                    small_dataset.train_features[half:],
                    small_dataset.train_labels[half:],
                )
                after = await asyncio.gather(
                    *(service.predict(row) for row in rows)
                )
                return np.asarray(before, dtype=np.int64), np.asarray(
                    after, dtype=np.int64
                )

        before, after = run(drive())
        # Oracles: fresh engines over snapshots of each state.  The served
        # answers must track the update — a stale cached table would keep
        # returning `before`-state scores after the partial_fit.
        fresh_after = FusedInferenceEngine(encoder, online.class_model())
        np.testing.assert_array_equal(after, fresh_after.predict(rows))
        assert engine._built_version == online.class_model().version
