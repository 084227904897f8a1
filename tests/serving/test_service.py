"""Microbatcher behaviour: coalescing, backpressure, drain, bit-identity.

No pytest-asyncio in the toolchain; each test drives its own event loop
through ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import telemetry
from repro.serving import (
    FLUSH_DRAIN,
    FLUSH_MAX_BATCH,
    FLUSH_MAX_WAIT,
    InferenceService,
    MicrobatchConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
)
from tests.serving.helpers import one_tenant


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def queries(small_dataset):
    return np.asarray(small_dataset.test_features, dtype=np.float64)


def test_config_validation():
    with pytest.raises(ValueError, match="max_batch"):
        MicrobatchConfig(max_batch=0)
    with pytest.raises(ValueError, match="max_wait_ms"):
        MicrobatchConfig(max_wait_ms=0.0)
    with pytest.raises(ValueError, match="max_queue_depth"):
        MicrobatchConfig(max_batch=64, max_queue_depth=32)


def test_batched_predictions_bit_identical_to_single(fitted_lookhd, queries):
    expected = fitted_lookhd.predict(queries)

    async def drive():
        config = MicrobatchConfig(max_batch=16, max_wait_ms=50.0)
        async with InferenceService(one_tenant(fitted_lookhd), config) as service:
            return await asyncio.gather(
                *(service.predict(row) for row in queries)
            )

    predictions = run(drive())
    assert all(isinstance(p, np.int64) for p in predictions)
    np.testing.assert_array_equal(np.asarray(predictions, dtype=np.int64), expected)


def test_coalesces_concurrent_requests_into_batches(fitted_lookhd, queries):
    async def drive():
        config = MicrobatchConfig(max_batch=8, max_wait_ms=200.0)
        async with InferenceService(one_tenant(fitted_lookhd), config) as service:
            await asyncio.gather(*(service.predict(row) for row in queries[:32]))
            return service.request_stats(), dict(service.flush_reasons)

    stats, reasons = run(drive())
    assert stats["completed"] == 32
    # 32 concurrent awaiters against max_batch=8 must coalesce: far fewer
    # flushes than requests, and (given the generous max_wait) at least one
    # flush triggered by a full batch.
    assert stats["batches"] <= 8
    assert reasons.get(FLUSH_MAX_BATCH, 0) >= 1


def test_max_wait_flushes_partial_batch(fitted_lookhd, queries):
    async def drive():
        config = MicrobatchConfig(max_batch=64, max_wait_ms=5.0)
        async with InferenceService(one_tenant(fitted_lookhd), config) as service:
            prediction = await service.predict(queries[0])
            return prediction, dict(service.flush_reasons)

    prediction, reasons = run(drive())
    assert prediction == fitted_lookhd.predict(queries[0])
    assert reasons == {FLUSH_MAX_WAIT: 1}


def test_stop_drains_admitted_requests(fitted_lookhd, queries):
    async def drive():
        config = MicrobatchConfig(max_batch=64, max_wait_ms=10_000.0)
        service = InferenceService(one_tenant(fitted_lookhd), config)
        await service.start()
        # Park requests without awaiting them, then stop: drain must answer
        # every one (flush reason "drain"), long before the 10 s deadline.
        pending = [
            asyncio.ensure_future(service.predict(row)) for row in queries[:5]
        ]
        await asyncio.sleep(0)
        await service.stop()
        predictions = await asyncio.gather(*pending)
        return predictions, service.request_stats(), dict(service.flush_reasons)

    predictions, stats, reasons = run(drive())
    np.testing.assert_array_equal(
        np.asarray(predictions), fitted_lookhd.predict(queries[:5])
    )
    assert stats["dropped"] == 0
    assert reasons.get(FLUSH_DRAIN, 0) >= 1


def test_predict_after_stop_raises_closed(fitted_lookhd, queries):
    async def drive():
        service = InferenceService(one_tenant(fitted_lookhd))
        await service.start()
        await service.stop()
        with pytest.raises(ServiceClosedError):
            await service.predict(queries[0])

    run(drive())


def test_predict_without_start_raises_closed(fitted_lookhd, queries):
    async def drive():
        with pytest.raises(ServiceClosedError):
            await InferenceService(one_tenant(fitted_lookhd)).predict(queries[0])

    run(drive())


def test_admission_control_rejects_beyond_queue_depth(fitted_lookhd, queries):
    async def drive():
        config = MicrobatchConfig(max_batch=2, max_queue_depth=2, max_wait_ms=5.0)
        service = InferenceService(one_tenant(fitted_lookhd), config)
        await service.start()
        pending = [
            asyncio.ensure_future(service.predict(queries[i])) for i in range(2)
        ]
        # One yield admits both requests; the collector, woken by the
        # first, runs only after this coroutine yields again, so the
        # queue is still full when the third request arrives.
        await asyncio.sleep(0)
        assert service.queue_depth == 2
        with pytest.raises(ServiceOverloadedError) as excinfo:
            await service.predict(queries[2])
        rejected_stats = service.request_stats()
        predictions = await asyncio.gather(*pending)
        await service.stop()
        return excinfo.value, rejected_stats, service.request_stats(), predictions

    error, rejected_stats, final_stats, predictions = run(drive())
    assert error.queue_depth == 2
    assert error.max_queue_depth == 2
    assert isinstance(error, ServingError)
    assert rejected_stats["rejected"] == 1
    assert final_stats["completed"] == 2
    assert final_stats["dropped"] == 0
    np.testing.assert_array_equal(
        np.asarray(predictions), fitted_lookhd.predict(queries[:2])
    )


def test_rejects_malformed_requests_eagerly(fitted_lookhd, queries):
    async def drive():
        async with InferenceService(one_tenant(fitted_lookhd)) as service:
            with pytest.raises(ValueError, match="1-D"):
                await service.predict(queries[:2])
            with pytest.raises(ValueError, match="features per request"):
                await service.predict(queries[0][:-1])

    run(drive())


def test_non_finite_request_raises_without_poisoning_batch(fitted_lookhd, queries):
    bad = queries[0].copy()
    bad[3] = np.nan

    async def drive():
        config = MicrobatchConfig(max_batch=8, max_wait_ms=20.0)
        async with InferenceService(one_tenant(fitted_lookhd), config) as service:
            futures = [
                asyncio.ensure_future(service.predict(row)) for row in queries[:4]
            ]
            bad_future = asyncio.ensure_future(service.predict(bad))
            good = await asyncio.gather(*futures)
            with pytest.raises(ValueError, match="non-finite"):
                await bad_future
            return good, service.request_stats()

    good, stats = run(drive())
    np.testing.assert_array_equal(
        np.asarray(good), fitted_lookhd.predict(queries[:4])
    )
    # The NaN request is accounted as failed, never dropped.
    assert stats["failed"] == 1
    assert stats["dropped"] == 0


def test_predict_exception_fans_out_as_serving_error(queries):
    class Exploding:
        n_features = queries.shape[1]

        def predict(self, batch):
            raise RuntimeError("kaboom")

    async def drive():
        service = InferenceService(
            one_tenant(Exploding(), n_features=queries.shape[1]),
            MicrobatchConfig(max_wait_ms=5.0),
        )
        async with service:
            with pytest.raises(ServingError, match="kaboom"):
                await service.predict(queries[0])
            return service.request_stats()

    stats = run(drive())
    assert stats["failed"] == 1
    assert stats["dropped"] == 0


def test_telemetry_records_batch_granular_metrics(fitted_lookhd, queries):
    async def drive(service):
        async with service:
            await asyncio.gather(*(service.predict(row) for row in queries[:24]))

    with telemetry.enabled() as registry:
        service = InferenceService(
            one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=8, max_wait_ms=100.0)
        )
        run(drive(service))
        snapshot = registry.snapshot()

    histograms = snapshot["histograms"]
    assert histograms["serving.batch.size"]["count"] == service.batches
    assert histograms["serving.queue.wait_seconds"]["count"] == 24
    assert histograms["serving.latency_seconds"]["count"] == 24
    assert snapshot["counters"]["serving.requests.completed"] == 24
    flushes = sum(
        value
        for name, value in snapshot["counters"].items()
        if name.startswith("serving.batch.flushes")
    )
    assert flushes == service.batches
    assert "serving.batch.predict_seconds" in snapshot["timers"]
    telemetry.validate_snapshot(snapshot)


def test_stats_stay_available_with_telemetry_disabled(fitted_lookhd, queries):
    async def drive():
        async with InferenceService(
            one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=4, max_wait_ms=20.0)
        ) as service:
            await asyncio.gather(*(service.predict(row) for row in queries[:12]))
            return service.request_stats()

    assert not telemetry.is_enabled()
    stats = run(drive())
    assert stats["admitted"] == stats["completed"] == 12
    assert stats["dropped"] == 0
    assert stats["batches"] >= 1
