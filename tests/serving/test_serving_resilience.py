"""Serving resilience: deadlines, health probe, disconnect accounting."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.resilience import DeadlineExceededError
from repro.serving import InferenceService, MicrobatchConfig, ServingServer
from tests.serving.helpers import one_tenant


async def _request(reader, writer, payload) -> dict:
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


class TestDeadlines:
    def test_config_validates_deadline(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            MicrobatchConfig(deadline_ms=0.0)
        assert MicrobatchConfig(deadline_ms=5.0).deadline_ms == 5.0

    def test_expired_request_fails_typed_before_the_model(
        self, fitted_lookhd, small_dataset
    ):
        sample = np.asarray(small_dataset.test_features[0], dtype=np.float64)

        async def drive():
            # max_wait holds the batch long past the deadline, so expiry at
            # flush time is deterministic.
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=64, max_wait_ms=30.0)
            )
            async with service:
                with pytest.raises(DeadlineExceededError) as excinfo:
                    await service.predict(sample, deadline_ms=0.01)
            assert excinfo.value.budget_seconds == pytest.approx(0.01 / 1_000)
            return service

        service = asyncio.run(drive())
        assert service.expired == 1
        assert service.batches == 0  # the model never ran
        stats = service.request_stats()
        assert stats["expired"] == 1
        assert stats["dropped"] == 0

    def test_config_default_deadline_applies(self, fitted_lookhd, small_dataset):
        sample = np.asarray(small_dataset.test_features[0], dtype=np.float64)

        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd),
                MicrobatchConfig(max_batch=64, max_wait_ms=30.0, deadline_ms=0.01),
            )
            async with service:
                with pytest.raises(DeadlineExceededError):
                    await service.predict(sample)

        asyncio.run(drive())

    def test_generous_deadline_answers_normally(self, fitted_lookhd, small_dataset):
        sample = np.asarray(small_dataset.test_features[0], dtype=np.float64)
        expected = fitted_lookhd.predict(sample[np.newaxis, :])[0]

        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=4, max_wait_ms=1.0)
            )
            async with service:
                return await service.predict(sample, deadline_ms=10_000.0)

        assert asyncio.run(drive()) == expected

    def test_invalid_per_request_deadline_rejected(self, fitted_lookhd, small_dataset):
        sample = np.asarray(small_dataset.test_features[0], dtype=np.float64)

        async def drive():
            service = InferenceService(one_tenant(fitted_lookhd), MicrobatchConfig())
            async with service:
                with pytest.raises(ValueError, match="deadline_ms"):
                    await service.predict(sample, deadline_ms=-1.0)

        asyncio.run(drive())

    def test_wire_deadline_maps_to_error_code(self, fitted_lookhd, small_dataset):
        features = list(map(float, small_dataset.test_features[0]))

        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=64, max_wait_ms=30.0)
            )
            async with ServingServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                response = await _request(
                    reader,
                    writer,
                    {"id": 1, "features": features, "deadline_ms": 0.01},
                )
                writer.close()
                return response

        response = asyncio.run(drive())
        assert response["error"] == "deadline"
        assert "deadline" in response["detail"]


class TestHealthProbe:
    def test_health_without_scrubber(self, fitted_lookhd, small_dataset):
        features = list(map(float, small_dataset.test_features[0]))

        async def drive():
            service = InferenceService(one_tenant(fitted_lookhd), MicrobatchConfig())
            async with ServingServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await _request(reader, writer, {"id": 1, "features": features})
                health = await _request(reader, writer, {"id": 2, "op": "health"})
                writer.close()
                return health

        health = asyncio.run(drive())
        assert health["status"] == "ok"
        assert health["running"] is True
        assert health["scrub"] is None
        assert health["requests"]["completed"] == 1
        assert health["requests"]["dropped"] == 0

    def test_health_reports_scrub_status(self, fitted_lookhd):
        async def drive():
            service = InferenceService(one_tenant(fitted_lookhd), MicrobatchConfig())
            server = ServingServer(service, port=0, scrub_interval=0.005)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for _ in range(200):
                    health = await _request(reader, writer, {"op": "health"})
                    if health["scrub"]["ticks"] > 0:
                        break
                    await asyncio.sleep(0.01)
                writer.close()
                return health

        health = asyncio.run(drive())
        assert health["scrub"]["ticks"] > 0
        assert health["scrub"]["enabled"] is True
        assert list(health["scrub"]["tenants"]) == [InferenceService.DEFAULT_TENANT]
        assert health["status"] == "ok"

    def test_scrub_interval_validated(self, fitted_lookhd):
        # 0 means "do not scrub"; only a negative interval is invalid.
        service = InferenceService(one_tenant(fitted_lookhd), MicrobatchConfig())
        assert ServingServer(service, scrub_interval=0.0).scrubber is None
        with pytest.raises(ValueError, match="scrub_interval"):
            ServingServer(service, scrub_interval=-1.0)


class TestDisconnect:
    def test_disconnect_mid_request_accounted_service_drains(
        self, fitted_lookhd, small_dataset
    ):
        features = list(map(float, small_dataset.test_features[0]))

        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=8, max_wait_ms=5.0)
            )
            async with ServingServer(service, port=0) as server:
                # Fire a request and hang up before the batch flushes.
                _, rude_writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                rude_writer.write(
                    (json.dumps({"id": 1, "features": features}) + "\n").encode()
                )
                await rude_writer.drain()
                rude_writer.close()
                await asyncio.sleep(0.1)
                # The service is undisturbed: a polite client still gets
                # answers and the accounting balances.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                response = await _request(
                    reader, writer, {"id": 2, "features": features}
                )
                health = await _request(reader, writer, {"op": "health"})
                writer.close()
                return response, health

        response, health = asyncio.run(drive())
        assert "prediction" in response
        assert health["cancelled"] == 1
        assert health["requests"]["dropped"] == 0
