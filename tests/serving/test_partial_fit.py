"""Live partial_fit through the service and TCP server.

The contract under test: updates ride the per-tenant FIFO and are
flushed alone by the single collector, so they are serialized against
predict flushes; eager validation rejects bad payloads before anything
queues; models without ``partial_fit`` fail fast with a typed error; and
an admitted update is always resolved — drain included.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.online import OnlineLookHD
from repro.serving import (
    FLUSH_UPDATE,
    InferenceService,
    MicrobatchConfig,
    ModelRegistry,
    ServingServer,
    UpdateNotSupportedError,
)
from tests.serving.helpers import one_tenant


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def encoder(small_dataset):
    clf = LookHDClassifier(LookHDConfig(dim=512, levels=4, chunk_size=4, seed=3))
    clf.fit(small_dataset.train_features[:40], small_dataset.train_labels[:40])
    return clf.encoder


@pytest.fixture
def online(small_dataset, encoder):
    learner = OnlineLookHD(encoder, small_dataset.n_classes)
    learner.partial_fit(
        small_dataset.train_features[:120], small_dataset.train_labels[:120]
    )
    return learner


@pytest.fixture
def queries(small_dataset):
    return np.asarray(small_dataset.test_features, dtype=np.float64)


class TestServicePartialFit:
    def test_update_applies_to_live_model(self, small_dataset, online):
        second_half = slice(120, 240)
        seen_before = online.samples_seen

        async def drive():
            async with InferenceService(one_tenant(online)) as service:
                return await service.partial_fit(
                    small_dataset.train_features[second_half],
                    small_dataset.train_labels[second_half],
                )

        applied = run(drive())
        assert applied == 120
        assert online.samples_seen == seen_before + 120

    def test_update_flushes_alone_and_is_counted(self, online, queries):
        async def drive():
            config = MicrobatchConfig(max_batch=16, max_wait_ms=20.0)
            async with InferenceService(one_tenant(online), config) as service:
                predicts = [
                    asyncio.ensure_future(service.predict(row))
                    for row in queries[:8]
                ]
                await service.partial_fit(
                    queries[:4], np.zeros(4, dtype=np.int64)
                )
                await asyncio.gather(*predicts)
                return service.request_stats(), dict(service.flush_reasons)

        stats, reasons = run(drive())
        assert stats["updates"] == 1
        assert stats["completed"] == 9  # 8 predicts + 1 update
        assert stats["dropped"] == 0
        assert reasons[FLUSH_UPDATE] == 1

    def test_fifo_serialization_predicts_see_committed_model(
        self, small_dataset, encoder, queries
    ):
        # Submit predict A, then the update, then predict B — in one event
        # loop tick, against a single-slot collector.  A must be answered by
        # the pre-update model and B by the post-update model.
        fresh = OnlineLookHD(encoder, small_dataset.n_classes)

        async def drive():
            config = MicrobatchConfig(max_batch=1, max_wait_ms=5.0)
            async with InferenceService(one_tenant(fresh), config) as service:
                before = asyncio.ensure_future(service.predict(queries[0]))
                update = asyncio.ensure_future(
                    service.partial_fit(
                        small_dataset.train_features, small_dataset.train_labels
                    )
                )
                after = asyncio.ensure_future(service.predict(queries[0]))
                return await asyncio.gather(before, update, after)

        before, applied, after = run(drive())
        assert applied == small_dataset.n_train
        # The untrained model is all-zero: every similarity ties at 0 and
        # argmax answers class 0.  The trained model answers the true class.
        assert before == 0
        assert after == fresh.predict(queries[0])

    def test_unsupported_model_fails_fast(self, fitted_lookhd, queries):
        async def drive():
            async with InferenceService(one_tenant(fitted_lookhd)) as service:
                with pytest.raises(UpdateNotSupportedError, match="LookHDClassifier"):
                    await service.partial_fit(
                        queries[:2], np.zeros(2, dtype=np.int64)
                    )
                # The failed admission must not leak into the counters.
                return service.request_stats()

        stats = run(drive())
        assert stats["updates"] == 0
        assert stats["admitted"] == 0

    def test_eager_validation_rejects_bad_payloads(self, online, queries):
        async def drive():
            async with InferenceService(one_tenant(online)) as service:
                with pytest.raises(ValueError, match="non-finite"):
                    poisoned = queries[:2].copy()
                    poisoned[0, 0] = np.nan
                    await service.partial_fit(poisoned, np.zeros(2, dtype=np.int64))
                with pytest.raises(ValueError, match="features per sample"):
                    await service.partial_fit(
                        queries[:2, :-1], np.zeros(2, dtype=np.int64)
                    )
                with pytest.raises(ValueError, match="align"):
                    await service.partial_fit(
                        queries[:3], np.zeros(2, dtype=np.int64)
                    )
                return service.request_stats()

        stats = run(drive())
        assert stats["admitted"] == 0

    def test_fleet_routes_update_to_tenant(self, small_dataset, encoder, queries):
        learners = {
            "adaptive": OnlineLookHD(encoder, small_dataset.n_classes),
            "static": OnlineLookHD(encoder, small_dataset.n_classes),
        }
        registry = ModelRegistry()
        for tenant, learner in learners.items():
            registry.publish(tenant, learner)

        async def drive():
            async with InferenceService(registry=registry) as service:
                applied = await service.partial_fit(
                    small_dataset.train_features[:50],
                    small_dataset.train_labels[:50],
                    tenant="adaptive",
                )
                return applied, {k: dict(v) for k, v in service.tenant_stats.items()}

        applied, stats = run(drive())
        assert applied == 50
        assert learners["adaptive"].samples_seen == 50
        assert learners["static"].samples_seen == 0
        assert stats["adaptive"]["updated"] == 1
        assert stats.get("static", {}).get("updated", 0) == 0

    def test_drain_resolves_pending_update(self, small_dataset, online):
        async def drive():
            config = MicrobatchConfig(max_batch=64, max_wait_ms=10_000.0)
            service = InferenceService(one_tenant(online), config)
            await service.start()
            pending = asyncio.ensure_future(
                service.partial_fit(
                    small_dataset.train_features[:10],
                    small_dataset.train_labels[:10],
                )
            )
            await asyncio.sleep(0)  # let the update enqueue
            await service.stop()
            applied = await pending
            return applied, service.request_stats()

        applied, stats = run(drive())
        assert applied == 10
        assert stats["dropped"] == 0


class TestServerPartialFit:
    async def _round_trip(self, server, payload):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        response = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        return response

    def _serve(self, classifier, payload, allow_partial_fit=True):
        async def drive():
            service = InferenceService(
                one_tenant(classifier), MicrobatchConfig(max_batch=8, max_wait_ms=5.0)
            )
            async with ServingServer(
                service, port=0, allow_partial_fit=allow_partial_fit
            ) as server:
                return await self._round_trip(server, payload)

        return run(drive())

    def test_update_over_the_wire(self, small_dataset, online):
        seen_before = online.samples_seen
        response = self._serve(
            online,
            {
                "id": 1,
                "op": "partial_fit",
                "features": small_dataset.train_features[:6].tolist(),
                "labels": small_dataset.train_labels[:6].tolist(),
            },
        )
        assert response == {"id": 1, "applied": 6}
        assert online.samples_seen == seen_before + 6

    def test_short_aliases_accepted(self, small_dataset, online):
        response = self._serve(
            online,
            {
                "op": "partial_fit",
                "x": small_dataset.train_features[:3].tolist(),
                "y": small_dataset.train_labels[:3].tolist(),
            },
        )
        assert response["applied"] == 3

    def test_gated_off_by_default(self, small_dataset, online):
        response = self._serve(
            online,
            {
                "op": "partial_fit",
                "features": small_dataset.train_features[:3].tolist(),
                "labels": small_dataset.train_labels[:3].tolist(),
            },
            allow_partial_fit=False,
        )
        assert response["error"] == "invalid"
        assert "disabled" in response["detail"]

    def test_unsupported_model_maps_to_typed_error(self, small_dataset, fitted_lookhd):
        response = self._serve(
            fitted_lookhd,
            {
                "op": "partial_fit",
                "features": small_dataset.train_features[:3].tolist(),
                "labels": small_dataset.train_labels[:3].tolist(),
            },
        )
        assert response["error"] == "unsupported"

    def test_missing_payload_pieces_rejected(self, small_dataset, online):
        no_labels = self._serve(
            online,
            {"op": "partial_fit", "features": small_dataset.train_features[:3].tolist()},
        )
        assert no_labels["error"] == "invalid"
        empty_features = self._serve(
            online, {"op": "partial_fit", "features": [], "labels": []}
        )
        assert empty_features["error"] == "invalid"
