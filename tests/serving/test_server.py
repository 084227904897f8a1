"""TCP front-end round trips: JSON-lines protocol, typed error responses."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serving import InferenceService, MicrobatchConfig, ServingServer
from tests.serving.helpers import one_tenant


async def _request(reader, writer, payload) -> dict:
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


def test_server_round_trip_matches_predict(fitted_lookhd, small_dataset):
    queries = np.asarray(small_dataset.test_features, dtype=np.float64)[:8]
    expected = fitted_lookhd.predict(queries)

    async def drive():
        service = InferenceService(
            one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=4, max_wait_ms=5.0)
        )
        async with ServingServer(service, port=0) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            responses = [
                await _request(
                    reader, writer, {"id": i, "features": queries[i].tolist()}
                )
                for i in range(queries.shape[0])
            ]
            writer.close()
            await writer.wait_closed()
        return responses

    responses = asyncio.run(drive())
    assert [r["id"] for r in responses] == list(range(8))
    np.testing.assert_array_equal(
        np.asarray([r["prediction"] for r in responses]), expected
    )


def test_server_error_responses_keep_connection_open(fitted_lookhd, small_dataset):
    query = np.asarray(small_dataset.test_features, dtype=np.float64)[0]

    async def drive():
        service = InferenceService(
            one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=4, max_wait_ms=5.0)
        )
        async with ServingServer(service, port=0) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # Malformed JSON, wrong shape, NaN features, missing key — each
            # answered with error "invalid", none of them kill the session.
            writer.write(b"this is not json\n")
            await writer.drain()
            broken = json.loads(await reader.readline())
            short = await _request(
                reader, writer, {"id": 1, "features": query[:-1].tolist()}
            )
            nan_row = query.tolist()
            nan_row[0] = float("nan")
            not_finite = await _request(
                reader, writer, {"id": 2, "features": nan_row}
            )
            no_features = await _request(reader, writer, {"id": 3})
            ok = await _request(
                reader, writer, {"id": 4, "features": query.tolist()}
            )
            writer.close()
            await writer.wait_closed()
        return broken, short, not_finite, no_features, ok

    broken, short, not_finite, no_features, ok = asyncio.run(drive())
    assert broken["error"] == "invalid"
    assert short["error"] == "invalid" and short["id"] == 1
    assert not_finite["error"] == "invalid" and "non-finite" in not_finite["detail"]
    assert no_features["error"] == "invalid" and no_features["id"] == 3
    assert ok["prediction"] == int(fitted_lookhd.predict(query))


def test_server_reports_closed_service(fitted_lookhd, small_dataset):
    query = np.asarray(small_dataset.test_features, dtype=np.float64)[0]

    async def drive():
        service = InferenceService(one_tenant(fitted_lookhd))
        server = ServingServer(service, port=0)
        await server.start()
        port = server.port
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        # Stop only the microbatcher; the TCP listener still answers and
        # must translate the typed error.
        await service.stop()
        response = await _request(
            reader, writer, {"id": 0, "features": query.tolist()}
        )
        writer.close()
        await writer.wait_closed()
        await server.stop()
        return response

    response = asyncio.run(drive())
    assert response["error"] == "closed"


def test_port_property_requires_start(fitted_lookhd):
    server = ServingServer(InferenceService(one_tenant(fitted_lookhd)))
    with pytest.raises(RuntimeError, match="not started"):
        server.port


class TestFleetProtocol:
    """Tenant routing + admin ops over a registry-backed service."""

    @pytest.fixture
    def registry(self, fitted_lookhd):
        from repro.serving import ModelRegistry

        fleet = ModelRegistry()
        fleet.publish("edge-7", fitted_lookhd)
        return fleet

    def test_tenant_predict_and_x_alias(self, registry, fitted_lookhd, small_dataset):
        query = np.asarray(small_dataset.test_features, dtype=np.float64)[0]
        expected = int(fitted_lookhd.predict(query))

        async def drive():
            service = InferenceService(
                registry=registry, config=MicrobatchConfig(max_wait_ms=5.0)
            )
            async with ServingServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                verbose = await _request(
                    reader,
                    writer,
                    {"id": 0, "op": "predict", "tenant": "edge-7",
                     "features": query.tolist()},
                )
                compact = await _request(
                    reader, writer, {"id": 1, "tenant": "edge-7", "x": query.tolist()}
                )
                unknown = await _request(
                    reader, writer, {"id": 2, "tenant": "ghost", "x": query.tolist()}
                )
                bad_tenant = await _request(
                    reader, writer, {"id": 3, "tenant": 7, "x": query.tolist()}
                )
                writer.close()
                await writer.wait_closed()
            return verbose, compact, unknown, bad_tenant

        verbose, compact, unknown, bad_tenant = asyncio.run(drive())
        assert verbose == {"id": 0, "prediction": expected, "tenant": "edge-7"}
        assert compact == {"id": 1, "prediction": expected, "tenant": "edge-7"}
        assert unknown["error"] == "unknown_tenant" and "edge-7" in unknown["detail"]
        assert bad_tenant["error"] == "invalid"

    def test_admin_ops_publish_list_evict(
        self, registry, fitted_lookhd, small_dataset, tmp_path
    ):
        from repro.lookhd.persistence import save_classifier

        query = np.asarray(small_dataset.test_features, dtype=np.float64)[0]
        expected = int(fitted_lookhd.predict(query))
        model_path = str(save_classifier(fitted_lookhd, tmp_path / "edge7.npz"))

        async def drive():
            service = InferenceService(
                registry=registry, config=MicrobatchConfig(max_wait_ms=5.0)
            )
            async with ServingServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                listed = await _request(reader, writer, {"id": 0, "op": "list"})
                published = await _request(
                    reader,
                    writer,
                    {"id": 1, "op": "publish", "tenant": "edge-7",
                     "path": model_path},
                )
                served = await _request(
                    reader, writer, {"id": 2, "tenant": "edge-7", "x": query.tolist()}
                )
                evicted = await _request(
                    reader, writer, {"id": 3, "op": "evict", "tenant": "edge-7"}
                )
                # An evicted tenant still serves (lazy rebuild, bit-identical).
                after_evict = await _request(
                    reader, writer, {"id": 4, "tenant": "edge-7", "x": query.tolist()}
                )
                bad_path = await _request(
                    reader,
                    writer,
                    {"id": 5, "op": "publish", "tenant": "edge-7",
                     "path": str(tmp_path / "missing.npz")},
                )
                health = await _request(reader, writer, {"id": 6, "op": "health"})
                writer.close()
                await writer.wait_closed()
            return listed, published, served, evicted, after_evict, bad_path, health

        listed, published, served, evicted, after_evict, bad_path, health = (
            asyncio.run(drive())
        )
        assert listed["fleet"]["tenants"]["edge-7"]["version"] == 1
        assert published["tenant"] == "edge-7" and published["version"] == 2
        assert published["bound"] is True and published["table_bytes"] > 0
        assert served["prediction"] == expected  # same artifact: bit-identical
        assert evicted == {"id": 3, "tenant": "edge-7", "released": True}
        assert after_evict["prediction"] == expected
        assert bad_path["error"] == "invalid"
        assert health["fleet"]["tenants"]["edge-7"]["version"] == 2
        assert health["fleet"]["publishes"] == 2

    def test_admin_ops_require_registry(self, fitted_lookhd):
        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_wait_ms=5.0)
            )
            async with ServingServer(service, port=0) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                response = await _request(reader, writer, {"id": 0, "op": "list"})
                unknown_op = await _request(reader, writer, {"id": 1, "op": "dance"})
                writer.close()
                await writer.wait_closed()
            return response, unknown_op

        response, unknown_op = asyncio.run(drive())
        assert list(response["fleet"]["tenants"]) == [InferenceService.DEFAULT_TENANT]
        assert unknown_op["error"] == "invalid" and "dance" in unknown_op["detail"]


class TestGracefulDrain:
    """The ``repro serve`` SIGTERM path: stop accepting, answer every
    admitted request, and survive admin traffic issued mid-drain."""

    def test_sigterm_drains_in_flight_fleet_traffic(
        self, fitted_lookhd, small_dataset, tmp_path
    ):
        import os
        import signal

        from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
        from repro.lookhd.persistence import save_classifier
        from repro.serving import FLUSH_DRAIN, ModelRegistry

        other = LookHDClassifier(
            LookHDConfig(dim=512, levels=4, chunk_size=4, seed=11)
        )
        other.fit(small_dataset.train_features, small_dataset.train_labels)
        models = {"alpha": fitted_lookhd, "beta": other}
        queries = np.asarray(small_dataset.test_features, dtype=np.float64)[:6]
        expected = {t: clf.predict(queries) for t, clf in models.items()}
        # The mid-drain publish re-ships the same artifact, so tenant alpha
        # stays bit-identical no matter when the version flip lands
        # relative to the drain flush (dispatch-time binding).
        artifact = str(save_classifier(fitted_lookhd, tmp_path / "alpha_v2.npz"))

        async def drive():
            registry = ModelRegistry()
            for tenant, clf in models.items():
                registry.publish(tenant, clf)
            # max_wait far beyond the test horizon: every request is
            # admitted and *parks* — only the drain flush can answer it.
            service = InferenceService(
                registry=registry,
                config=MicrobatchConfig(max_batch=64, max_wait_ms=2_000.0),
            )
            server = await ServingServer(service, port=0).start()
            shutdown = asyncio.Event()
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, shutdown.set)  # CLI wiring
            try:
                async def one(tenant, row):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    try:
                        return await _request(
                            reader, writer, {"tenant": tenant, "x": row.tolist()}
                        )
                    finally:
                        writer.close()
                        await writer.wait_closed()

                tasks = [
                    asyncio.create_task(one(tenant, row))
                    for tenant in models
                    for row in queries
                ]
                deadline = loop.time() + 10.0
                while service.queue_depth < len(tasks):
                    assert loop.time() < deadline, "requests never queued"
                    await asyncio.sleep(0.01)

                admin = await asyncio.open_connection("127.0.0.1", server.port)
                os.kill(os.getpid(), signal.SIGTERM)
                await shutdown.wait()

                async def publish_mid_drain():
                    response = await _request(
                        admin[0], admin[1],
                        {"op": "publish", "tenant": "alpha", "path": artifact},
                    )
                    admin[1].close()
                    await admin[1].wait_closed()
                    return response

                _, published = await asyncio.gather(
                    server.stop(), publish_mid_drain()
                )
                responses = await asyncio.gather(*tasks)
                return responses, published, service
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        responses, published, service = asyncio.run(drive())
        # Every admitted request was answered with a real prediction —
        # the drain never drops, rejects, or errors in-flight traffic.
        by_tenant = {
            tenant: np.asarray(
                [r["prediction"] for r in responses if r.get("tenant") == tenant]
            )
            for tenant in ("alpha", "beta")
        }
        for tenant, values in by_tenant.items():
            np.testing.assert_array_equal(values, expected[tenant])
        assert all("error" not in r for r in responses)
        # The mid-drain publish went through atomically (v1 -> v2).
        assert published["tenant"] == "alpha" and published["version"] == 2
        stats = service.request_stats()
        assert stats["dropped"] == 0
        assert stats["completed"] == len(responses)
        # The parked batch was flushed by the drain itself, not by the
        # 2-second max_wait timer expiring mid-stop.
        assert FLUSH_DRAIN in service.flush_reasons
