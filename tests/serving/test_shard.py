"""Sharded serving: tenant affinity, owner-only admin ops, supervised respawn.

Process-spawning tests are kept small (two shards, tiny models saved once
per module) and every assertion that involves shard death goes through
the public recovery surface — acceptor counters, health incarnations,
and the answered responses themselves — not implementation internals.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal

import numpy as np
import pytest

from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.persistence import save_classifier
from repro.serving import (
    InferenceService,
    MicrobatchConfig,
    PipelinedClient,
    ServingServer,
    ShardedServer,
    shard_for,
)
from tests.serving.helpers import one_tenant


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for n_shards in (1, 2, 3, 8):
            for tenant in ("alpha", "beta", "edge-7", "default"):
                index = shard_for(tenant, n_shards)
                assert 0 <= index < n_shards
                assert index == shard_for(tenant, n_shards)

    def test_stable_across_processes(self):
        # CRC32, not salted hash(): the routing must survive interpreter
        # restarts, or a respawned acceptor would strand per-tenant FIFO.
        assert shard_for("alpha", 4) == 2
        assert shard_for("beta", 4) == 3

    def test_single_shard_takes_everything(self):
        assert shard_for("anything", 1) == 0


@pytest.fixture(scope="module")
def tenant_artifacts(small_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-models")
    artifacts = {}
    for tenant, seed in (("alpha", 3), ("beta", 11)):
        clf = LookHDClassifier(
            LookHDConfig(dim=512, levels=4, chunk_size=4, seed=seed)
        )
        clf.fit(small_dataset.train_features, small_dataset.train_labels)
        artifacts[tenant] = (clf, str(save_classifier(clf, root / f"{tenant}.npz")))
    return artifacts


@pytest.fixture
def queries(small_dataset):
    return np.asarray(small_dataset.test_features, dtype=np.float64)[:12]


def _models(tenant_artifacts):
    return [(tenant, path) for tenant, (_, path) in tenant_artifacts.items()]


async def _until(condition):
    while not condition():
        await asyncio.sleep(0.005)


class TestShardedServer:
    def test_predictions_match_direct_across_tenants(
        self, tenant_artifacts, queries
    ):
        expected = {
            tenant: clf.predict(queries)
            for tenant, (clf, _) in tenant_artifacts.items()
        }

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    # Interleave tenants so both shard links carry
                    # concurrent in-flight traffic.
                    responses = await asyncio.gather(*[
                        client.request(
                            {"op": "predict", "tenant": tenant, "x": row.tolist()}
                        )
                        for row in queries
                        for tenant in ("alpha", "beta")
                    ])
                    health = await server.health()
                stats = server.request_stats()
            return responses, health, stats

        responses, health, stats = asyncio.run(drive())
        for offset, tenant in ((0, "alpha"), (1, "beta")):
            got = np.asarray([r["prediction"] for r in responses[offset::2]])
            np.testing.assert_array_equal(got, expected[tenant])
        assert health["status"] == "ok"
        assert sorted(health["shards"]) == ["0", "1"]
        assert all(block["alive"] for block in health["shards"].values())
        assert stats["dropped"] == 0
        assert stats["failed"] == 0
        assert stats["answered"] == stats["forwarded"]
        assert stats["forwarded"] == 2 * len(queries)

    def test_owner_only_publish_evict_and_routing_errors(
        self, tenant_artifacts, queries
    ):
        _, alpha_path = tenant_artifacts["alpha"]
        owner = shard_for("alpha", 2)

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    published = await client.request(
                        {"op": "publish", "tenant": "alpha", "path": alpha_path}
                    )
                    health = await server.health()
                    listed = await client.request({"op": "list"})
                    served = await client.request(
                        {"op": "predict", "tenant": "alpha",
                         "x": queries[0].tolist()}
                    )
                    evicted = await client.request(
                        {"op": "evict", "tenant": "alpha"}
                    )
                    forwarded = server.request_stats()["forwarded"]
                    unknown = [
                        await client.request({"op": op, "tenant": "ghost", "x": x})
                        for op, x in (
                            ("predict", queries[0].tolist()),
                            ("partial_fit", [queries[0].tolist()]),
                            ("evict", None),
                        )
                    ]
                    unforwarded = server.request_stats()["forwarded"] == forwarded
                    invalid = await client.request({"op": "predict", "tenant": "alpha"})
            return published, health, listed, served, evicted, unknown, unforwarded, invalid

        published, health, listed, served, evicted, unknown, unforwarded, invalid = (
            asyncio.run(drive())
        )
        # Publish goes to the owner alone; the reply is the owner's own.
        assert published["tenant"] == "alpha" and published["version"] == 2
        assert published["shard"] == owner
        assert "shards" not in published
        other = health["shards"][str(1 - owner)]["fleet"]["tenants"]
        assert "alpha" not in other
        assert health["shards"][str(owner)]["fleet"]["tenants"]["alpha"]["version"] == 2
        tenants = listed["fleet"]["tenants"]
        assert sorted(tenants) == ["alpha", "beta"]
        assert tenants["alpha"]["version"] == 2 and tenants["beta"]["version"] == 1
        assert listed["n_shards"] == 2
        expected = int(tenant_artifacts["alpha"][0].predict(queries[0]))
        assert served["prediction"] == expected  # same artifact: bit-identical
        assert evicted["tenant"] == "alpha" and evicted["shard"] == owner
        assert "released" in evicted
        # The acceptor answers an unrecorded tenant itself, naming the
        # fleet, without forwarding it to any shard.
        for response in unknown:
            assert response["error"] == "unknown_tenant"
            assert "alpha" in response["detail"] and "beta" in response["detail"]
        assert unforwarded
        assert invalid["error"] == "invalid"

    def test_each_shard_holds_only_its_tenants(self, tenant_artifacts, queries):
        alpha_clf, _ = tenant_artifacts["alpha"]
        victim = shard_for("alpha", 2)
        owned = {
            str(index): sorted(t for t in tenant_artifacts if shard_for(t, 2) == index)
            for index in range(2)
        }

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                boot = await server.health()
                server.kill_shard(victim)
                await asyncio.wait_for(
                    _until(lambda: server.request_stats()["respawns"] >= 1), 30
                )
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    responses = await asyncio.gather(*[
                        client.request(
                            {"op": "predict", "tenant": "alpha", "x": row.tolist()}
                        )
                        for row in queries
                    ])
                respawned = await server.health()
            return boot, respawned, responses

        boot, respawned, responses = asyncio.run(drive())
        for health in (boot, respawned):
            held = {
                index: sorted(block["fleet"]["tenants"])
                for index, block in health["shards"].items()
            }
            assert held == owned
            assert sorted(health["fleet"]["tenants"]) == ["alpha", "beta"]
        assert respawned["shards"][str(victim)]["incarnation"] >= 1
        got = np.asarray([r["prediction"] for r in responses])
        np.testing.assert_array_equal(got, alpha_clf.predict(queries))

    def test_wire_publish_of_new_tenant_lands_on_its_owner(
        self, tenant_artifacts, small_dataset, queries, tmp_path
    ):
        gamma = LookHDClassifier(LookHDConfig(dim=512, levels=4, chunk_size=4, seed=23))
        gamma.fit(small_dataset.train_features, small_dataset.train_labels)
        path = str(save_classifier(gamma, tmp_path / "gamma.npz"))
        owner = shard_for("gamma", 2)

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    published = await client.request(
                        {"op": "publish", "tenant": "gamma", "path": path}
                    )
                    responses = await asyncio.gather(*[
                        client.request(
                            {"op": "predict", "tenant": "gamma", "x": row.tolist()}
                        )
                        for row in queries
                    ])
                health = await server.health()
                tenants = server.tenants()
            return published, responses, health, tenants

        published, responses, health, tenants = asyncio.run(drive())
        assert published["shard"] == owner and published["version"] == 1
        assert "gamma" in health["shards"][str(owner)]["fleet"]["tenants"]
        assert "gamma" not in health["shards"][str(1 - owner)]["fleet"]["tenants"]
        assert tenants == ["alpha", "beta", "gamma"]
        got = np.asarray([r["prediction"] for r in responses])
        np.testing.assert_array_equal(got, gamma.predict(queries))

    def test_shard_kill_replays_in_flight_requests(
        self, tenant_artifacts, queries
    ):
        alpha_clf, _ = tenant_artifacts["alpha"]
        victim = shard_for("alpha", 2)
        expected = alpha_clf.predict(queries)

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=20.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    tasks = [
                        asyncio.create_task(client.request(
                            {"op": "predict", "tenant": "alpha",
                             "x": row.tolist()}
                        ))
                        for row in queries
                    ]
                    # Kill the shard that owns tenant alpha while its
                    # requests are in flight: the supervisor respawns the
                    # slot and the acceptor replays everything pending.
                    await asyncio.sleep(0)
                    server.kill_shard(victim)
                    responses = await asyncio.gather(*tasks)
                    health = await server.health()
                stats = server.request_stats()
            return responses, health, stats

        responses, health, stats = asyncio.run(drive())
        got = np.asarray([r["prediction"] for r in responses])
        np.testing.assert_array_equal(got, expected)  # replay is idempotent
        assert stats["respawns"] >= 1
        assert stats["dropped"] == 0
        assert health["shards"][str(victim)]["incarnation"] >= 1
        assert health["shards"][str(victim)]["alive"] is True

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_stop_during_respawn_answers_waiting_requests(
        self, tenant_artifacts, queries
    ):
        # Requests that queue for a shard while it respawns must still be
        # answered when stop() lands before the respawn has finished: the
        # respawn completes inside the drain window and replays them.
        alpha_clf, _ = tenant_artifacts["alpha"]
        victim = shard_for("alpha", 2)
        expected = alpha_clf.predict(queries)

        async def drive():
            server = ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=20.0),
            )
            await server.start()
            try:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    server.kill_shard(victim)
                    await asyncio.wait_for(
                        _until(lambda: server.request_stats()["respawns"] >= 1), 30
                    )
                    # Hold the fresh shard before it reports ready, so the
                    # stop lands mid-respawn.
                    respawned = server._links[victim].process.pid
                    os.kill(respawned, signal.SIGSTOP)
                    tasks = [
                        asyncio.create_task(client.request(
                            {"op": "predict", "tenant": "alpha",
                             "x": row.tolist()}
                        ))
                        for row in queries
                    ]
                    await asyncio.wait_for(
                        _until(lambda: server.request_stats()["forwarded"] >= len(queries)),
                        30,
                    )
                    stopping = asyncio.create_task(server.stop())
                    await asyncio.sleep(1.0)
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(respawned, signal.SIGCONT)
                    responses = await asyncio.wait_for(asyncio.gather(*tasks), 30)
                await asyncio.wait_for(stopping, 30)
            finally:
                await server.stop()
            return responses, server.request_stats()

        responses, stats = asyncio.run(drive())
        got = np.asarray([r["prediction"] for r in responses])
        np.testing.assert_array_equal(got, expected)
        assert stats["dropped"] == 0 and stats["pending"] == 0

    def test_refused_connect_during_respawn_retries(
        self, tenant_artifacts, queries
    ):
        # A respawned shard that refuses the acceptor's connect (it died
        # after reporting its port) must cost one more respawn, not strand
        # the requests waiting for that shard.
        alpha_clf, _ = tenant_artifacts["alpha"]
        victim = shard_for("alpha", 2)
        expected = alpha_clf.predict(queries)

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                connect = server._connect
                refused = []

                async def refuse_once(link):
                    if not refused:
                        refused.append(link.index)
                        raise ConnectionRefusedError("shard gone after reporting")
                    await connect(link)

                server._connect = refuse_once
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    server.kill_shard(victim)
                    responses = await asyncio.wait_for(
                        asyncio.gather(*[
                            client.request(
                                {"op": "predict", "tenant": "alpha",
                                 "x": row.tolist()}
                            )
                            for row in queries
                        ]),
                        60,
                    )
                stats = server.request_stats()
            return responses, refused, stats

        responses, refused, stats = asyncio.run(drive())
        got = np.asarray([r["prediction"] for r in responses])
        np.testing.assert_array_equal(got, expected)
        assert refused == [victim]
        assert stats["respawns"] == 2
        assert stats["dropped"] == 0 and stats["failed"] == 0

    def test_dropped_link_replaces_a_live_shard(self, tenant_artifacts):
        # A link that drops while its shard lives on must not leave the
        # replaced incarnation running beside its successor.
        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                link = server._links[1]
                replaced = link.process
                link.writer.transport.abort()
                await asyncio.wait_for(
                    _until(
                        lambda: server.request_stats()["respawns"] == 1
                        and link.ready.is_set()
                    ),
                    30,
                )
                successor = link.process
            return replaced, successor

        replaced, successor = asyncio.run(drive())
        assert successor is not replaced
        assert not replaced.is_alive()
        assert not successor.is_alive()

    def test_each_shard_scrubs_exactly_the_tenants_it_owns(
        self, tenant_artifacts, small_dataset, tmp_path
    ):
        gamma = LookHDClassifier(LookHDConfig(dim=512, levels=4, chunk_size=4, seed=23))
        gamma.fit(small_dataset.train_features, small_dataset.train_labels)
        models = _models(tenant_artifacts) + [
            ("gamma", str(save_classifier(gamma, tmp_path / "gamma.npz")))
        ]
        owned = {
            str(index): sorted(tenant for tenant, _ in models if shard_for(tenant, 2) == index)
            for index in range(2)
        }
        assert all(owned.values()), owned  # both shards own a tenant

        async def health_of(scrub_interval):
            async with ShardedServer(
                models, n_shards=2, scrub_interval=scrub_interval
            ) as server:
                if not scrub_interval:
                    return await server.health()
                # One tick per owned tenant reaches every tenant once.
                for _ in range(1_000):
                    health = await server.health()
                    if all(
                        block["scrub"]["ticks"] >= len(owned[index])
                        for index, block in health["shards"].items()
                    ):
                        return health
                    await asyncio.sleep(0.02)
                raise AssertionError(f"shards never scrubbed every tenant: {health}")

        for index, block in asyncio.run(health_of(0.01))["shards"].items():
            assert block["scrub"]["blocks_verified"] > 0
            assert sorted(block["scrub"]["tenants"]) == owned[index]
        for block in asyncio.run(health_of(0))["shards"].values():
            assert block["scrub"] is None

    def test_constructor_validation(self, tenant_artifacts):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedServer(_models(tenant_artifacts), n_shards=0)
        with pytest.raises(ValueError, match="max_respawns"):
            ShardedServer(_models(tenant_artifacts), n_shards=1, max_respawns=-1)
        with pytest.raises(ValueError, match="scrub_interval"):
            ShardedServer(_models(tenant_artifacts), n_shards=1, scrub_interval=float("nan"))
        with pytest.raises(ValueError, match="tenant"):
            ShardedServer([("", "model.npz")], n_shards=1)
        with pytest.raises(ValueError, match="path"):
            ShardedServer([("alpha", "")], n_shards=1)


class TestPipelinedServerMode:
    def test_out_of_order_responses_matched_by_id(
        self, fitted_lookhd, queries
    ):
        expected = fitted_lookhd.predict(queries)

        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=4, max_wait_ms=2.0)
            )
            async with ServingServer(service, port=0, pipelined=True) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Burst every request down the single connection before
                # reading anything back — the sequential protocol would
                # deadlock-or-serialise here; pipelined mode answers all.
                for i, row in enumerate(queries):
                    writer.write(
                        (json.dumps({"id": i, "features": row.tolist()}) + "\n")
                        .encode()
                    )
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in queries
                ]
                writer.close()
                await writer.wait_closed()
            return responses

        responses = asyncio.run(drive())
        by_id = {r["id"]: r["prediction"] for r in responses}
        assert sorted(by_id) == list(range(len(queries)))
        np.testing.assert_array_equal(
            np.asarray([by_id[i] for i in range(len(queries))]), expected
        )

    def test_pipelined_client_round_trip(self, fitted_lookhd, queries):
        expected = fitted_lookhd.predict(queries)

        async def drive():
            service = InferenceService(
                one_tenant(fitted_lookhd), MicrobatchConfig(max_batch=4, max_wait_ms=2.0)
            )
            async with ServingServer(service, port=0, pipelined=True) as server:
                async with await PipelinedClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    responses = await asyncio.gather(*[
                        client.request({"features": row.tolist()})
                        for row in queries
                    ])
            return responses

        responses = asyncio.run(drive())
        np.testing.assert_array_equal(
            np.asarray([r["prediction"] for r in responses]), expected
        )
