"""Microbatched serving layer over a fitted LookHD model.

Concurrent per-request traffic arrives one sample at a time, but the fused
lookup-domain kernels (:mod:`repro.lookhd.inference`) only pay off on
batches — the per-query cost is a handful of table gathers, so Python call
overhead dominates any single-sample path.  This package closes that gap:

* :class:`~repro.serving.service.InferenceService` — an asyncio
  microbatcher over a registry.  ``await service.predict(sample,
  tenant=...)`` enqueues the request on its tenant's queue; a collector
  task coalesces the queues into batches (flushing on ``max_batch`` or
  ``max_wait_ms``, round-robin across tenants), runs one fused batch
  predict inline on the event loop, and fans the results back out per
  request.  Admission control bounds the queue depth (and optionally each
  tenant's) and rejects with a typed
  :class:`~repro.serving.service.ServiceOverloadedError`.
* :class:`~repro.serving.registry.ModelRegistry` — named, versioned
  model fleet with atomic zero-downtime hot-swap and an LRU table-set
  cache under a byte budget; the service binds each batch to its
  tenant's current model at dispatch time.  One model is a one-tenant
  registry, published under ``InferenceService.DEFAULT_TENANT``.
* :class:`~repro.serving.server.ServingServer` — a newline-delimited-JSON
  TCP front end over the service (``repro serve``), with per-tenant
  routing and ``publish``/``list``/``evict`` admin ops for whatever it
  serves; ``pipelined=True`` allows any number of in-flight requests per
  connection with responses matched by ``id``.
* :class:`~repro.serving.shard.ShardedServer` — horizontal scale-out
  (``repro serve --shards N``): one acceptor routing the same protocol
  across N shard processes by CRC32 tenant affinity.  Each tenant lives
  on its owner shard alone, which loads, scrubs and serves it;
  ``publish``/``evict`` go to that owner, ``list`` merges the shards'
  registries, and shard death is answered by supervised respawn +
  in-flight replay.
* :mod:`~repro.serving.loadgen` — one load-generation pipeline
  (``repro loadgen [--open-loop]``): fit, save and reload the tenants,
  time the sequential oracle, then drive one ``send(index)`` coroutine
  into the in-process service or the sharded server.  The closed-loop
  driver measures the microbatching speedup with warmup-excluded steady
  throughput; the open-loop driver replays a seeded arrival schedule for
  coordinated-omission-safe latency percentiles.  Both share the
  overloaded retry and one halfway hook (hot-swap or chaos kill) and
  write a schema-validated ``BENCH_serving.json``.

Correctness contract: because every batch row is scored independently by
the fused engine (per-row gather + sum, identical float summation order),
a microbatched prediction is **bit-identical** to a single-request
``LookHDClassifier.predict`` — the load generator asserts this on every
run, and the service relies on the library-wide single-query/batch
``int64`` return contract.
"""

from repro.serving.loadgen import (
    DEFAULT_SERVING_WORKLOADS,
    SCENARIOS,
    LoadgenConfig,
    fleet_config,
    run_loadgen,
    throughput_timeline,
    write_serving_file,
)
from repro.serving.registry import ModelRecord, ModelRegistry, UnknownTenantError
from repro.serving.schema import MODES, SERVING_SCHEMA_VERSION, validate_serving_payload
from repro.serving.server import ServingServer
from repro.serving.shard import PipelinedClient, ShardedServer, shard_for
from repro.serving.service import (
    FLUSH_DRAIN,
    FLUSH_MAX_BATCH,
    FLUSH_MAX_WAIT,
    FLUSH_UPDATE,
    InferenceService,
    MicrobatchConfig,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
    TenantOverloadedError,
    UpdateNotSupportedError,
)

__all__ = [
    "DEFAULT_SERVING_WORKLOADS",
    "FLUSH_DRAIN",
    "FLUSH_MAX_BATCH",
    "FLUSH_MAX_WAIT",
    "FLUSH_UPDATE",
    "InferenceService",
    "LoadgenConfig",
    "MODES",
    "MicrobatchConfig",
    "ModelRecord",
    "ModelRegistry",
    "PipelinedClient",
    "SCENARIOS",
    "SERVING_SCHEMA_VERSION",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServingError",
    "ServingServer",
    "ShardedServer",
    "TenantOverloadedError",
    "UnknownTenantError",
    "UpdateNotSupportedError",
    "fleet_config",
    "run_loadgen",
    "shard_for",
    "throughput_timeline",
    "validate_serving_payload",
    "write_serving_file",
]
