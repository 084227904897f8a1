"""``online``: live learning beside reads in one in-process service.

Two ``OnlineLookHD`` tenants run on abrupt drifting streams with the
``StreamBenchConfig`` geometry (one stream seed per tenant).  Set-up
freezes each tenant's streaming quantizer and pre-trains its learner on
the first half of its stream.  An in-process ``InferenceService`` over a
``ModelRegistry`` then serves both tenants.

Timed window, fired by one scheduler loop: open-loop Poisson predicts at
2,000/s on the stream's second half, and one 50-sample ``partial_fit``
every 50 ms, alternating tenants.  The service flushes each update alone,
blocking its single collector, so a read-side gain that costs writes shows
here.  Predict latency is reported for the quietest block of 2,000
predicts: the median over all its predicts, and the median over its reads
behind a write (predicts due while an update was in flight).
Correctness: each live learner ends bit-identical to an offline replica
that applied the same update batches in the same order, and the service
drops nothing.
"""

from __future__ import annotations

import asyncio
import copy
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from perfbench.common import (
    Result,
    Tracer,
    frozen_gc,
    host_steal_seconds,
    latency_from_due,
    median,
    queue_wait,
    quietest_block,
    rows,
    rss_mb,
    within,
)
from perfbench.drive import poisson_offsets, run_schedule


#: Traced runs spend ``UNTRACED_SHARE`` of the window without spans, as
#: the reference for the tracing overhead; predicts per latency block (one
#: second at the full rate).
N_TENANTS = 2
UPDATE_PERIOD_S = 0.05
UPDATE_SIZE = 50
UNTRACED_SHARE = 0.3
BLOCK = 2_000


@dataclass(frozen=True)
class OnlineConfig:
    profile: str = "full"
    predict_rate: float = 2_000.0
    setups: int = 3


FULL = OnlineConfig()
SMOKE = OnlineConfig(profile="smoke", predict_rate=200.0, setups=1)


def _tenant(config: OnlineConfig, seed: int, index: int) -> dict:
    """One tenant's stream, frozen quantizer and pre-trained learner."""
    from repro.datasets.drift import drifting_stream
    from repro.hdc.item_memory import LevelItemMemory
    from repro.lookhd.chunking import ChunkLayout
    from repro.lookhd.encoder import LookupEncoder
    from repro.lookhd.lookup_table import ChunkLookupTable
    from repro.lookhd.online import OnlineLookHD
    from repro.streaming.bench import STREAM_PROFILES
    from repro.streaming.quantizer import StreamingQuantizer
    from repro.utils.rng import derive_rng

    stream = replace(STREAM_PROFILES[config.profile], seed=seed * N_TENANTS + index)
    batches = drifting_stream(
        stream.spec(),
        n_batches=stream.n_batches,
        batch_size=stream.batch_size,
        drift_magnitude=stream.drift_magnitude,
        abrupt=True,
    )
    half = len(batches) // 2
    quantizer = StreamingQuantizer(stream.levels, sketch_capacity=stream.sketch_capacity)
    for batch in batches[:half]:
        quantizer.partial_fit(batch.features)
    quantizer.freeze()
    encoder = LookupEncoder(
        quantizer,
        ChunkLookupTable(
            LevelItemMemory(
                stream.levels, stream.dim, rng=derive_rng(stream.seed, "lookhd-levels")
            ),
            stream.chunk_size,
        ),
        ChunkLayout(stream.n_features, stream.chunk_size),
        seed=derive_rng(stream.seed, "lookhd-positions"),
    )
    learner = OnlineLookHD(encoder, stream.n_classes, decay=stream.decay, window=stream.window)
    for batch in batches[:half]:
        learner.partial_fit(batch.features, batch.labels)
    later = batches[half:]
    features = np.concatenate([batch.features for batch in later])
    labels = np.concatenate([batch.labels for batch in later])
    n_updates = features.shape[0] // UPDATE_SIZE
    return {
        "learner": learner,
        "pool": features,
        "updates": [
            (
                features[k * UPDATE_SIZE : (k + 1) * UPDATE_SIZE],
                labels[k * UPDATE_SIZE : (k + 1) * UPDATE_SIZE],
            )
            for k in range(n_updates)
        ],
    }


def _plan(config: OnlineConfig, seed: int, tenants: dict, seconds: float) -> dict:
    """Merged schedule of predicts (Poisson) and updates (fixed period)."""
    rng = np.random.default_rng([seed, 0x0B11E])
    names = sorted(tenants)
    predicts = poisson_offsets(int(config.predict_rate * seconds * 1.5) + 10, config.predict_rate, rng)
    predicts = predicts[predicts < seconds]
    predict_tenant = rng.integers(0, len(names), size=predicts.shape[0])
    sizes = np.array([tenants[name]["pool"].shape[0] for name in names])
    predict_row = rng.integers(0, sizes[predict_tenant])
    updates = np.arange(1, int(seconds / UPDATE_PERIOD_S)) * UPDATE_PERIOD_S
    update_tenant = np.arange(updates.shape[0]) % len(names)
    offsets = np.concatenate([predicts, updates])
    order = np.argsort(offsets, kind="stable")
    return {
        "names": names,
        "offsets": offsets[order],
        "is_update": (np.arange(offsets.shape[0]) >= predicts.shape[0])[order],
        "ref": np.concatenate([np.arange(predicts.shape[0]), np.arange(updates.shape[0])])[order],
        "predict_tenant": predict_tenant,
        "predict_row": predict_row,
        "update_tenant": update_tenant,
    }


class _Window:
    """Due and completion times of one schedule's operations."""

    def __init__(self, plan: dict):
        n_predicts = plan["predict_tenant"].shape[0]
        n_updates = plan["update_tenant"].shape[0]
        self.predict_due = np.zeros(n_predicts)
        self.predict_done = np.zeros(n_predicts)
        self.update_due = np.zeros(n_updates)
        self.update_done = np.zeros(n_updates)
        self.failed = 0
        self.lag = 0.0
        self.cpu = 0.0
        self.steal_share = 0.0


async def _serve(plans, tenants, service, applied, tracer=None) -> list[_Window]:
    """Run each plan in turn against the service; ``applied`` logs updates.

    With a tracer, only the last plan runs with spans recorded.
    """
    loop = asyncio.get_running_loop()
    windows = []
    for index, plan in enumerate(plans):
        if tracer is not None:
            tracer.enabled = index == len(plans) - 1
        window = _Window(plan)
        names = plan["names"]
        pending: set[asyncio.Task] = set()
        counters = {name: len(applied[name]) for name in names}

        def finished(done, index, task, window=window):
            done[index] = time.perf_counter()
            pending.discard(task)
            if task.cancelled() or task.exception() is not None:
                window.failed += 1

        def fire(i, due_time, plan=plan, window=window):
            ref = int(plan["ref"][i])
            if plan["is_update"][i]:
                tenant = names[plan["update_tenant"][ref]]
                updates = tenants[tenant]["updates"]
                batch = updates[counters[tenant] % len(updates)]
                counters[tenant] += 1
                applied[tenant].append(batch)
                window.update_due[ref] = due_time
                task = loop.create_task(service.partial_fit(*batch, tenant=tenant))
                task.add_done_callback(lambda t, r=ref: finished(window.update_done, r, t))
            else:
                tenant = names[plan["predict_tenant"][ref]]
                row = tenants[tenant]["pool"][plan["predict_row"][ref]]
                window.predict_due[ref] = due_time
                task = loop.create_task(service.predict(row, tenant=tenant))
                task.add_done_callback(lambda t, r=ref: finished(window.predict_done, r, t))
            pending.add(task)

        with frozen_gc():
            cpu_start, steal_start = time.process_time(), host_steal_seconds()
            wall_start = time.perf_counter()
            _, window.lag = await run_schedule(plan["offsets"], fire)
            # Only the few still in flight: gathering finished tasks would
            # queue one callback each ahead of the last completions.
            await asyncio.gather(*pending, return_exceptions=True)
            window.cpu = time.process_time() - cpu_start
            window.steal_share = (host_steal_seconds() - steal_start) / (
                (time.perf_counter() - wall_start) * os.cpu_count()
            )
        windows.append(window)
    return windows


def _instrument(tracer: Tracer, owner: dict) -> None:
    from repro.lookhd.encoder import LookupEncoder
    from repro.lookhd.online import OnlineLookHD
    from repro.serving.service import InferenceService

    tracer.wrap(OnlineLookHD, "partial_fit", "lookhd.online.partial_fit", size=rows)
    tracer.wrap(
        OnlineLookHD, "predict", "lookhd.online.predict", size=rows, key=lambda a, k: owner[id(a[0])]
    )
    tracer.wrap(LookupEncoder, "encode", "lookhd.encoder.encode", size=rows)
    tracer.wrap(
        InferenceService, "predict", "serving.service.predict", key=lambda a, k: k["tenant"]
    )


def _per_unit(tracer: Tracer, name: str) -> float:
    spans = tracer.named(name)
    return 1e6 * sum(s.duration for s in spans) / max(1, sum(s.size for s in spans))


def run(seed: int, seconds: float, trace: bool, config: OnlineConfig = FULL) -> Result:
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import InferenceService

    setup_times = []
    for _ in range(config.setups):
        start = time.perf_counter()
        tenants = {f"tenant-{i}": _tenant(config, seed, i) for i in range(N_TENANTS)}
        setup_times.append(time.perf_counter() - start)
    replicas = {name: copy.deepcopy(t["learner"]) for name, t in tenants.items()}

    tracer = Tracer() if trace else None
    if tracer is not None:
        _instrument(tracer, {id(t["learner"]): name for name, t in tenants.items()})
        reference = seconds * UNTRACED_SHARE
        plans = [
            _plan(config, seed, tenants, reference),
            _plan(config, seed + 1, tenants, seconds - reference),
        ]
    else:
        plans = [_plan(config, seed, tenants, seconds)]

    registry = ModelRegistry()
    for name, tenant in tenants.items():
        registry.publish(name, tenant["learner"])
    applied = {name: [] for name in tenants}

    async def serve():
        service = InferenceService(registry=registry)
        async with service:
            windows = await _serve(plans, tenants, service, applied, tracer)
        return service, windows

    try:
        service, windows = asyncio.run(serve())
    finally:
        if tracer is not None:
            tracer.restore()

    rss = rss_mb(os.getpid())
    for name, batches in applied.items():
        for features, labels in batches:
            replicas[name].partial_fit(features, labels)
    stats = service.request_stats()
    checks = {
        "live_equals_replica": all(
            np.array_equal(
                tenants[name]["learner"].class_model().class_vectors,
                replicas[name].class_model().class_vectors,
            )
            for name in tenants
        ),
        "dropped": stats["dropped"],
        "updates_applied": stats["updates"],
    }
    failed = sum(window.failed for window in windows)
    correct = checks["live_equals_replica"] and stats["dropped"] == 0 and failed == 0
    attempted = sum(w.predict_due.shape[0] + w.update_due.shape[0] for w in windows)

    measured = windows[-1]
    predict_latency = latency_from_due(measured.predict_due, measured.predict_done)
    update_latency = latency_from_due(measured.update_due, measured.update_done)
    behind_write = within(measured.predict_due, measured.update_due, measured.update_done)
    cpu_per_req = [1e6 * w.cpu / w.predict_due.shape[0] for w in windows]
    update_ms = 1e3 * median(update_latency)
    if not trace:
        metrics = {
            "setup_s": median(setup_times),
            "p50_ms": 1e3 * quietest_block(predict_latency, BLOCK, 50),
            "slow_ms": 1e3 * quietest_block(predict_latency, BLOCK, 50, among=behind_write),
            "rate_per_s": UPDATE_SIZE / (update_ms / 1e3),
            "cpu_us_per_op": cpu_per_req[-1],
            "rss_mb": rss,
        }
    else:
        predicts = stats["completed"] - stats["updates"]
        metrics = {
            "lookhd.online.update_us_per_sample": _per_unit(tracer, "lookhd.online.partial_fit"),
            "lookhd.online.predict_us_per_query": _per_unit(tracer, "lookhd.online.predict"),
            "lookhd.encoder.encode_us_per_row": _per_unit(tracer, "lookhd.encoder.encode"),
            "lookhd.encoder.prebound_mb": float(
                np.mean([t["learner"].encoder.prebound_bytes_held() for t in tenants.values()])
            )
            / 2**20,
            "serving.service.queue_wait_ms": 1e3
            * queue_wait(tracer, "serving.service.predict", "lookhd.online.predict"),
            "serving.service.update_flushes": service.flush_reasons.get("update", 0),
            "serving.service.batch_mean": predicts / (stats["batches"] - stats["updates"]),
            "serving.service.peak_queue": stats["peak_queue_depth"],
            "loadgen.max_lag_ms": 1e3 * max(w.lag for w in windows),
            "trace.overhead": cpu_per_req[-1] / cpu_per_req[0],
        }
    summary = {
        "setup_s": (median(setup_times), "s"),
        "p50_ms": (1e3 * float(np.percentile(predict_latency, 50)), "ms"),
        "p99_ms": (1e3 * float(np.percentile(predict_latency, 99)), "ms"),
        "behind_write_ms": (1e3 * float(np.median(predict_latency[behind_write])), "ms"),
        "behind_write_share": (float(behind_write.mean()), "ratio"),
        "update_ms": (update_ms, "ms"),
        "cpu_us_per_req": (cpu_per_req[-1], "us"),
        "rss_mb": (rss, "MB"),
        "predicts": (measured.predict_due.shape[0], "count"),
        "updates": (measured.update_due.shape[0], "count"),
        "max_lag_ms": (1e3 * max(w.lag for w in windows), "ms"),
        "host_steal_share": (measured.steal_share, "ratio"),
    }
    return Result(correct, attempted, failed, metrics, summary, checks)
