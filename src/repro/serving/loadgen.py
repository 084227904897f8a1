"""Closed- and open-loop load generators for the serving layer.

Measures the quantity the serving layer exists to deliver — end-to-end
throughput under concurrent per-request traffic — against the honest
baseline: a sequential loop issuing the same requests one at a time
through the same fused single-request ``predict`` (so the speedup isolates
*microbatching*, not fused-vs-reference kernels, which ``repro bench``
already covers).

Two traffic models, because they answer different questions:

* **Closed loop** (default): ``concurrency`` workers each hold at most
  one request in flight and issue the next the moment the previous
  answer lands.  Right for the throughput-vs-sequential speedup gate,
  but self-throttling: when the service stalls, the generator stalls
  with it, so latency percentiles describe only the requests the
  generator *dared to send*.  The headline rps additionally excludes
  the warmup bucket (:func:`throughput_timeline`) so cold-start ramp
  cannot skew it.

* **Open loop** (``mode="open"``): requests arrive on a fixed seeded
  schedule (exponential inter-arrivals at the offered rate) whether or
  not earlier requests completed.  Each latency is measured from the
  request's *intended* arrival time — not from when a backlogged sender
  actually wrote it — which is what makes the percentiles immune to
  coordinated omission: a stall inflates the latencies of every request
  scheduled during it, exactly as real clients would experience.  Open
  loop is also the mode that drives the sharded server
  (:class:`~repro.serving.shard.ShardedServer`), including the optional
  mid-run chaos kill whose recovery gates the artifact.

Every run is also a correctness gate: the sequential pass doubles as the
bit-identical oracle (``checks.predictions_match_single``; sharded runs
rebuild it from the *same saved artifacts* the shards serve, closing the
persistence round-trip), and the request accounting must balance
(``checks.zero_dropped``).  The payload is schema-validated
(:mod:`repro.serving.schema`) before it is written to
``BENCH_serving.json``.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.bench.workloads import BenchWorkload
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.persistence import load_classifier, save_classifier
from repro.serving.registry import ModelRegistry
from repro.serving.schema import MODES, SERVING_SCHEMA_VERSION, validate_serving_payload
from repro.serving.service import (
    InferenceService,
    MicrobatchConfig,
    ServiceOverloadedError,
)
from repro.serving.shard import PipelinedClient, ShardedServer, shard_for
from repro.utils.artifact import environment, write_artifact
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

#: Tenant-mix scenarios for fleet runs.  ``uniform`` spreads requests
#: evenly; ``heavy_tailed`` draws tenants from a zipf-like 1/rank^1.5
#: distribution (one hot tenant, a long cold tail); ``bursty`` assigns
#: geometric-length runs of consecutive requests to one tenant at a time
#: (the back-to-back burst pattern that stresses per-tenant fairness);
#: ``mixed`` concatenates one third of each.
SCENARIOS = ("uniform", "heavy_tailed", "bursty", "mixed")

#: Serving workload profiles.  ``full`` is the acceptance-gate geometry —
#: the paper's efficiency configuration (D=2000, q=4, r=5) — and ``smoke``
#: a CI-sized run exercising the same code paths in under a second.
DEFAULT_SERVING_WORKLOADS = {
    "full": BenchWorkload(
        name="serving_d2000_q4_k13",
        dim=2000,
        levels=4,
        chunk_size=5,
        n_features=100,
        n_classes=13,
        n_train=1500,
        n_test=512,
    ),
    "smoke": BenchWorkload(
        name="serving_smoke_d256_q4_k5",
        dim=256,
        levels=4,
        chunk_size=4,
        n_features=20,
        n_classes=5,
        n_train=200,
        n_test=120,
    ),
}


@dataclass(frozen=True)
class LoadgenConfig:
    """Traffic shape plus the service knobs under test.

    ``n_tenants > 1`` switches the run into fleet mode: ``n_tenants``
    independently-fitted models (same geometry, per-tenant seeds) are
    published into a :class:`~repro.serving.registry.ModelRegistry`,
    traffic is mixed across them per ``scenario``, and — with
    ``swap_under_load`` — one tenant is hot-swapped to a freshly trained
    (bit-identical) model halfway through the run, so the artifact's
    availability and bit-identity gates cover the swap machinery itself.
    """

    n_requests: int = 2_000
    concurrency: int = 64
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1_024
    dispatch: str = "inline"
    n_tenants: int = 1
    scenario: str = "uniform"
    tenant_quota: int | None = None
    cache_budget_bytes: int | None = None
    swap_under_load: bool = False
    #: ``closed`` (workers self-throttle) or ``open`` (seeded arrival
    #: schedule; coordinated-omission-safe latencies).
    mode: str = "closed"
    #: Offered rates (requests/second) for the open-loop sweep; each rate
    #: replays the same ``n_requests`` request set on a fresh schedule.
    rates: tuple = field(default_factory=tuple)
    #: ``> 1`` drives a :class:`~repro.serving.shard.ShardedServer` over
    #: TCP instead of the in-process service (open-loop mode only).
    n_shards: int = 1
    #: SIGKILL one shard halfway through the first rate run; recovery
    #: (respawn + replay, availability 1.0) becomes a gated check.
    kill_shard_under_load: bool = False

    def __post_init__(self):
        check_positive_int(self.n_requests, "n_requests")
        check_positive_int(self.concurrency, "concurrency")
        check_positive_int(self.n_tenants, "n_tenants")
        check_positive_int(self.n_shards, "n_shards")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.mode == "open":
            if not self.rates:
                raise ValueError("open-loop mode needs at least one rate")
            for rate in self.rates:
                if not rate > 0:
                    raise ValueError(f"rates must be positive, got {rate}")
        else:
            if self.rates:
                raise ValueError("rates are an open-loop knob; set mode='open'")
            if self.n_shards > 1:
                raise ValueError(
                    "sharded runs are open-loop only (closed-loop workers would "
                    "measure the generator's own backpressure); set mode='open'"
                )
        if self.kill_shard_under_load and self.n_shards < 2:
            raise ValueError("kill_shard_under_load needs n_shards >= 2")

    def microbatch(self) -> MicrobatchConfig:
        return MicrobatchConfig(
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            max_queue_depth=self.max_queue_depth,
            tenant_quota=self.tenant_quota,
            dispatch=self.dispatch,
        )


def throughput_timeline(
    completion_offsets,
    elapsed: float,
    n_buckets: int = 10,
    warmup_buckets: int = 1,
) -> dict:
    """Bucket completions over time; headline rps excludes the warmup.

    A closed-loop run front-loads its slowest requests: the first batch
    window pays table warm-up, cold caches, and task spin-up, so the
    naive ``n / elapsed`` figure under-reports the steady state the
    service actually sustains (and over-rewards any change that merely
    shifts work into the ramp).  This splits the run into ``n_buckets``
    equal time buckets and reports ``steady_rps`` over the completions
    that landed *after* the first ``warmup_buckets`` buckets.

    Pure function of the completion-time offsets (seconds from run
    start), so the slow-start regression test needs no live service.
    Degenerate runs (too short to exclude anything) fall back to the
    overall rate rather than inventing a steady state.
    """
    check_positive_int(n_buckets, "n_buckets")
    if warmup_buckets < 0:
        raise ValueError(f"warmup_buckets must be non-negative, got {warmup_buckets}")
    if warmup_buckets >= n_buckets:
        raise ValueError(
            f"warmup_buckets ({warmup_buckets}) must leave at least one steady "
            f"bucket (n_buckets={n_buckets})"
        )
    offsets = np.asarray(completion_offsets, dtype=np.float64)
    if not elapsed > 0:
        raise ValueError(f"elapsed must be positive, got {elapsed}")
    overall_rps = offsets.size / elapsed
    bucket_seconds = elapsed / n_buckets
    counts, _ = np.histogram(offsets, bins=n_buckets, range=(0.0, elapsed))
    cutoff = warmup_buckets * bucket_seconds
    steady_window = elapsed - cutoff
    steady_count = int(np.count_nonzero(offsets >= cutoff))
    if steady_count == 0 or not steady_window > 0:
        # Nothing completed after the warmup window — the honest answer
        # is the overall rate, flagged by warmup_buckets=0.
        warmup_buckets = 0
        steady_rps = overall_rps
    else:
        steady_rps = steady_count / steady_window
    return {
        "bucket_seconds": float(bucket_seconds),
        "buckets_rps": [float(count / bucket_seconds) for count in counts],
        "warmup_buckets": int(warmup_buckets),
        "steady_rps": float(steady_rps),
        "overall_rps": float(overall_rps),
    }


def _fit_classifier(workload: BenchWorkload, data) -> LookHDClassifier:
    clf = LookHDClassifier(
        LookHDConfig(
            dim=workload.dim,
            levels=workload.levels,
            chunk_size=workload.chunk_size,
            group_size=workload.group_size,
            decorrelate=workload.decorrelate,
            seed=workload.seed,
        )
    )
    clf.fit(data.train_features, data.train_labels)
    return clf


async def _drive(
    classifier: LookHDClassifier,
    requests: np.ndarray,
    config: LoadgenConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, InferenceService]:
    """Run the closed loop; returns (predictions, latencies, completion
    offsets, elapsed, service)."""
    n = requests.shape[0]
    predictions = np.full(n, -1, dtype=np.int64)
    latencies = np.zeros(n, dtype=np.float64)
    completed_at = np.zeros(n, dtype=np.float64)
    service = InferenceService(classifier, config.microbatch())
    await service.start()
    next_request = 0

    async def worker() -> None:
        nonlocal next_request
        while next_request < n:
            index = next_request
            next_request += 1
            started = time.perf_counter()
            while True:
                try:
                    predictions[index] = await service.predict(requests[index])
                    break
                except ServiceOverloadedError:
                    # Closed-loop workers cannot out-queue max_queue_depth
                    # unless configured to; back off for one batch window.
                    await asyncio.sleep(config.max_wait_ms / 1_000.0)
            completed_at[index] = time.perf_counter()
            latencies[index] = completed_at[index] - started

    run_started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(config.concurrency)))
    elapsed = time.perf_counter() - run_started
    await service.stop()
    return predictions, latencies, completed_at - run_started, elapsed, service


# -- fleet (multi-tenant) runs -------------------------------------------------


def _tenant_schedule(
    n_requests: int, n_tenants: int, scenario: str, seed
) -> np.ndarray:
    """Deterministic per-request tenant assignment for a scenario."""
    rng = derive_rng(seed, f"loadgen-schedule-{scenario}")
    if scenario == "uniform":
        return rng.integers(0, n_tenants, size=n_requests)
    if scenario == "heavy_tailed":
        weights = 1.0 / (1.0 + np.arange(n_tenants)) ** 1.5
        return rng.choice(n_tenants, size=n_requests, p=weights / weights.sum())
    if scenario == "bursty":
        schedule = np.empty(n_requests, dtype=np.int64)
        filled = 0
        while filled < n_requests:
            burst = min(int(rng.geometric(0.1)), n_requests - filled)
            schedule[filled : filled + burst] = rng.integers(0, n_tenants)
            filled += burst
        return schedule
    # "mixed": one third of each shape, concatenated — the bench gate's
    # "mixed load" is literally all three patterns in one run.
    thirds = np.array_split(np.arange(n_requests), 3)
    parts = [
        _tenant_schedule(len(part), n_tenants, kind, seed)
        for part, kind in zip(thirds, ("uniform", "heavy_tailed", "bursty"))
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _request_pool(
    tenants: list[str],
    pools: dict[str, np.ndarray],
    schedule: np.ndarray,
    n_requests: int,
    n_features: int,
) -> tuple[np.ndarray, dict[str, list[int]]]:
    """Per-request features: cycle each tenant's own test pool in its
    request order (deterministic given the schedule)."""
    requests = np.empty((n_requests, n_features), dtype=np.float64)
    tenant_indices: dict[str, list[int]] = {tenant: [] for tenant in tenants}
    for index, tenant_id in enumerate(schedule):
        tenant = tenants[tenant_id]
        pool = pools[tenant]
        requests[index] = pool[len(tenant_indices[tenant]) % pool.shape[0]]
        tenant_indices[tenant].append(index)
    return requests, tenant_indices


def _fit_fleet(
    workload: BenchWorkload, n_tenants: int
) -> tuple[list[str], dict[str, LookHDClassifier], dict[str, np.ndarray]]:
    """One independently-seeded model + request pool per tenant."""
    tenants = [f"tenant-{index}" for index in range(n_tenants)]
    classifiers: dict[str, LookHDClassifier] = {}
    pools: dict[str, np.ndarray] = {}
    for index, tenant in enumerate(tenants):
        tenant_workload = replace(
            workload, name=f"{workload.name}-{tenant}", seed=workload.seed + index
        )
        data = tenant_workload.make_dataset()
        classifiers[tenant] = _fit_classifier(tenant_workload, data)
        pools[tenant] = np.asarray(data.test_features, dtype=np.float64)
    return tenants, classifiers, pools


async def _drive_fleet(
    registry: ModelRegistry,
    tenants: list[str],
    schedule: np.ndarray,
    requests: np.ndarray,
    config: LoadgenConfig,
    swap: dict | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, InferenceService]:
    """Closed-loop fleet traffic, optionally hot-swapping mid-run.

    ``swap`` (when set) carries ``{"tenant", "classifier"}``: once half
    the requests have completed, the replacement model is published from
    a worker thread — table build off the loop, atomic flip — while the
    closed loop keeps firing.  The swap dict is updated in place with
    what happened, and every request must still succeed (that is the
    availability-1.0 gate).
    """
    n = requests.shape[0]
    predictions = np.full(n, -1, dtype=np.int64)
    latencies = np.zeros(n, dtype=np.float64)
    completed_at = np.zeros(n, dtype=np.float64)
    completed = 0
    service = InferenceService(registry=registry, config=config.microbatch())
    await service.start()
    next_request = 0
    swap_task: asyncio.Task | None = None

    async def do_swap() -> None:
        tenant = swap["tenant"]
        swap["version_before"] = registry.record(tenant).version
        swap["queue_depth_at_swap"] = service.queue_depth
        record = await asyncio.get_running_loop().run_in_executor(
            None, registry.publish, tenant, swap.pop("classifier")
        )
        swap["version_after"] = record.version
        swap["performed"] = True

    async def worker() -> None:
        nonlocal next_request, completed, swap_task
        while next_request < n:
            index = next_request
            next_request += 1
            tenant = tenants[schedule[index]]
            started = time.perf_counter()
            while True:
                try:
                    predictions[index] = await service.predict(
                        requests[index], tenant=tenant
                    )
                    break
                except ServiceOverloadedError:
                    # Global or per-tenant-quota backpressure: back off one
                    # batch window and retry (closed-loop contract — every
                    # request is eventually answered).
                    await asyncio.sleep(config.max_wait_ms / 1_000.0)
            completed_at[index] = time.perf_counter()
            latencies[index] = completed_at[index] - started
            completed += 1
            if swap is not None and swap_task is None and completed >= n // 2:
                swap_task = asyncio.get_running_loop().create_task(do_swap())

    run_started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(config.concurrency)))
    elapsed = time.perf_counter() - run_started
    if swap_task is not None:
        await swap_task
    await service.stop()
    return predictions, latencies, completed_at - run_started, elapsed, service


def _run_fleet_loadgen(workload: BenchWorkload, config: LoadgenConfig) -> dict:
    """Fleet twin of :func:`run_loadgen`: registry, mixed tenants, hot-swap.

    The correctness story mirrors the single-model run, per tenant: each
    tenant's requests are also answered by a sequential single-request
    loop over *that tenant's* classifier (the bit-identity oracle).  The
    swap replacement is trained from the same per-tenant workload
    (identical config/seed/data), so bit-identity stays checkable across
    the swap while the full publish/flip machinery runs under live load.
    """
    tenants, classifiers, pools = _fit_fleet(workload, config.n_tenants)
    schedule = _tenant_schedule(
        config.n_requests, config.n_tenants, config.scenario, workload.seed
    )
    requests, tenant_indices = _request_pool(
        tenants, pools, schedule, config.n_requests, workload.n_features
    )

    # Sequential per-tenant oracle (also warms each model's tables).
    expected = np.full(config.n_requests, -1, dtype=np.int64)
    started = time.perf_counter()
    for tenant, indices in tenant_indices.items():
        clf = classifiers[tenant]
        for index in indices:
            expected[index] = clf.predict(requests[index])
    sequential_elapsed = time.perf_counter() - started

    registry = ModelRegistry(cache_budget_bytes=config.cache_budget_bytes)
    for tenant in tenants:
        registry.publish(tenant, classifiers[tenant])

    swap = None
    if config.swap_under_load:
        swap_tenant = tenants[0]
        swap_workload = replace(
            workload, name=f"{workload.name}-{swap_tenant}", seed=workload.seed
        )
        swap = {
            "tenant": swap_tenant,
            "performed": False,
            # Same workload, same seed: the replacement is bit-identical,
            # so the oracle holds across the flip.
            "classifier": _fit_classifier(swap_workload, swap_workload.make_dataset()),
        }

    telemetry_registry = telemetry.MetricsRegistry(enabled=True)
    with telemetry.activated(telemetry_registry):
        predictions, latencies, completion_offsets, elapsed, service = asyncio.run(
            _drive_fleet(registry, tenants, schedule, requests, config, swap)
        )

    stats = service.request_stats()
    throughput = config.n_requests / max(elapsed, 1e-12)
    sequential_rps = config.n_requests / max(sequential_elapsed, 1e-12)
    p50, p99 = (float(v) for v in np.percentile(latencies, (50.0, 99.0)))

    fleet_tenants = {}
    per_tenant_identity = True
    for tenant in tenants:
        indices = np.asarray(tenant_indices[tenant], dtype=np.int64)
        match = bool(np.array_equal(predictions[indices], expected[indices]))
        per_tenant_identity = per_tenant_identity and match
        tenant_stats = stats["tenants"].get(tenant, {})
        fleet_tenants[tenant] = {
            "sent": int(indices.size),
            "completed": int(tenant_stats.get("completed", 0)),
            "rejected": int(tenant_stats.get("rejected", 0)),
            "dropped": int(tenant_stats.get("dropped", 0)),
            "match_single": match,
        }

    swap_block = {"performed": False}
    swap_zero_downtime = True
    if swap is not None:
        availability = stats["completed"] / max(config.n_requests, 1)
        swap_zero_downtime = bool(
            swap["performed"]
            and swap["version_after"] == swap["version_before"] + 1
            and availability == 1.0
            and stats["dropped"] == 0
            and stats["failed"] == 0
        )
        swap_block = {
            "performed": swap["performed"],
            "tenant": swap["tenant"],
            "version_before": swap["version_before"],
            "version_after": swap["version_after"],
            "queue_depth_at_swap": swap["queue_depth_at_swap"],
            "availability": availability,
        }

    payload = {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "workload": {
            "name": f"{workload.name}-fleet{config.n_tenants}",
            "dim": workload.dim,
            "levels": workload.levels,
            "chunk_size": workload.chunk_size,
            "n_features": workload.n_features,
            "n_classes": workload.n_classes,
            "seed": workload.seed,
            "n_requests": config.n_requests,
            "concurrency": config.concurrency,
            "n_tenants": config.n_tenants,
            "scenario": config.scenario,
            "mode": "closed",
        },
        "service": {
            "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "tenant_quota": config.tenant_quota,
            "cache_budget_bytes": config.cache_budget_bytes,
            "n_shards": 1,
            "fused_active": all(
                clf.config.fused_inference and clf.fused_engine().enabled
                for clf in classifiers.values()
            ),
        },
        "results": {
            "throughput_rps": throughput,
            "sequential_rps": sequential_rps,
            "speedup_vs_sequential": throughput / max(sequential_rps, 1e-12),
            "elapsed_seconds": elapsed,
            "sequential_elapsed_seconds": sequential_elapsed,
            "latency_seconds": {
                "p50": p50,
                "p99": p99,
                "mean": float(latencies.mean()),
                "max": float(latencies.max()),
            },
            "batches": {
                "count": stats["batches"],
                "mean_size": stats["completed"] / max(stats["batches"], 1),
                "max_size": service.max_batch_size,
            },
            "flush_reasons": dict(service.flush_reasons),
            "timeline": throughput_timeline(completion_offsets, elapsed),
            "requests": {
                "sent": config.n_requests,
                "completed": stats["completed"],
                "rejected": stats["rejected"],
                "dropped": stats["dropped"],
            },
            "fleet": {
                "tenants": fleet_tenants,
                "registry": registry.describe(),
            },
            "swap": swap_block,
        },
        "checks": {
            "predictions_match_single": bool(np.array_equal(predictions, expected)),
            "zero_dropped": stats["dropped"] == 0 and stats["failed"] == 0,
            "per_tenant_bit_identity": bool(per_tenant_identity),
            "swap_zero_downtime": swap_zero_downtime,
        },
        "environment": environment(),
        "telemetry": telemetry_registry.snapshot(),
    }
    return validate_serving_payload(payload)


# -- open-loop runs ------------------------------------------------------------


def _arrival_schedule(n: int, rate: float, seed, label: str) -> np.ndarray:
    """Seeded Poisson arrivals: cumulative exponential gaps at ``rate``/s."""
    rng = derive_rng(seed, f"open-loop-{label}")
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


async def _drive_open(
    send,
    offsets: np.ndarray,
    backoff_seconds: float,
    on_halfway=None,
) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Fire requests on the arrival schedule; latencies from *intended* times.

    The coordinated-omission discipline, concretely: request ``i`` is due
    at ``offsets[i]`` after run start.  Its latency is measured from that
    intended arrival — not from whenever a backlogged sender actually
    wrote it — so a service stall shows up in the percentiles of every
    request scheduled during the stall, exactly as concurrent real
    clients would experience it.  ``max_lag`` (worst send-side slip
    behind the schedule) is reported so a run where the *generator*
    could not keep up is visible rather than silently optimistic.

    Overloaded rejections are retried after ``backoff_seconds`` with the
    latency clock still running from the intended arrival; every
    scheduled request therefore resolves (the zero-dropped contract).
    ``on_halfway`` (when set) fires once after half the requests
    complete — the chaos-kill hook.
    """
    n = offsets.shape[0]
    predictions = np.full(n, -1, dtype=np.int64)
    latencies = np.zeros(n, dtype=np.float64)
    rejected = 0
    completed = 0
    max_lag = 0.0
    halfway_fired = on_halfway is None
    start = time.perf_counter()

    async def fire(index: int) -> None:
        nonlocal rejected, completed, max_lag, halfway_fired
        target = float(offsets[index])
        delay = target - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        max_lag = max(max_lag, (time.perf_counter() - start) - target)
        while True:
            try:
                predictions[index] = await send(index)
                break
            except ServiceOverloadedError:
                rejected += 1
                await asyncio.sleep(backoff_seconds)
        latencies[index] = (time.perf_counter() - start) - target
        completed += 1
        if not halfway_fired and completed >= n // 2:
            halfway_fired = True
            on_halfway()

    await asyncio.gather(*(fire(index) for index in range(n)))
    elapsed = time.perf_counter() - start
    np.maximum(latencies, 0.0, out=latencies)
    return predictions, latencies, max(0.0, max_lag), elapsed, rejected


async def _sweep_rates(send, config: LoadgenConfig, seed, on_halfway_first=None):
    """One open-loop run per configured rate; same request set, fresh
    seeded schedule each.  The chaos hook fires only during the first
    rate, so later sweep points measure clean steady state."""
    blocks = []
    for position, rate in enumerate(config.rates):
        offsets = _arrival_schedule(
            config.n_requests, float(rate), seed, f"{position}-{rate}"
        )
        predictions, latencies, max_lag, elapsed, rejected = await _drive_open(
            send,
            offsets,
            config.max_wait_ms / 1_000.0,
            on_halfway_first if position == 0 else None,
        )
        p50, p90, p99, p999 = (
            float(v) for v in np.percentile(latencies, (50.0, 90.0, 99.0, 99.9))
        )
        blocks.append(
            {
                "rate": float(rate),
                "achieved_rps": config.n_requests / max(elapsed, 1e-12),
                "requests": config.n_requests,
                "max_lag_seconds": float(max_lag),
                "latency_seconds": {
                    "p50": p50,
                    "p90": p90,
                    "p99": p99,
                    "p999": p999,
                    "mean": float(latencies.mean()),
                    "max": float(latencies.max()),
                },
                "_predictions": predictions,
                "_rejected": rejected,
                "_elapsed": elapsed,
            }
        )
    return blocks


async def _sweep_inprocess(
    oracle: dict[str, LookHDClassifier],
    tenants: list[str],
    schedule: np.ndarray,
    requests: np.ndarray,
    config: LoadgenConfig,
    seed,
) -> dict:
    """Open-loop sweep against one in-process service (``n_shards=1``)."""
    registry = ModelRegistry(cache_budget_bytes=config.cache_budget_bytes)
    for tenant in tenants:
        registry.publish(tenant, oracle[tenant])
    service = InferenceService(registry=registry, config=config.microbatch())
    await service.start()

    async def send(index: int) -> int:
        return await service.predict(
            requests[index], tenant=tenants[schedule[index]]
        )

    blocks = await _sweep_rates(send, config, seed)
    await service.stop()
    return {
        "blocks": blocks,
        "acceptor": None,
        "chaos": {"performed": False},
        "per_shard": None,
        "registry_describe": registry.describe(),
    }


async def _sweep_sharded(
    models: list[tuple[str, str]],
    tenants: list[str],
    schedule: np.ndarray,
    requests: np.ndarray,
    config: LoadgenConfig,
    seed,
) -> dict:
    """Open-loop sweep over TCP against a :class:`ShardedServer` pool.

    With ``kill_shard_under_load``, the shard hosting the first tenant is
    SIGKILLed halfway through the first rate run; the acceptor must
    respawn it, republish, and replay the in-flight requests so every
    scheduled request still answers (availability 1.0, zero dropped).
    """
    server = ShardedServer(
        models,
        n_shards=config.n_shards,
        config=config.microbatch(),
        scrub_interval=0.25,
    )
    await server.start()
    client = await PipelinedClient.connect(server.host, server.port)

    async def send(index: int) -> int:
        response = await client.request(
            {
                "op": "predict",
                "tenant": tenants[schedule[index]],
                "features": requests[index].tolist(),
            }
        )
        error = response.get("error")
        if error == "overloaded":
            raise ServiceOverloadedError(response.get("detail", "overloaded"))
        if error is not None:
            raise RuntimeError(f"sharded predict failed: {response}")
        return int(response["prediction"])

    chaos: dict = {"performed": False}
    on_halfway = None
    if config.kill_shard_under_load:
        victim = shard_for(tenants[0], config.n_shards)

        def kill() -> None:
            chaos["performed"] = True
            chaos["shard"] = victim
            chaos["pid"] = server.kill_shard(victim)

        on_halfway = kill

    try:
        blocks = await _sweep_rates(send, config, seed, on_halfway)
        health = await server.health()
    finally:
        await client.close()
        await server.stop()
    if chaos["performed"]:
        first = blocks[0]["_predictions"]
        chaos["availability"] = float(np.count_nonzero(first >= 0)) / first.shape[0]
    registry_describe = {}
    shard_blocks = health.get("shards", {})
    for block in shard_blocks.values():
        if isinstance(block.get("fleet"), dict):
            registry_describe = block["fleet"]
            break
    return {
        "blocks": blocks,
        "acceptor": server.request_stats(),
        "chaos": chaos,
        "per_shard": shard_blocks,
        "registry_describe": registry_describe,
    }


def _run_open_loop(workload: BenchWorkload, config: LoadgenConfig) -> dict:
    """Open-loop twin of :func:`run_loadgen`; handles 1..N shards.

    The bit-identity oracle is rebuilt from the *same saved artifacts*
    the serving side loads (persistence round-trip), so a sharded run's
    ``checks.shard_outputs_match`` really compares against single-process
    serving of identical published state.  The headline
    ``throughput_rps`` / ``latency_seconds`` come from the *last* (by
    convention highest) swept rate; every rate keeps its own block under
    ``results.open_loop.rates``.
    """
    tenants, classifiers, pools = _fit_fleet(workload, config.n_tenants)
    schedule = _tenant_schedule(
        config.n_requests, config.n_tenants, config.scenario, workload.seed
    )
    requests, tenant_indices = _request_pool(
        tenants, pools, schedule, config.n_requests, workload.n_features
    )

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        models = [
            (tenant, str(save_classifier(classifiers[tenant], Path(tmp) / f"{tenant}.npz")))
            for tenant in tenants
        ]
        oracle = {tenant: load_classifier(path) for tenant, path in models}

        # Sequential oracle over the round-tripped artifacts — both the
        # bit-identity reference and the speedup baseline.
        expected = np.full(config.n_requests, -1, dtype=np.int64)
        started = time.perf_counter()
        for tenant, indices in tenant_indices.items():
            clf = oracle[tenant]
            for index in indices:
                expected[index] = clf.predict(requests[index])
        sequential_elapsed = time.perf_counter() - started

        telemetry_registry = telemetry.MetricsRegistry(enabled=True)
        with telemetry.activated(telemetry_registry):
            if config.n_shards > 1:
                outcome = asyncio.run(
                    _sweep_sharded(
                        models, tenants, schedule, requests, config, workload.seed
                    )
                )
            else:
                outcome = asyncio.run(
                    _sweep_inprocess(
                        oracle, tenants, schedule, requests, config, workload.seed
                    )
                )

    blocks = outcome["blocks"]
    all_match = True
    per_tenant_match = {tenant: True for tenant in tenants}
    rejected_total = 0
    elapsed_total = 0.0
    rate_blocks = []
    for block in blocks:
        predictions = block.pop("_predictions")
        rejected_total += block.pop("_rejected")
        elapsed_total += block.pop("_elapsed")
        all_match = all_match and bool(np.array_equal(predictions, expected))
        for tenant, indices in tenant_indices.items():
            idx = np.asarray(indices, dtype=np.int64)
            if not np.array_equal(predictions[idx], expected[idx]):
                per_tenant_match[tenant] = False
        rate_blocks.append(block)

    n_rates = len(rate_blocks)
    sent = config.n_requests * n_rates
    headline = rate_blocks[-1]
    sequential_rps = config.n_requests / max(sequential_elapsed, 1e-12)
    acceptor = outcome["acceptor"]
    chaos = outcome["chaos"]

    results: dict = {
        "throughput_rps": headline["achieved_rps"],
        "sequential_rps": sequential_rps,
        "speedup_vs_sequential": headline["achieved_rps"] / max(sequential_rps, 1e-12),
        "elapsed_seconds": elapsed_total,
        "sequential_elapsed_seconds": sequential_elapsed,
        "latency_seconds": {
            key: headline["latency_seconds"][key]
            for key in ("p50", "p99", "mean", "max")
        },
        "open_loop": {"rates": rate_blocks},
        "requests": {
            "sent": sent,
            "completed": sent,
            "rejected": rejected_total,
            "dropped": 0,
        },
    }
    checks: dict = {
        "predictions_match_single": all_match,
        "zero_dropped": acceptor["dropped"] == 0 if acceptor else True,
    }
    if config.n_tenants > 1:
        results["fleet"] = {
            "tenants": {
                tenant: {
                    "sent": len(indices) * n_rates,
                    "completed": len(indices) * n_rates,
                    "rejected": 0,
                    "dropped": 0,
                    "match_single": per_tenant_match[tenant],
                }
                for tenant, indices in tenant_indices.items()
            },
            "registry": outcome["registry_describe"],
        }
        results["swap"] = {"performed": False}
        checks["per_tenant_bit_identity"] = all(per_tenant_match.values())
        checks["swap_zero_downtime"] = True
    if config.n_shards > 1:
        results["sharding"] = {
            "acceptor": acceptor,
            "chaos": chaos,
            "per_shard": outcome["per_shard"],
        }
        checks["shard_outputs_match"] = all_match
        if chaos["performed"]:
            checks["shard_recovery"] = bool(
                acceptor["respawns"] >= 1
                and acceptor["dropped"] == 0
                and chaos.get("availability") == 1.0
            )

    payload = {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "workload": {
            "name": workload.name
            + (f"-fleet{config.n_tenants}" if config.n_tenants > 1 else "")
            + "-open",
            "dim": workload.dim,
            "levels": workload.levels,
            "chunk_size": workload.chunk_size,
            "n_features": workload.n_features,
            "n_classes": workload.n_classes,
            "seed": workload.seed,
            "n_requests": config.n_requests,
            "concurrency": config.concurrency,
            "n_tenants": config.n_tenants,
            "scenario": config.scenario,
            "mode": "open",
        },
        "service": {
            "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "tenant_quota": config.tenant_quota,
            "cache_budget_bytes": config.cache_budget_bytes,
            "n_shards": config.n_shards,
            "fused_active": all(
                clf.config.fused_inference and clf.fused_engine().enabled
                for clf in oracle.values()
            ),
        },
        "results": results,
        "checks": checks,
        "environment": environment(),
        "telemetry": telemetry_registry.snapshot(),
    }
    return validate_serving_payload(payload)


def run_loadgen(
    workload: BenchWorkload,
    config: LoadgenConfig | None = None,
) -> dict:
    """Train, measure sequential vs microbatched serving, build the payload.

    Deterministic apart from wall-clock numbers: the workload is
    pinned-seed synthetic and the request stream cycles its test split.

    ``config.n_tenants > 1`` routes to the fleet run (registry-backed
    service, mixed-tenant traffic, optional hot-swap under load) — same
    payload schema, plus the fleet/swap blocks and their gates.
    """
    config = config if config is not None else LoadgenConfig()
    if config.mode == "open":
        return _run_open_loop(workload, config)
    if config.n_tenants > 1:
        return _run_fleet_loadgen(workload, config)
    data = workload.make_dataset()
    classifier = _fit_classifier(workload, data)
    test = np.asarray(data.test_features, dtype=np.float64)
    requests = test[np.arange(config.n_requests) % test.shape[0]]
    # Warm the lazy score table so both measured paths run steady-state,
    # as a deployed model would.
    classifier.predict(test[:1])

    # Sequential per-request baseline — also the bit-identical oracle.
    expected = np.empty(config.n_requests, dtype=np.int64)
    started = time.perf_counter()
    for index in range(config.n_requests):
        expected[index] = classifier.predict(requests[index])
    sequential_elapsed = time.perf_counter() - started

    # Microbatched closed loop, instrumented: the per-stage telemetry
    # (queue wait, batch sizes, flush reasons, latency) is part of the
    # artifact, and its overhead is per-batch, not per-sample.
    registry = telemetry.MetricsRegistry(enabled=True)
    with telemetry.activated(registry):
        predictions, latencies, completion_offsets, elapsed, service = asyncio.run(
            _drive(classifier, requests, config)
        )

    stats = service.request_stats()
    throughput = config.n_requests / max(elapsed, 1e-12)
    sequential_rps = config.n_requests / max(sequential_elapsed, 1e-12)
    p50, p99 = (float(v) for v in np.percentile(latencies, (50.0, 99.0)))
    engine = classifier.fused_engine()
    payload = {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "workload": {
            "name": workload.name,
            "dim": workload.dim,
            "levels": workload.levels,
            "chunk_size": workload.chunk_size,
            "n_features": workload.n_features,
            "n_classes": workload.n_classes,
            "seed": workload.seed,
            "n_requests": config.n_requests,
            "concurrency": config.concurrency,
            "n_tenants": 1,
            "scenario": config.scenario,
            "mode": "closed",
        },
        "service": {
            "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "n_shards": 1,
            "fused_active": bool(
                classifier.config.fused_inference and engine.enabled
            ),
        },
        "results": {
            "throughput_rps": throughput,
            "sequential_rps": sequential_rps,
            "speedup_vs_sequential": throughput / max(sequential_rps, 1e-12),
            "elapsed_seconds": elapsed,
            "sequential_elapsed_seconds": sequential_elapsed,
            "latency_seconds": {
                "p50": p50,
                "p99": p99,
                "mean": float(latencies.mean()),
                "max": float(latencies.max()),
            },
            "batches": {
                "count": stats["batches"],
                "mean_size": stats["completed"] / max(stats["batches"], 1),
                "max_size": service.max_batch_size,
            },
            "flush_reasons": dict(service.flush_reasons),
            "timeline": throughput_timeline(completion_offsets, elapsed),
            "requests": {
                "sent": config.n_requests,
                "completed": stats["completed"],
                "rejected": stats["rejected"],
                "dropped": stats["dropped"],
            },
        },
        "checks": {
            "predictions_match_single": bool(np.array_equal(predictions, expected)),
            "zero_dropped": stats["dropped"] == 0 and stats["failed"] == 0,
        },
        "environment": environment(),
        "telemetry": registry.snapshot(),
    }
    return validate_serving_payload(payload)


def fleet_config(profile: str, config: LoadgenConfig | None = None) -> LoadgenConfig:
    """The default fleet shape for a ``fleet-*`` profile.

    3 tenants (the bench gate's floor) under the ``mixed`` scenario, a
    per-tenant quota at half the global bound (so quota backpressure is
    actually exercised), and one hot-swap under load.  An explicit
    ``config`` that already asks for tenants is passed through untouched.
    """
    if config is not None and config.n_tenants > 1:
        return config
    base = config if config is not None else LoadgenConfig()
    smoke = profile.endswith("smoke")
    return replace(
        base,
        n_requests=base.n_requests if config is not None else (360 if smoke else 3_000),
        n_tenants=3,
        scenario="mixed",
        tenant_quota=max(1, base.max_queue_depth // 2),
        swap_under_load=True,
    )


def write_serving_file(
    profile: str = "full",
    out_dir: str | Path = ".",
    config: LoadgenConfig | None = None,
) -> Path:
    """Run a serving profile and write ``BENCH_serving.json``.

    ``fleet-full`` / ``fleet-smoke`` run the multi-tenant bench over the
    corresponding base workload (see :func:`fleet_config`).
    """
    base_profile = profile
    if profile.startswith("fleet-"):
        base_profile = profile[len("fleet-") :]
        config = fleet_config(profile, config)
    try:
        workload = DEFAULT_SERVING_WORKLOADS[base_profile]
    except KeyError:
        raise ValueError(
            f"unknown serving profile {profile!r}; choose from "
            f"{sorted(DEFAULT_SERVING_WORKLOADS) + ['fleet-' + p for p in sorted(DEFAULT_SERVING_WORKLOADS)]}"
        ) from None
    payload = run_loadgen(workload, config)
    return write_artifact(Path(out_dir) / "BENCH_serving.json", payload)
