"""Closed- and open-loop load generators for the serving layer.

Measures the quantity the serving layer exists to deliver — end-to-end
throughput under concurrent per-request traffic — against the honest
baseline: a sequential loop issuing the same requests one at a time
through the same fused single-request ``predict`` (so the speedup isolates
*microbatching*, not fused-vs-reference kernels, which ``repro bench``
already covers).

Every run is one pipeline: fit 1..N tenants, save each model to an
artifact and load it back, answer every request sequentially over the
loaded models (the bit-identity oracle and the speedup baseline), then
drive the same requests through one ``send(index)`` coroutine.  ``send``
reaches the one serving target the config names: an in-process
:class:`~repro.serving.service.InferenceService` over a
:class:`~repro.serving.registry.ModelRegistry` holding the loaded models,
or (``n_shards > 1``) a :class:`~repro.serving.shard.ShardedServer`
serving the saved artifacts behind a
:class:`~repro.serving.shard.PipelinedClient`.

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
  loop is also the mode that drives the sharded server.

Both drivers retry an overloaded rejection after one batch window
(tallied per request) and share one halfway hook: once half the first
pass has answered, the in-process target hot-swaps the first tenant to a
fresh load of its own saved artifact (``swap_under_load``), and the
sharded target SIGKILLs the shard hosting it (``kill_shard_under_load``).

Every run is also a correctness gate: predictions must be bit-identical
to the oracle (``checks.predictions_match_single``), and the target's own
request accounting must balance (``checks.zero_dropped``).  The payload
is schema-validated (:mod:`repro.serving.schema`) before it is written to
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
from repro.bench.workloads import BenchWorkload, fit_classifier
from repro.lookhd.classifier import LookHDClassifier
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
    served side by side and traffic is mixed across them per
    ``scenario``.  With ``swap_under_load``, the first tenant is
    hot-swapped halfway through the run to a fresh load of its own saved
    artifact (bit-identical), so the artifact's availability and
    bit-identity gates cover the swap machinery itself.
    """

    n_requests: int = 2_000
    concurrency: int = 64
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1_024
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
                raise ValueError(
                    "open-loop mode (--open-loop) needs at least one rate (--rate R)"
                )
            for rate in self.rates:
                if not rate > 0:
                    raise ValueError(f"rates (--rate) must be positive, got {rate}")
        else:
            if self.rates:
                raise ValueError(
                    "rates (--rate) are an open-loop knob; set mode='open' (--open-loop)"
                )
            if self.n_shards > 1:
                raise ValueError(
                    "sharded runs (n_shards > 1, --shards > 1) are open-loop only "
                    "(closed-loop workers would measure the generator's own "
                    "backpressure); set mode='open' (--open-loop)"
                )
        if self.kill_shard_under_load and self.n_shards < 2:
            raise ValueError(
                "kill_shard_under_load (--kill-shard) needs n_shards >= 2 (--shards >= 2)"
            )
        if self.swap_under_load and self.n_shards > 1:
            raise ValueError(
                "swap_under_load (--swap) needs the in-process service; a sharded "
                "pool (n_shards > 1, --shards > 1) does not hot-swap under load"
            )
        if self.cache_budget_bytes is not None and self.n_shards > 1:
            raise ValueError(
                "cache_budget_bytes (--cache-budget-bytes) needs the in-process "
                "service; the shards of a sharded pool (n_shards > 1, --shards > 1) "
                "build their registries without a budget"
            )

    def microbatch(self) -> MicrobatchConfig:
        return MicrobatchConfig(
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            max_queue_depth=self.max_queue_depth,
            tenant_quota=self.tenant_quota,
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


# -- tenants and requests ------------------------------------------------------


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
        classifiers[tenant] = fit_classifier(tenant_workload, data)
        pools[tenant] = np.asarray(data.test_features, dtype=np.float64)
    return tenants, classifiers, pools


# -- the drivers ---------------------------------------------------------------


def _arrival_schedule(n: int, rate: float, seed, label: str) -> np.ndarray:
    """Seeded Poisson arrivals: cumulative exponential gaps at ``rate``/s."""
    rng = derive_rng(seed, f"open-loop-{label}")
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


#: Ceiling of one request's overload backoff (seconds).
_MAX_BACKOFF_SECONDS = 0.05


class _Pass:
    """One pass of ``n`` requests through ``send``: what both drivers share.

    ``send(index)`` resolves to the prediction, or to ``None`` when the
    target rejected the request as overloaded.  :meth:`issue` retries
    each rejection (tallied per request, the latency clock still
    running), so every request resolves: the zero-dropped contract.  The
    first retry waits ``backoff`` seconds (one batch window), and each
    further one doubles the request's wait up to
    ``_MAX_BACKOFF_SECONDS``, so an overloaded run measures the target
    rather than the generator's own retry traffic.  ``on_halfway`` (when set) starts as a task
    once half the requests have answered; :meth:`close` awaits it and
    keeps its result in ``hook``.
    """

    def __init__(self, send, n: int, backoff: float, on_halfway=None):
        self.send = send
        self.backoff = backoff
        self.on_halfway = on_halfway
        self.hook_task: asyncio.Task | None = None
        self.hook: dict | None = None
        self.predictions = np.full(n, -1, dtype=np.int64)
        self.rejected = np.zeros(n, dtype=np.int64)
        self.answered_at = np.zeros(n, dtype=np.float64)
        self.completed = 0
        self.max_lag = 0.0

    async def issue(self, index: int) -> None:
        wait = self.backoff
        while (answer := await self.send(index)) is None:
            self.rejected[index] += 1
            await asyncio.sleep(wait)
            wait = min(2.0 * wait, _MAX_BACKOFF_SECONDS)
        self.predictions[index] = answer
        self.answered_at[index] = time.perf_counter()
        self.completed += 1
        if self.on_halfway is not None and self.completed >= self.predictions.size // 2:
            self.hook_task = asyncio.get_running_loop().create_task(self.on_halfway())
            self.on_halfway = None

    async def close(self, start: float, issued_at) -> "_Pass":
        """Stop the clock; each latency runs from ``issued_at`` to its answer."""
        self.elapsed = time.perf_counter() - start
        self.answered = self.answered_at - start
        self.latencies = np.maximum(self.answered_at - issued_at, 0.0)
        if self.hook_task is not None:
            self.hook = await self.hook_task
        return self


async def _closed_loop(run: _Pass, concurrency: int) -> _Pass:
    """``concurrency`` workers, each issuing its next request the moment
    its previous answer lands; latency runs from that issue."""
    n = run.predictions.size
    issued_at = np.zeros(n, dtype=np.float64)
    next_request = 0

    async def worker() -> None:
        nonlocal next_request
        while next_request < n:
            index = next_request
            next_request += 1
            issued_at[index] = time.perf_counter()
            await run.issue(index)

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return await run.close(start, issued_at)


async def _open_loop(run: _Pass, offsets: np.ndarray) -> _Pass:
    """Fire request ``i`` at ``offsets[i]`` after the start, answered or not.

    Latency runs from that *intended* arrival — not from whenever a
    backlogged sender actually wrote it — so a service stall shows up in
    the percentiles of every request scheduled during the stall, exactly
    as concurrent real clients would experience it.  ``max_lag`` (worst
    send-side slip behind the schedule) is reported so a run where the
    *generator* could not keep up is visible rather than silently
    optimistic.
    """
    start = time.perf_counter()

    async def fire(index: int) -> None:
        target = float(offsets[index])
        delay = target - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        run.max_lag = max(run.max_lag, (time.perf_counter() - start) - target)
        await run.issue(index)

    await asyncio.gather(*(fire(index) for index in range(offsets.shape[0])))
    return await run.close(start, start + offsets)


async def _passes(send, config: LoadgenConfig, seed, on_halfway) -> list[_Pass]:
    """The closed loop runs once; the open loop once per rate, each on a
    fresh seeded schedule.  The halfway hook fires during the first pass
    only, so later sweep points measure clean steady state."""
    backoff = config.max_wait_ms / 1_000.0
    if config.mode == "closed":
        run = _Pass(send, config.n_requests, backoff, on_halfway)
        return [await _closed_loop(run, config.concurrency)]
    passes = []
    for position, rate in enumerate(config.rates):
        offsets = _arrival_schedule(config.n_requests, float(rate), seed, f"{position}-{rate}")
        run = _Pass(send, config.n_requests, backoff, on_halfway if position == 0 else None)
        passes.append(await _open_loop(run, offsets))
    return passes


def _event(run: _Pass) -> dict:
    """The halfway hook's block: what it did and the availability of the
    pass it ran in."""
    if run.hook is None:
        return {"performed": False}
    answered = np.count_nonzero(run.predictions >= 0)
    return {"performed": True, **run.hook, "availability": float(answered) / run.predictions.size}


async def _serve(config: LoadgenConfig, requests, tenant_of, paths, models, seed) -> dict:
    """Drive every pass through the serving target ``config`` names.

    Returns the passes, the target's own request accounting (``stats``),
    the fleet registry it served from, and its blocks of ``results``.
    """
    first = next(iter(paths))
    if config.n_shards > 1:
        server = ShardedServer(
            list(paths.items()),
            n_shards=config.n_shards,
            config=config.microbatch(),
            scrub_interval=0.25,
        )
        async with server:
            async with await PipelinedClient.connect(server.host, server.port) as client:

                async def send(index: int) -> int | None:
                    response = await client.request(
                        {
                            "op": "predict",
                            "tenant": tenant_of[index],
                            "features": requests[index].tolist(),
                        }
                    )
                    if response.get("error") == "overloaded":
                        return None
                    if "prediction" not in response:
                        raise RuntimeError(f"sharded predict failed: {response}")
                    return int(response["prediction"])

                async def kill() -> dict:
                    # The acceptor must respawn the shard and replay its
                    # in-flight requests so every scheduled request answers.
                    victim = shard_for(first, config.n_shards)
                    return {"shard": victim, "pid": server.kill_shard(victim)}

                hook = kill if config.kill_shard_under_load else None
                passes = await _passes(send, config, seed, hook)
                health = await server.health()
        stats = server.request_stats()
        return {
            "passes": passes,
            "stats": stats,
            "registry": health["fleet"],
            "blocks": {
                "swap": {"performed": False},
                "sharding": {
                    "acceptor": stats,
                    "chaos": _event(passes[0]),
                    "per_shard": health["shards"],
                },
            },
        }

    registry = ModelRegistry(cache_budget_bytes=config.cache_budget_bytes)
    for tenant, model in models.items():
        registry.publish(tenant, model)
    async with InferenceService(registry=registry, config=config.microbatch()) as service:

        async def send(index: int) -> int | None:
            try:
                return await service.predict(requests[index], tenant=tenant_of[index])
            except ServiceOverloadedError:  # global bound or the tenant's quota
                return None

        async def swap() -> dict:
            # Table build on a worker thread, then the atomic flip, while
            # the traffic keeps firing.
            before = registry.record(first).version
            depth = service.queue_depth
            record = await asyncio.to_thread(
                lambda: registry.publish(first, load_classifier(paths[first]))
            )
            return {
                "tenant": first,
                "version_before": before,
                "version_after": record.version,
                "queue_depth_at_swap": depth,
            }

        hook = swap if config.swap_under_load else None
        passes = await _passes(send, config, seed, hook)
    stats = service.request_stats()
    return {
        "passes": passes,
        "stats": stats,
        "registry": registry.describe(),
        "blocks": {
            "swap": _event(passes[0]),
            "batches": {
                "count": stats["batches"],
                "mean_size": stats["completed"] / max(stats["batches"], 1),
                "max_size": service.max_batch_size,
            },
            "flush_reasons": dict(service.flush_reasons),
        },
    }


# -- one pipeline, one payload -------------------------------------------------

_PERCENTILES = {"p50": 50.0, "p90": 90.0, "p99": 99.0, "p999": 99.9}


def _latency(latencies: np.ndarray, percentiles: tuple) -> dict:
    return {
        **{key: float(np.percentile(latencies, _PERCENTILES[key])) for key in percentiles},
        "mean": float(latencies.mean()),
        "max": float(latencies.max()),
    }


def _payload(workload: BenchWorkload, config: LoadgenConfig, run: dict) -> dict:
    """The ``BENCH_serving.json`` payload of every mode.

    Every count is measured: per-tenant ``completed`` counts the answers
    received and ``rejected`` the driver's overloaded retries, while
    ``requests.dropped`` and ``checks.zero_dropped`` come from the
    service's or the acceptor's own accounting.  The headline
    ``throughput_rps`` / ``latency_seconds`` come from the last pass:
    the closed loop's one, or the open loop's last (by convention
    highest) swept rate, each of which keeps its own block under
    ``results.open_loop.rates``.
    """
    passes, expected, stats = run["passes"], run["expected"], run["stats"]
    last = passes[-1]
    tenants = {}
    for tenant, indices in run["tenant_indices"].items():
        index = np.asarray(indices, dtype=np.int64)
        sent = index.size * len(passes)
        completed = sum(int(np.count_nonzero(p.predictions[index] >= 0)) for p in passes)
        tenants[tenant] = {
            "sent": sent,
            "completed": completed,
            "rejected": sum(int(p.rejected[index].sum()) for p in passes),
            "dropped": sent - completed,
            "match_single": all(
                np.array_equal(p.predictions[index], expected[index]) for p in passes
            ),
        }
    throughput = config.n_requests / max(last.elapsed, 1e-12)
    sequential_rps = config.n_requests / max(run["sequential_elapsed"], 1e-12)
    results = {
        "throughput_rps": throughput,
        "sequential_rps": sequential_rps,
        "speedup_vs_sequential": throughput / max(sequential_rps, 1e-12),
        "elapsed_seconds": sum(p.elapsed for p in passes),
        "sequential_elapsed_seconds": run["sequential_elapsed"],
        "latency_seconds": _latency(last.latencies, ("p50", "p99")),
        "requests": {
            "sent": config.n_requests * len(passes),
            "completed": sum(block["completed"] for block in tenants.values()),
            "rejected": sum(block["rejected"] for block in tenants.values()),
            "dropped": stats["dropped"],
        },
        "fleet": {"tenants": tenants, "registry": run["registry"]},
        **run["blocks"],
    }
    if config.mode == "open":
        results["open_loop"] = {
            "rates": [
                {
                    "rate": float(rate),
                    "achieved_rps": config.n_requests / max(p.elapsed, 1e-12),
                    "requests": config.n_requests,
                    "max_lag_seconds": max(0.0, p.max_lag),
                    "latency_seconds": _latency(p.latencies, tuple(_PERCENTILES)),
                }
                for rate, p in zip(config.rates, passes)
            ]
        }
    else:
        results["timeline"] = throughput_timeline(last.answered, last.elapsed)

    zero_dropped = stats["dropped"] == 0 and stats["failed"] == 0
    match = all(np.array_equal(p.predictions, expected) for p in passes)
    swap = results["swap"]
    checks = {
        "predictions_match_single": match,
        "zero_dropped": zero_dropped,
        "per_tenant_bit_identity": all(block["match_single"] for block in tenants.values()),
        "swap_zero_downtime": not swap["performed"] or bool(
            swap["version_after"] == swap["version_before"] + 1
            and swap["availability"] == 1.0
            and zero_dropped
        ),
    }
    if config.n_shards > 1:
        checks["shard_outputs_match"] = match
        chaos = results["sharding"]["chaos"]
        if chaos["performed"]:
            checks["shard_recovery"] = bool(
                stats["respawns"] >= 1 and zero_dropped and chaos["availability"] == 1.0
            )

    fleet = f"-fleet{config.n_tenants}" if config.n_tenants > 1 else ""
    return {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "workload": {
            "name": workload.name + fleet + ("-open" if config.mode == "open" else ""),
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
            "mode": config.mode,
        },
        "service": {
            "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms,
            "max_queue_depth": config.max_queue_depth,
            "tenant_quota": config.tenant_quota,
            "cache_budget_bytes": config.cache_budget_bytes,
            "n_shards": config.n_shards,
            "fused_active": run["fused_active"],
        },
        "results": results,
        "checks": checks,
        "environment": environment(),
        "telemetry": run["telemetry"],
    }


def run_loadgen(
    workload: BenchWorkload,
    config: LoadgenConfig | None = None,
) -> dict:
    """Fit, round-trip and serve the tenants; build the validated payload.

    Deterministic apart from wall-clock numbers: the workload is
    pinned-seed synthetic and each tenant's requests cycle its test
    split.  ``config.n_tenants > 1`` mixes tenants per ``scenario``;
    ``mode``, ``n_shards`` and the two under-load events pick the driver,
    the target and the halfway hook, not a different pipeline.
    """
    config = config if config is not None else LoadgenConfig()
    tenants, classifiers, pools = _fit_fleet(workload, config.n_tenants)
    schedule = _tenant_schedule(
        config.n_requests, config.n_tenants, config.scenario, workload.seed
    )
    requests, tenant_indices = _request_pool(
        tenants, pools, schedule, config.n_requests, workload.n_features
    )
    tenant_of = [tenants[tenant_id] for tenant_id in schedule]

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        paths = {
            tenant: str(save_classifier(classifiers[tenant], Path(tmp) / f"{tenant}.npz"))
            for tenant in tenants
        }
        models = {tenant: load_classifier(path) for tenant, path in paths.items()}

        # Sequential oracle over the loaded artifacts: the bit-identity
        # reference and the speedup baseline.  One warm-up predict per
        # model first, so the timed loop runs on built tables, as a
        # deployed model would.
        for tenant in tenants:
            models[tenant].predict(pools[tenant][:1])
        expected = np.full(config.n_requests, -1, dtype=np.int64)
        started = time.perf_counter()
        for tenant, indices in tenant_indices.items():
            for index in indices:
                expected[index] = models[tenant].predict(requests[index])
        sequential_elapsed = time.perf_counter() - started

        telemetry_registry = telemetry.MetricsRegistry(enabled=True)
        with telemetry.activated(telemetry_registry):
            run = asyncio.run(
                _serve(config, requests, tenant_of, paths, models, workload.seed)
            )

    run.update(
        expected=expected,
        tenant_indices=tenant_indices,
        sequential_elapsed=sequential_elapsed,
        fused_active=all(
            clf.config.fused_inference and clf.fused_engine().enabled
            for clf in models.values()
        ),
        telemetry=telemetry_registry.snapshot(),
    )
    return validate_serving_payload(_payload(workload, config, run))


def fleet_config(profile: str, config: LoadgenConfig | None = None) -> LoadgenConfig:
    """The default fleet shape for a ``fleet-*`` profile.

    3 tenants (the bench gate's floor) under the ``mixed`` scenario, a
    per-tenant quota at half the global bound (so quota backpressure is
    actually exercised), and one hot-swap under load wherever the target
    is the in-process service.  An explicit ``config`` that already asks
    for tenants is passed through untouched.
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
        swap_under_load=base.n_shards == 1,
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
