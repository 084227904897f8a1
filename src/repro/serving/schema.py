"""Schema for the ``BENCH_serving.json`` artifact.

Field spec plus named gates for :mod:`repro.utils.artifact`. Beyond
structure, the schema *is* the serving acceptance gate: a payload whose
microbatched predictions diverged from single-request ``predict``, or
that dropped an admitted request, fails validation — CI and tests call
:func:`validate_serving_payload` so a regression cannot write a
plausible-looking artifact.
"""

from __future__ import annotations

from repro.telemetry.schema import SNAPSHOT
from repro.utils.artifact import (
    COUNT, ENVIRONMENT, MODEL_CONFIG, Fixed, Gated, Int, ListOf, MapOf, Number, check, require,
    validate,
)

#: v3: ``workload.mode`` ("closed" | "open"), ``service.n_shards``, the
#: closed-loop ``results.timeline`` block (warmup-excluded steady rps),
#: the open-loop ``results.open_loop`` rate sweep (coordinated-omission-
#: safe percentiles), and the ``results.sharding`` block + gates for runs
#: driven through :class:`~repro.serving.shard.ShardedServer`.
SERVING_SCHEMA_VERSION = 3

#: Valid ``workload.mode`` values: ``closed`` — each worker holds one
#: request in flight (latency under self-throttling); ``open`` — requests
#: arrive on a fixed seeded schedule regardless of completions (latency
#: under offered load, immune to coordinated omission).
MODES = ("closed", "open")

_POSITIVE = Number(gt=0)
_SECONDS = Number(ge=0)
_COUNTS = ("sent", "completed", "rejected", "dropped")
_ACCEPTOR = ("forwarded", "answered", "failed", "retried", "respawns", "cancelled", "dropped")
_OPEN_LOOP_LATENCIES = ("p50", "p90", "p99", "p999", "max")
_THROUGHPUTS = ("throughput_rps", "sequential_rps", "speedup_vs_sequential")

#: Closed-loop blocks. Batch/flush accounting comes from the one
#: in-process service a closed-loop run drives; a sharded open-loop run
#: has one service per shard process and reports per-shard blocks via
#: health instead. ``timeline.steady_rps`` (warmup buckets excluded) is
#: the headline number; the raw bucket series stays in the artifact so a
#: reader can see the ramp the headline excludes.
_CLOSED_LOOP = {
    "batches": {"count": Int(ge=1), "mean_size": _POSITIVE, "max_size": _POSITIVE},
    "flush_reasons": MapOf(COUNT),
    "timeline": {
        "bucket_seconds": _POSITIVE,
        "buckets_rps": ListOf(_SECONDS),
        "warmup_buckets": COUNT,
        **dict.fromkeys(("steady_rps", "overall_rps"), _POSITIVE),
    },
}
#: Open-loop rate sweep: per-rate coordinated-omission-safe percentiles.
_OPEN_LOOP = {
    "rate": _POSITIVE,
    "achieved_rps": _POSITIVE,
    "requests": Int(ge=1),
    "max_lag_seconds": _SECONDS,
    "latency_seconds": dict.fromkeys(("p50", "p90", "p99", "p999", "mean", "max"), _SECONDS),
}
_SHARDING = {
    "acceptor": {**dict.fromkeys(_ACCEPTOR, COUNT), "dropped": 0},
    "chaos": {"performed": bool},
}
_FLEET = {
    "fleet": {
        "tenants": MapOf({**dict.fromkeys(_COUNTS, COUNT), "match_single": bool}),
        "registry": {},
    },
    "swap": {"performed": bool},
}
_SWAP = {"version_before": int, "version_after": int, "availability": 1.0}


def _ordered(latency: dict, fields: tuple) -> bool:
    values = [latency[field] for field in fields]
    return values == sorted(values)


def _mode_blocks(payload: dict) -> None:
    """A closed-loop run's batch, flush and timeline accounting adds up; an
    open-loop run carries its rate sweep with ordered percentiles."""
    results = payload["results"]
    if payload["workload"]["mode"] == "open":
        check({"open_loop": {"rates": ListOf(_OPEN_LOOP)}}, results, "results")
        for block in results["open_loop"]["rates"]:
            require(
                _ordered(block["latency_seconds"], _OPEN_LOOP_LATENCIES),
                "open-loop latency percentiles must be ordered",
            )
        return
    check(_CLOSED_LOOP, results, "results")
    require(
        sum(results["flush_reasons"].values()) == results["batches"]["count"],
        "flush_reasons must sum to batches.count",
    )
    timeline = results["timeline"]
    require(
        timeline["warmup_buckets"] < len(timeline["buckets_rps"]),
        "timeline.warmup_buckets must leave at least one steady bucket",
    )


def _percentiles_ordered(payload: dict) -> None:
    require(
        _ordered(payload["results"]["latency_seconds"], ("p50", "p99", "max")),
        "latency percentiles must be ordered: p50 <= p99 <= max",
    )


def _requests_conserved(payload: dict) -> None:
    """Every request sent completes, ``n_requests`` per swept rate, with
    predictions bit-identical to single-request ``predict``."""
    results, workload = payload["results"], payload["workload"]
    requests = results["requests"]
    rates = len(results["open_loop"]["rates"]) if workload["mode"] == "open" else 1
    require(
        requests["sent"] == workload["n_requests"] * rates,
        "requests.sent must equal workload.n_requests per swept rate",
    )
    require(
        requests["completed"] == requests["sent"],
        "every sent request must complete (requests.completed == requests.sent)",
    )
    require(
        payload["checks"]["predictions_match_single"],
        "microbatched predictions diverged from single-request predict",
    )


def _sharded_run_recovered(payload: dict) -> None:
    """Acceptor accounting balances, bit-identity holds, and a chaos kill
    (when performed) recovered with availability 1.0."""
    n_shards = payload["service"]["n_shards"]
    if n_shards == 1:
        return
    check(_SHARDING, payload["results"].get("sharding"), "results.sharding")
    check({"shard_outputs_match": True}, payload["checks"], "checks")
    sharding = payload["results"]["sharding"]
    chaos = sharding["chaos"]
    if chaos["performed"]:
        check({"shard": COUNT, "availability": 1.0}, chaos, "results.sharding.chaos")
        check({"shard_recovery": True}, payload["checks"], "checks")
        require(chaos["shard"] < n_shards, "chaos.shard must be a valid shard index")
        require(
            sharding["acceptor"]["respawns"] >= 1,
            "a performed chaos kill must be answered by >= 1 respawn",
        )


def _fleet_balanced(payload: dict) -> None:
    """Every tenant balances to zero dropped and is bit-identical to its
    single-model sequential oracle, and a hot-swap under load (when
    performed) bumps the version with availability 1.0."""
    n_tenants = payload["workload"]["n_tenants"]
    if n_tenants == 1:
        return
    results = payload["results"]
    check(_FLEET, results, "results")
    check({"per_tenant_bit_identity": True}, payload["checks"], "checks")
    tenants = results["fleet"]["tenants"]
    require(
        len(tenants) == n_tenants,
        f"results.fleet.tenants must describe all {n_tenants} tenants",
    )
    for tenant, stats in tenants.items():
        require(stats["dropped"] == 0, f"tenant {tenant!r} dropped admitted requests")
        require(
            stats["match_single"],
            f"tenant {tenant!r} predictions diverged from its single-model oracle",
        )
    require(
        sum(stats["sent"] for stats in tenants.values()) == results["requests"]["sent"],
        "per-tenant sent counts must sum to requests.sent",
    )
    swap = results["swap"]
    if swap["performed"]:
        check(_SWAP, swap, "results.swap")
        check({"swap_zero_downtime": True}, payload["checks"], "checks")
        require(
            swap["version_after"] == swap["version_before"] + 1,
            "a performed swap must bump the tenant version by exactly 1",
        )


_SERVING = Gated(
    {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "workload": {
            **MODEL_CONFIG,
            **dict.fromkeys(("n_requests", "concurrency"), int),
            "n_tenants": Int(ge=1),
            "mode": Fixed(*MODES),
            "scenario": str,
        },
        "service": {
            **dict.fromkeys(("max_batch", "max_queue_depth", "n_shards"), Int(ge=1)),
            "max_wait_ms": _POSITIVE,
            "fused_active": bool,
        },
        "results": {
            **dict.fromkeys(_THROUGHPUTS, _POSITIVE),
            "latency_seconds": dict.fromkeys(("p50", "p99", "mean", "max"), _SECONDS),
            "requests": {**dict.fromkeys(_COUNTS, COUNT), "dropped": 0},
        },
        "checks": {"predictions_match_single": bool, "zero_dropped": True},
        "environment": ENVIRONMENT,
        "telemetry": SNAPSHOT,
    },
    (
        _mode_blocks,
        _percentiles_ordered,
        _requests_conserved,
        _sharded_run_recovered,
        _fleet_balanced,
    ),
)


def validate_serving_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_serving.json`` payload; returns it or raises ``ValueError``."""
    return validate("serving", _SERVING, payload)
