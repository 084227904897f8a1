"""Schema for telemetry snapshots and ``repro stats`` reports.

Field specs plus named gates for :mod:`repro.utils.artifact`. Two levels:

* :func:`validate_snapshot` — any :meth:`MetricsRegistry.snapshot` dict;
  :data:`SNAPSHOT` is also the ``telemetry`` block embedded in
  ``BENCH_*.json``.
* :func:`validate_stats_payload` — the full ``repro stats`` report, which
  additionally must prove the pipeline's key signals were captured:
  fused-path hits, at least one budget fallback *with a reason label*,
  score-table builds, and encoder accumulator selection.  A stats run that lost
  any of these is exactly the silent-observability failure this subsystem
  exists to prevent, so the schema fails it loudly.
"""

from __future__ import annotations

from repro.utils.artifact import (
    COUNT, ENVIRONMENT, MODEL_CONFIG, Gated, ListOf, MapOf, Number, Omittable, require, validate,
)

STATS_SCHEMA_VERSION = 1

#: Counters a ``repro stats`` workload must have exercised (prefix match
#: allows labelled variants).
_REQUIRED_COUNTER_PREFIXES = (
    "inference.fused.queries",
    "inference.fused.fallbacks{",
    "inference.score_table.builds",
    "encoder.encode.batches{",
)


def _histograms_consistent(snapshot: dict) -> None:
    for name, stanza in snapshot["histograms"].items():
        buckets, counts = stanza["buckets"], stanza["counts"]
        require(buckets == sorted(buckets), f"histogram {name!r} buckets must be sorted ascending")
        require(
            len(counts) == len(buckets) + 1,
            f"histogram {name!r} counts must be {len(buckets) + 1} non-negative ints",
        )
        require(
            stanza["count"] == sum(counts),
            f"histogram {name!r} count must equal the sum of its bucket counts",
        )


_TIMER = {"count": COUNT, "total_seconds": Number(ge=0), "max_seconds": Number(ge=0)}
_HISTOGRAM = {
    "buckets": ListOf(float, empty=True),
    "counts": ListOf(COUNT),
    "count": int,
    "total": float,
}
SNAPSHOT = Gated(
    {
        "counters": MapOf(int, empty=True),
        "timers": MapOf(_TIMER, empty=True),
        "histograms": MapOf(_HISTOGRAM, empty=True),
    },
    (_histograms_consistent,),
)


def _pipeline_signals_captured(payload: dict) -> None:
    counters = payload["telemetry"]["counters"]
    for prefix in _REQUIRED_COUNTER_PREFIXES:
        require(
            any(counters[name] > 0 for name in counters if name.startswith(prefix)),
            f"stats run captured no non-zero counter matching {prefix!r} — the workload "
            "failed to exercise that pipeline signal",
        )


_OVERHEAD = {
    "baseline_seconds": Number(ge=0),
    "instrumented_seconds": Number(ge=0),
    "overhead_fraction": float,
}
_STATS = Gated(
    {
        "schema_version": STATS_SCHEMA_VERSION,
        "benchmark": "stats",
        "workload": MODEL_CONFIG,
        "environment": ENVIRONMENT,
        "telemetry": SNAPSHOT,
        "overhead": Omittable(_OVERHEAD, null=True),
    },
    (_pipeline_signals_captured,),
)


def validate_snapshot(snapshot: object) -> dict:
    """Validate a registry snapshot; returns it on success."""
    return validate("telemetry", SNAPSHOT, snapshot)


def validate_stats_payload(payload: object) -> dict:
    """Validate a full ``repro stats`` report; returns it on success."""
    return validate("telemetry", _STATS, payload)
