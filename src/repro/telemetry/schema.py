"""Structural schema for telemetry snapshots and ``repro stats`` reports.

Hand-rolled like :mod:`repro.bench.schema` (no jsonschema dependency).
Two levels:

* :func:`validate_snapshot` — any :meth:`MetricsRegistry.snapshot` dict
  (also the ``telemetry`` block embedded in ``BENCH_*.json``).
* :func:`validate_stats_payload` — the full ``repro stats`` report, which
  additionally must prove the pipeline's key signals were captured:
  fused-path hits, at least one budget fallback *with a reason label*,
  score-table builds, and encoder accumulator selection.  A stats run that lost
  any of these is exactly the silent-observability failure this subsystem
  exists to prevent, so the schema fails it loudly.
"""

from __future__ import annotations

from numbers import Real

STATS_SCHEMA_VERSION = 1

#: Counters a ``repro stats`` workload must have exercised (prefix match
#: allows labelled variants).
_REQUIRED_COUNTER_PREFIXES = (
    "inference.fused.queries",
    "inference.fused.fallbacks{",
    "inference.score_table.builds",
    "encoder.encode.batches{",
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"telemetry schema violation: {message}")


def _check_number(value: object, message: str, minimum: float = 0.0) -> None:
    _require(
        isinstance(value, Real) and not isinstance(value, bool) and value >= minimum,
        message,
    )


def validate_snapshot(snapshot: object) -> dict:
    """Validate a registry snapshot; returns it on success."""
    _require(isinstance(snapshot, dict), "snapshot must be an object")
    for section in ("counters", "timers", "histograms"):
        _require(isinstance(snapshot.get(section), dict), f"snapshot.{section} must be an object")
    for name, value in snapshot["counters"].items():
        _require(isinstance(name, str), "counter names must be strings")
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"counter {name!r} must be an int",
        )
    for name, stanza in snapshot["timers"].items():
        _require(isinstance(stanza, dict), f"timer {name!r} must be an object")
        _require(
            isinstance(stanza.get("count"), int) and stanza["count"] >= 0,
            f"timer {name!r} count must be a non-negative int",
        )
        for field in ("total_seconds", "max_seconds"):
            _check_number(stanza.get(field), f"timer {name!r} {field} must be a number >= 0")
    for name, stanza in snapshot["histograms"].items():
        _require(isinstance(stanza, dict), f"histogram {name!r} must be an object")
        buckets = stanza.get("buckets")
        counts = stanza.get("counts")
        _require(
            isinstance(buckets, list) and all(isinstance(b, Real) for b in buckets),
            f"histogram {name!r} buckets must be a list of numbers",
        )
        _require(
            list(buckets) == sorted(buckets),
            f"histogram {name!r} buckets must be sorted ascending",
        )
        _require(
            isinstance(counts, list)
            and len(counts) == len(buckets) + 1
            and all(isinstance(c, int) and c >= 0 for c in counts),
            f"histogram {name!r} counts must be {len(buckets) + 1} non-negative ints",
        )
        _require(
            isinstance(stanza.get("count"), int) and stanza["count"] == sum(counts),
            f"histogram {name!r} count must equal the sum of its bucket counts",
        )
        _require(
            isinstance(stanza.get("total"), Real),
            f"histogram {name!r} total must be a number",
        )
    return snapshot


def validate_stats_payload(payload: object) -> dict:
    """Validate a full ``repro stats`` report; returns it on success."""
    _require(isinstance(payload, dict), "payload must be a JSON object")
    _require(
        payload.get("schema_version") == STATS_SCHEMA_VERSION,
        f"schema_version must be {STATS_SCHEMA_VERSION}",
    )
    _require(payload.get("benchmark") == "stats", "benchmark must be 'stats'")
    workload = payload.get("workload")
    _require(isinstance(workload, dict), "workload must be an object")
    for field in ("dim", "levels", "chunk_size", "n_features", "n_classes", "seed"):
        _require(
            isinstance(workload.get(field), int),
            f"workload.{field} must be an int",
        )
    environment = payload.get("environment")
    _require(isinstance(environment, dict), "environment must be an object")
    for field in ("python", "numpy", "platform"):
        _require(
            isinstance(environment.get(field), str),
            f"environment.{field} must be a string",
        )
    telemetry = validate_snapshot(payload.get("telemetry"))
    counters = telemetry["counters"]
    for prefix in _REQUIRED_COUNTER_PREFIXES:
        matching = [name for name in counters if name.startswith(prefix)]
        _require(
            bool(matching),
            f"stats run captured no counter matching {prefix!r} — the workload "
            "failed to exercise that pipeline signal",
        )
        _require(
            any(counters[name] > 0 for name in matching),
            f"counter(s) {matching} are all zero — the workload failed to "
            "exercise that pipeline signal",
        )
    overhead = payload.get("overhead")
    if overhead is not None:
        _require(isinstance(overhead, dict), "overhead must be an object")
        for field in ("baseline_seconds", "instrumented_seconds"):
            _check_number(overhead.get(field), f"overhead.{field} must be a number >= 0")
        _require(
            isinstance(overhead.get("overhead_fraction"), Real),
            "overhead.overhead_fraction must be a number",
        )
    return payload
