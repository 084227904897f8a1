"""Schema for the ``BENCH_training.json`` / ``BENCH_inference.json`` artifacts.

Field spec plus named gates for :mod:`repro.utils.artifact`: CI and
tests call :func:`validate_bench_payload` to guarantee the files every
PR writes stay machine-readable and comparable across the repo's
history.
"""

from __future__ import annotations

from repro.telemetry.schema import SNAPSHOT
from repro.utils.artifact import (
    ENVIRONMENT, MODEL_CONFIG, Fixed, Gated, Int, ListOf, MapOf, Number, Omittable, require,
    validate,
)

SCHEMA_VERSION = 1

#: Timing stanzas required per workload, by benchmark kind.
_REQUIRED_TIMINGS = {
    "inference": ("encode_reference", "encode_fused", "predict_reference", "predict_fused"),
    "training": ("train_reference", "train_lookup"),
}
_REQUIRED_SPEEDUPS = {"inference": ("encode", "predict"), "training": ("train",)}
_TIMING = {
    "seconds_median": Number(ge=0),
    **dict.fromkeys(("seconds_best", "samples_per_second", "repeats"), float),
}
#: Numbers every scaling point carries beside its hash and flags.
_SCALING_POINT_NUMBERS = (
    "seconds_median",
    "samples_per_second",
    "speedup_vs_workers1",
    "busy_seconds",
    "setup_seconds",
    "merge_seconds",
    "utilisation",
)
_SCALING = {
    "worker_counts": ListOf(Int(ge=1)),
    "cpu_count": Int(ge=1),
    "points": ListOf(
        {
            "n_workers": int,
            **dict.fromkeys(_SCALING_POINT_NUMBERS, Number(ge=0)),
            "outputs_sha256": str,
            **dict.fromkeys(("outputs_match", "in_process"), bool),
        }
    ),
}


def _kind_stanzas_present(payload: dict) -> None:
    kind = payload["benchmark"]
    for index, entry in enumerate(payload["workloads"]):
        for name in _REQUIRED_TIMINGS[kind]:
            require(name in entry["timings"], f"workloads[{index}].timings missing {name!r}")
        for name in _REQUIRED_SPEEDUPS[kind]:
            require(name in entry["speedups"], f"workloads[{index}].speedups missing {name!r}")


def _outputs_match(payload: dict) -> None:
    for entry in payload["workloads"]:
        require(
            entry["checks"]["outputs_match"],
            f"workload {entry['name']!r} fused/reference outputs diverged",
        )


def _scaling_bit_identical(payload: dict) -> None:
    """A training bench's scaling block has one point per swept worker count,
    and the parallel trainer matched the sequential one — a scaling
    artifact whose parallel trainer diverged is invalid, not merely slow."""
    for entry in payload["workloads"]:
        if "scaling" not in entry:
            continue
        label, scaling = entry["name"], entry["scaling"]
        require(
            payload["benchmark"] == "training",
            f"workload {label!r} has a scaling block outside a training bench",
        )
        require(
            sorted(point["n_workers"] for point in scaling["points"])
            == sorted(scaling["worker_counts"]),
            f"workload {label!r} scaling.points must have one entry per worker count",
        )
        require(
            entry["checks"].get("parallel_outputs_match") is True,
            f"workload {label!r} parallel trainer diverged from sequential "
            "(checks.parallel_outputs_match must be True)",
        )


_BENCH = Gated(
    {
        "schema_version": SCHEMA_VERSION,
        "benchmark": Fixed(*_REQUIRED_TIMINGS),
        "profile": str,
        "environment": ENVIRONMENT,
        "workloads": ListOf(
            {
                "name": str,
                "config": MODEL_CONFIG,
                # Every stanza present — required or extra (e.g.
                # train_parallel_w4) — must be well-formed.
                "timings": MapOf(_TIMING),
                "speedups": MapOf(Number(gt=0)),
                "checks": {"outputs_match": bool, "outputs_sha256": str},
                "scaling": Omittable(_SCALING),
            }
        ),
        # Optional so pre-telemetry payloads keep validating; the current
        # runner always embeds an instrumented-pass snapshot.
        "telemetry": Omittable(SNAPSHOT),
    },
    (_kind_stanzas_present, _outputs_match, _scaling_bit_identical),
)


def validate_bench_payload(payload: object, benchmark: str | None = None) -> dict:
    """Validate a loaded ``BENCH_*.json`` payload; returns it on success.

    ``benchmark`` (``"training"`` or ``"inference"``), when given, is the
    kind the payload must be. Raises ``ValueError`` naming the first
    violation found.
    """
    validate("bench", _BENCH, payload)
    if benchmark is not None:
        validate("bench", {"benchmark": benchmark}, payload)
    return payload
