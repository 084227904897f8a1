"""Schema for ``BENCH_resilience.json`` reports.

Field spec plus named gates for :mod:`repro.utils.artifact`. Beyond
shape checking, this schema *is* the chaos gate: the recovery
booleans — detection, repair, post-repair bit-identity, and the
supervised-training bit-identity — must be ``True`` for the payload to
validate, so CI fails the moment self-healing regresses, not when a
human reads the numbers.
"""

from __future__ import annotations

from repro.utils.artifact import (
    COUNT, ENVIRONMENT, FRACTION, MODEL_CONFIG, Fixed, Gated, Int, Number, Omittable, require,
    validate,
)

RESILIENCE_SCHEMA_VERSION = 1

#: Recovery outcomes the schema requires to be literally ``True``.
_REQUIRED_TRUE_CHECKS = (
    "derived_fault_detected",
    "derived_fault_repaired",
    "post_repair_bit_identical",
    "training_counters_bit_identical",
)
_SCRUB_COUNTS = ("ticks", "blocks_verified", "errors_detected", "repairs")
_SECONDS = Number(ge=0)


def _worker_kill_respawned(payload: dict) -> None:
    training = payload["training"]
    if training["parallel_executed"]:
        require(
            training["respawns"] >= 1,
            "training.respawns must be >= 1 when the worker kill actually ran "
            "(parallel_executed is true)",
        )


_RESILIENCE = Gated(
    {
        "schema_version": RESILIENCE_SCHEMA_VERSION,
        "benchmark": "resilience",
        "profile": Fixed("full", "smoke"),
        "config": {
            **MODEL_CONFIG,
            "n_requests": int,
            "n_workers": int,
            "fault_ber": FRACTION,
            "fault_target": str,
        },
        "environment": ENVIRONMENT,
        "serving": {
            "requests": Int(ge=1),
            "availability": FRACTION,
            **dict.fromkeys(("detected", "repaired", "post_repair_bit_identical"), bool),
            "detection_seconds": Omittable(_SECONDS, null=True),
            "repair_seconds": Omittable(_SECONDS, null=True),
            "injection": {"target": str, "elements_flipped": Int(ge=1)},
            "scrub": dict.fromkeys(_SCRUB_COUNTS, COUNT),
        },
        "training": {
            "n_workers": int,
            "parallel_executed": bool,
            "respawns": COUNT,
            "counters_bit_identical": bool,
            "class_vectors_bit_identical": bool,
        },
        "overhead": {
            "baseline_seconds": _SECONDS,
            "scrub_attached_seconds": _SECONDS,
            "overhead_fraction": float,
            "budget": _SECONDS,
            "within_budget": bool,
        },
        "checks": {
            **dict.fromkeys(_REQUIRED_TRUE_CHECKS, True),
            "scrub_overhead_within_budget": bool,
        },
    },
    (_worker_kill_respawned,),
)


def validate_resilience_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_resilience.json`` payload; returns it.

    Raises ``ValueError`` naming the first violation found — including
    any failed recovery gate (a chaos run that did not detect, repair, and
    restore bit-identity does not produce a valid report).
    """
    return validate("resilience", _RESILIENCE, payload)
