"""Schema for the ``BENCH_streaming.json`` artifact.

Field spec plus named gates for :mod:`repro.utils.artifact`. Beyond
structure, the schema *is* the streaming acceptance gate: a
payload whose streaming learner failed to recover to within
:data:`RECOVERY_TOLERANCE` of the full-pass oracle after abrupt drift,
whose boundary divergence exceeded the sketch's error guarantee, or
whose live serving section dropped an update or diverged from the
offline replica fails validation — CI and tests call
:func:`validate_streaming_payload` so a regression cannot write a
plausible-looking artifact.
"""

from __future__ import annotations

from repro.telemetry.schema import SNAPSHOT
from repro.utils.artifact import (
    COUNT, ENVIRONMENT, FRACTION, MODEL_CONFIG, Gated, Int, ListOf, MapOf, Number, require,
    validate,
)

STREAMING_SCHEMA_VERSION = 1

#: Acceptance gate: post-drift accuracy gap (full-pass oracle minus
#: streaming learner, tail-averaged) must not exceed this.
RECOVERY_TOLERANCE = 0.02

_MODES = ("incremental", "abrupt")
_REQUIRED_TRUE_CHECKS = (
    "abrupt_recovery_within_tolerance",
    "divergence_within_bound",
    "serving_zero_dropped",
    "serving_live_bit_identity",
)
_SKETCH_COUNTS = ("capacity", "n", "retained", "levels", "compactions", "max_rank_error")

_MODE = {
    "accuracy": dict.fromkeys(("streaming", "oracle"), ListOf(FRACTION)),
    "tail_batches": Int(ge=1),
    **dict.fromkeys(("streaming_tail_accuracy", "oracle_tail_accuracy"), FRACTION),
    "recovery_gap": float,
    "boundary_divergence": Number(ge=0),
    "divergence_bound": Number(gt=0),
    "sketch": {**dict.fromkeys(_SKETCH_COUNTS, COUNT), "rank_error_bound": float},
    "quantizer_version": Int(ge=1),
}


def _modes_consistent(payload: dict) -> None:
    """Each drift mode matches its workload and stays within the sketch bound."""
    workload = payload["workload"]
    for name in _MODES:
        mode = payload["modes"][name]
        for series in ("streaming", "oracle"):
            require(
                len(mode["accuracy"][series]) == workload["n_batches"],
                f"modes.{name}.accuracy.{series} must list one value per batch",
            )
        require(
            mode["tail_batches"] <= workload["n_batches"],
            f"modes.{name}.tail_batches must be in (0, n_batches]",
        )
        gap = mode["oracle_tail_accuracy"] - mode["streaming_tail_accuracy"]
        require(
            abs(mode["recovery_gap"] - gap) < 1e-9,
            f"modes.{name}.recovery_gap must equal oracle minus streaming tail accuracy",
        )
        divergence, bound = mode["boundary_divergence"], mode["divergence_bound"]
        require(
            divergence <= bound,
            f"modes.{name}: streaming boundary placement diverged beyond the "
            f"sketch error guarantee ({divergence} > {bound})",
        )
        require(
            mode["sketch"]["capacity"] == workload["sketch_capacity"],
            f"modes.{name}.sketch.capacity must match workload.sketch_capacity",
        )


def _abrupt_drift_recovered(payload: dict) -> None:
    gap = payload["modes"]["abrupt"]["recovery_gap"]
    require(
        gap <= RECOVERY_TOLERANCE,
        "streaming learner failed to recover to within "
        f"{RECOVERY_TOLERANCE:.0%} of the full-pass oracle after abrupt drift "
        f"(gap {gap})",
    )


def _live_updates_exact(payload: dict) -> None:
    serving = payload["serving"]
    require(serving["dropped"] == 0, "live partial_fit dropped admitted requests")
    require(
        serving["flush_reasons"].get("update") == serving["updates"],
        "serving.flush_reasons['update'] must equal serving.updates",
    )
    require(
        serving["live_matches_offline"],
        "live-served model diverged from the offline sequential replica",
    )


_STREAMING = Gated(
    {
        "schema_version": STREAMING_SCHEMA_VERSION,
        "benchmark": "streaming",
        "workload": {
            **MODEL_CONFIG,
            **dict.fromkeys(("n_batches", "batch_size", "sketch_capacity", "window"), int),
            "drift_magnitude": Number(ge=0),
            "decay": Number(gt=0, le=1),
        },
        "modes": dict.fromkeys(_MODES, _MODE),
        "serving": {
            "updates": Int(ge=1),
            "predicts": Int(ge=1),
            "dropped": COUNT,
            "flush_reasons": MapOf(COUNT),
            "live_matches_offline": bool,
        },
        "checks": dict.fromkeys(_REQUIRED_TRUE_CHECKS, True),
        "environment": ENVIRONMENT,
        "telemetry": SNAPSHOT,
    },
    (_modes_consistent, _abrupt_drift_recovered, _live_updates_exact),
)


def validate_streaming_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_streaming.json`` payload; returns it or raises ``ValueError``."""
    return validate("streaming", _STREAMING, payload)
