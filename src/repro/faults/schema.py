"""Schema for ``BENCH_faults.json`` reports.

Field spec plus named gates for :mod:`repro.utils.artifact`: tests and CI
validate every report so the fault harness's output stays
machine-readable and comparable across the repo's history.
"""

from __future__ import annotations

from repro.utils.artifact import (
    ENVIRONMENT, FRACTION, MODEL_CONFIG, Gated, Int, ListOf, MapOf, Number, Omittable, require,
    validate,
)

FAULTS_SCHEMA_VERSION = 1

_REQUIRED_MODELS = ("plain", "compressed", "decorrelated")
_NOISE = Omittable({"noise_to_signal": Number(ge=0), "rank_flip_rate": Number(ge=0)}, null=True)
_CURVE_POINT = {
    **dict.fromkeys(("ber", "accuracy_std", "accuracy_min", "accuracy_drop"), float),
    "accuracy_mean": FRACTION,
    "trials": Int(ge=1),
}


def _curves_cover_sweep(payload: dict) -> None:
    for model in payload["models"]:
        require(
            len(model["curve"]) == len(payload["config"]["bers"]),
            f"model {model['name']!r} curve must have one point per swept BER",
        )


def _variants_present(payload: dict) -> None:
    names = [model["name"] for model in payload["models"]]
    for required in _REQUIRED_MODELS:
        require(required in names, f"models must include the {required!r} variant")


_FAULTS = Gated(
    {
        "schema_version": FAULTS_SCHEMA_VERSION,
        "benchmark": "faults",
        "config": {**MODEL_CONFIG, "bers": ListOf(FRACTION), "trials": int, "targets": ListOf(str)},
        "environment": ENVIRONMENT,
        "models": ListOf(
            {
                "name": str,
                "clean_accuracy": FRACTION,
                "exposed_bits": int,
                "curve": ListOf(_CURVE_POINT),
                "max_safe_ber": Omittable(float, null=True),
                "noise_clean": _NOISE,
                "noise_at_max_ber": _NOISE,
            }
        ),
        "feature_noise": ListOf({"sigma": Number(ge=0), "accuracy": MapOf(FRACTION)}, empty=True),
        "checks": {"chance_accuracy": FRACTION, "accuracy_drop_budget": FRACTION},
    },
    (_curves_cover_sweep, _variants_present),
)


def validate_faults_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_faults.json`` payload; returns it or raises ``ValueError``."""
    return validate("faults", _FAULTS, payload)
