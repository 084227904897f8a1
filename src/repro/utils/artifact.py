"""One checker, environment stamp and writer for the gated artifacts.

Each artifact (``BENCH_*.json`` and the ``repro stats`` report) has a
field spec plus named gate functions. In a spec, a ``dict`` is a JSON
object with those keys, :class:`ListOf` a list, :class:`MapOf` an object
with free string keys and :class:`Omittable` a key that may be left out.
A leaf is ``int`` (never a bool), ``float`` (any finite number), ``str``
(non-empty), ``bool``, a bounded :func:`Int` or :func:`Number`, one of
:func:`Fixed` values, or a plain value the field must equal (``True``,
``0``, ``"faults"``). :class:`Gated` runs gate functions once its spec
holds. Gates carry what structure cannot say (bit-identity, zero drops,
ordered percentiles, sums) through :func:`require`, and may
:func:`check` a block that only some payloads carry. A failure raises
``ValueError("<kind> schema violation: <dotted.path> must be ...")``.
There is no jsonschema dependency: the smoke CI jobs install only numpy
and scipy.
"""

from __future__ import annotations

import json
import math
import operator
import platform
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Callable

import numpy as np


class _Violation(ValueError):
    """A failed field or gate; :func:`validate` prefixes the artifact kind."""


def require(condition: bool, message: str) -> None:
    """Fail the payload under validation with ``message`` unless ``condition``."""
    if not condition:
        raise _Violation(message)


@dataclass(frozen=True)
class Leaf:
    """A scalar field: ``test`` accepts the values that ``description`` names."""

    description: str
    test: Callable[[object], bool]


@dataclass(frozen=True)
class ListOf:
    """A list of ``item``; non-empty unless ``empty``."""

    item: object
    empty: bool = False


@dataclass(frozen=True)
class MapOf:
    """An object with free non-empty string keys, each value a ``value``."""

    value: object
    empty: bool = False


@dataclass(frozen=True)
class Omittable:
    """An object key that may be left out, or with ``null`` also set to null."""

    spec: object
    null: bool = False


@dataclass(frozen=True)
class Gated:
    """``spec``, then each gate called with the value once ``spec`` holds."""

    spec: object
    gates: tuple[Callable[[dict], None], ...]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    return isinstance(value, int) or math.isfinite(value)


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _bounded(kind: str, is_kind: Callable[[object], bool], limits: dict) -> Leaf:
    limits = {symbol: bound for symbol, bound in limits.items() if bound is not None}
    text = " and ".join(f"{symbol} {bound}" for symbol, bound in limits.items())
    return Leaf(
        f"{kind} {text}".rstrip(),
        lambda value: is_kind(value)
        and all(_COMPARE[symbol](value, bound) for symbol, bound in limits.items()),
    )


def Int(ge: int | None = None) -> Leaf:
    """An int, never a bool, at least ``ge`` when given."""
    return _bounded("an int", _is_int, {">=": ge})


def Number(ge: float | None = None, gt: float | None = None, le: float | None = None) -> Leaf:
    """A finite number, never a bool, within the given bounds."""
    return _bounded("a finite number", _is_finite, {">=": ge, ">": gt, "<=": le})


def _same_kind(found: object, value: object) -> bool:
    if isinstance(value, bool):
        return isinstance(found, bool)
    if isinstance(value, int):
        return _is_int(found)
    return not isinstance(found, bool)


def Fixed(*values: object) -> Leaf:
    """One of ``values``; a bool matches only a bool and an int only an int,
    so ``1`` is never ``true`` and ``0.0`` is never ``0``."""
    shown = " or ".join(json.dumps(value) for value in values)
    return Leaf(
        f"one of {shown}" if len(values) > 1 else shown,
        lambda found: any(found == value and _same_kind(found, value) for value in values),
    )


COUNT = Int(ge=0)
FRACTION = Number(ge=0, le=1)
_TYPES = {
    int: Int(),
    float: Number(),
    str: Leaf("a non-empty string", lambda value: isinstance(value, str) and bool(value)),
    bool: Leaf("a bool", lambda value: isinstance(value, bool)),
}

#: The ``environment`` block every artifact carries (see :func:`environment`).
ENVIRONMENT = dict.fromkeys(("python", "numpy", "platform"), str)
#: The LookHD geometry and seed every artifact's workload or config records.
MODEL_CONFIG = dict.fromkeys(
    ("dim", "levels", "chunk_size", "n_features", "n_classes", "seed"), int
)


def check(spec: object, value: object, path: str = "") -> None:
    """Check ``value`` against ``spec``; ``path`` is its dotted name in messages."""
    where = path or "payload"
    if isinstance(spec, type):
        spec = _TYPES[spec]
    if isinstance(spec, Leaf):
        require(spec.test(value), f"{where} must be {spec.description}")
    elif isinstance(spec, dict):
        require(isinstance(value, dict), f"{where} must be a JSON object")
        for key, field in spec.items():
            if isinstance(field, Omittable):
                if key not in value or (field.null and value[key] is None):
                    continue
                field = field.spec
            check(field, value.get(key), f"{path}.{key}" if path else key)
    elif isinstance(spec, ListOf):
        require(
            isinstance(value, list) and (spec.empty or bool(value)),
            f"{where} must be a {'' if spec.empty else 'non-empty '}list",
        )
        for index, item in enumerate(value):
            check(spec.item, item, f"{where}[{index}]")
    elif isinstance(spec, MapOf):
        require(
            isinstance(value, dict) and (spec.empty or bool(value)),
            f"{where} must be a {'' if spec.empty else 'non-empty '}JSON object",
        )
        for key, item in value.items():
            require(isinstance(key, str) and bool(key), f"{where} keys must be non-empty strings")
            check(spec.value, item, f"{where}[{key!r}]")
    elif isinstance(spec, Gated):
        check(spec.spec, value, path)
        for gate in spec.gates:
            gate(value)
    else:
        check(Fixed(spec), value, path)


def validate(kind: str, spec: object, payload: object) -> dict:
    """Check a whole ``kind`` artifact against ``spec``; returns ``payload``."""
    try:
        check(spec, payload)
    except _Violation as violation:
        raise ValueError(f"{kind} schema violation: {violation}") from None
    return payload


def environment() -> dict:
    """The interpreter, NumPy and platform stamp written into every artifact."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write_artifact(path: Path, payload: dict) -> Path:
    """Write ``payload`` as indented, key-sorted JSON, creating its directory.

    Returns ``path``. A NaN or infinity raises ``ValueError`` instead of
    reaching disk as a non-JSON token.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path
