"""Backend registry and dispatcher for the hot-path primitives.

One registry process-wide.  Each primitive (see
:data:`repro.kernels.reference.OP_NAMES`) resolves to a backend lazily,
at its first dispatch:

* ``numpy`` — the reference implementation, always available.
* ``numba`` — the compiled backend, used only if the ``numba`` package
  imports *and* the candidate kernel reproduces the reference bit for
  bit on the op's verification probes.  Any mismatch or compile error
  demotes that op to ``numpy`` with a warning and a
  ``kernels.demoted`` telemetry counter — a compiled kernel never
  silently serves different bits.

Selection is global: the ``REPRO_KERNEL_BACKEND`` environment variable
(``auto`` | ``numpy`` | ``numba``, read once at import) sets the initial
mode, and :func:`set_backend` changes it at runtime.  ``auto`` means
"numba when it is importable and verifies, numpy otherwise"; ``numba``
means the same but warns when it falls back; ``numpy`` pins the
reference.  Every :func:`set_backend` call bumps a monotonic
:func:`backend_version` counter so callers caching backend-derived state
can invalidate on a switch.

Dispatch is batch-level — one :func:`dispatch` per training batch or
inference batch, never per sample — so the resolution check and the
``kernels.dispatch{primitive=,backend=}`` telemetry counter cost nothing
measurable against the kernel itself.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro import telemetry
from repro.kernels import numba_backend, reference
from repro.kernels.reference import OP_NAMES, REFERENCE_OPS, probe_inputs

#: Environment variable consulted once at import time.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Modes accepted by ``set_backend`` / the env var.
BACKEND_MODES = ("auto", "numpy", "numba")


class KernelBackendWarning(UserWarning):
    """A requested compiled backend was unavailable or failed verification."""


#: Candidate backend factories, each returning ``{op_name: callable}``
#: (empty when the backend cannot run here).  Tests register throwaway
#: factories via :func:`register_backend_factory` to exercise the
#: verify-and-demote machinery without Numba installed.
_BACKEND_FACTORIES: dict[str, object] = {"numba": numba_backend.build_ops}

_mode: str = "auto"
_backend_version: int = 0
#: op -> resolved backend name ("numpy"/"numba"/...); absent = pending.
_resolved: dict[str, str] = {}
_resolved_fns: dict[str, object] = {}
#: op -> human-readable reason the compiled candidate was demoted.
_demotions: dict[str, str] = {}
#: factory name -> built ops dict (built at most once per mode epoch).
_built_ops: dict[str, dict] = {}


def _read_env_mode() -> str:
    requested = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower()
    if requested not in BACKEND_MODES:
        warnings.warn(
            f"{BACKEND_ENV_VAR}={requested!r} is not one of {BACKEND_MODES}; "
            "using 'auto'",
            KernelBackendWarning,
            stacklevel=2,
        )
        return "auto"
    return requested


def _reset_resolution() -> None:
    _resolved.clear()
    _resolved_fns.clear()
    _demotions.clear()
    _built_ops.clear()


def current_mode() -> str:
    """The active selection mode (``auto`` | ``numpy`` | ``numba``)."""
    return _mode


def backend_version() -> int:
    """Monotonic counter bumped by every :func:`set_backend` call.

    Callers that cache backend-derived state compare this against the
    value at build time and rebuild when it moved (same idiom as the
    model/codebook version counters from PR 1).
    """
    return _backend_version


def set_backend(mode: str) -> None:
    """Select the kernel backend mode at runtime.

    Resets all per-op resolutions (so the next dispatch re-resolves
    under the new mode) and bumps :func:`backend_version`.
    """
    global _mode, _backend_version
    if mode not in BACKEND_MODES:
        raise ValueError(f"backend mode must be one of {BACKEND_MODES}, got {mode!r}")
    _mode = mode
    _backend_version += 1
    _reset_resolution()


def register_backend_factory(name: str, factory) -> None:
    """Register (or replace) a compiled-backend factory under ``name``.

    ``factory()`` must return ``{op_name: callable}``.  Registering
    resets resolution state so the new factory takes effect on the next
    dispatch.  Primarily a test seam: the registry's verify-and-demote
    path is exercised with deliberately wrong fake backends.
    """
    if name == "numpy":
        raise ValueError("'numpy' names the reference and cannot be replaced")
    _BACKEND_FACTORIES[name] = factory
    _reset_resolution()


def _outputs_match(expected, actual) -> bool:
    expected = np.asarray(expected)
    try:
        actual = np.asarray(actual)
    except Exception:
        return False
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and np.array_equal(actual, expected)
    )


def verify_candidate(op: str, fn) -> str | None:
    """Run ``fn`` against the reference on the op's probes.

    Returns ``None`` when every probe matches bit for bit (values,
    dtype, and shape), else a human-readable mismatch reason.
    """
    ref = REFERENCE_OPS[op]
    for probe in probe_inputs(op):
        expected = ref(*probe)
        try:
            actual = fn(*probe)
        except Exception as error:  # noqa: BLE001 - any failure demotes
            return f"probe raised {type(error).__name__}: {error}"
        if not _outputs_match(expected, actual):
            return "probe output differs from the NumPy reference"
    return None


def _demote(op: str, backend: str, reason: str, warn: bool) -> None:
    _demotions[op] = f"{backend}: {reason}"
    telemetry.count("kernels.demoted", primitive=op, backend=backend)
    if warn:
        warnings.warn(
            f"kernel backend {backend!r} demoted to numpy for {op!r}: {reason}",
            KernelBackendWarning,
            stacklevel=3,
        )


def _candidate_ops(name: str) -> dict:
    if name not in _built_ops:
        factory = _BACKEND_FACTORIES[name]
        try:
            _built_ops[name] = factory() or {}
        except Exception as error:  # noqa: BLE001 - a broken factory means no backend
            warnings.warn(
                f"kernel backend {name!r} failed to initialise: {error}",
                KernelBackendWarning,
                stacklevel=3,
            )
            _built_ops[name] = {}
    return _built_ops[name]


def _resolve(op: str) -> None:
    if op not in REFERENCE_OPS:
        raise KeyError(f"unknown kernel op {op!r}; known: {OP_NAMES}")
    explicit = _mode not in ("auto", "numpy")
    if _mode == "numpy":
        candidates: tuple[str, ...] = ()
    elif _mode == "auto":
        candidates = tuple(_BACKEND_FACTORIES)
    else:
        candidates = (_mode,)
    for name in candidates:
        ops = _candidate_ops(name)
        fn = ops.get(op)
        if fn is None:
            if explicit:
                _demote(op, name, "backend does not provide this op", warn=True)
            continue
        reason = verify_candidate(op, fn)
        if reason is None:
            _resolved[op] = name
            _resolved_fns[op] = fn
            return
        _demote(op, name, reason, warn=True)
    _resolved[op] = "numpy"
    _resolved_fns[op] = REFERENCE_OPS[op]


def dispatch(op: str, *args, **kwargs):
    """Run ``op`` on its resolved backend, counting the dispatch."""
    fn = _resolved_fns.get(op)
    if fn is None:
        _resolve(op)
        fn = _resolved_fns[op]
    telemetry.count("kernels.dispatch", primitive=op, backend=_resolved[op])
    return fn(*args, **kwargs)


def active_backends() -> dict[str, str]:
    """``{op: backend_name}`` for every primitive (forces resolution).

    This is the deployment introspection hook: surfaced by ``repro
    stats`` and the parallel trainer's ``last_parallel_stats`` so an
    operator can confirm the compiled path is actually live.
    """
    for op in OP_NAMES:
        if op not in _resolved:
            _resolve(op)
    return {op: _resolved[op] for op in OP_NAMES}


def backend_impl(op: str, backend: str):
    """The raw (verified) callable for ``op`` on ``backend``, or ``None``.

    Used by the kernel bench to time a specific backend regardless of
    the active mode.  ``numpy`` always returns the reference; a compiled
    backend returns its kernel only if present and probe-verified.
    """
    if op not in REFERENCE_OPS:
        raise KeyError(f"unknown kernel op {op!r}; known: {OP_NAMES}")
    if backend == "numpy":
        return REFERENCE_OPS[op]
    if backend not in _BACKEND_FACTORIES:
        return None
    fn = _candidate_ops(backend).get(op)
    if fn is None or verify_candidate(op, fn) is not None:
        return None
    return fn


def demotions() -> dict[str, str]:
    """``{op: reason}`` for ops whose compiled candidate was demoted."""
    return dict(_demotions)


def describe() -> dict:
    """A JSON-ready summary of the registry state (for stats/bench)."""
    return {
        "mode": _mode,
        "numba_available": numba_backend.available(),
        "numba_version": numba_backend.numba_version(),
        "backend_version": _backend_version,
        "active": active_backends(),
        "demotions": demotions(),
    }


_mode = _read_env_mode()
