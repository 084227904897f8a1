"""Self-healing runtime: integrity scrubbing, typed deadlines, fault recovery.

The fault harness (:mod:`repro.faults`) measures what bit errors cost;
this package makes the runtime *tolerate* them:

- :mod:`repro.resilience.retry` — :class:`DeadlineExceededError`, the
  typed ``TimeoutError`` the serving layer raises for a request that
  outlived its deadline and maps to the ``deadline`` wire error.
- :mod:`repro.resilience.integrity` — SHA-256 shadow digests over
  authoritative model state, canary known-answer checks over derived
  caches, and one budgeted :class:`FleetScrubber` that scrubs every
  tenant of a model registry (a single model is a one-tenant registry)
  and auto-repairs what it finds (rebuild derived caches → rebuild from
  counters → degrade to the reference path).  A
  :class:`~repro.serving.server.ServingServer` started with a positive
  ``scrub_interval`` runs one over the registry it serves.
- :mod:`repro.resilience.chaos` — the ``repro chaos`` benchmark:
  injects live faults mid-traffic and gates detection/repair latency,
  availability, and post-repair bit-identity via
  ``BENCH_resilience.json`` (its names resolve lazily — see
  ``_CHAOS_EXPORTS`` below).

Supervised worker respawn lives with the executor it supervises
(:mod:`repro.parallel.executor`); the serving integration (health
probes, graceful drain) in :mod:`repro.serving`.
"""

from repro.resilience.integrity import (
    FleetScrubber,
    IntegrityError,
    IntegrityGuard,
    RepairReport,
)
from repro.resilience.retry import DeadlineExceededError
from repro.resilience.schema import (
    RESILIENCE_SCHEMA_VERSION,
    validate_resilience_payload,
)

__all__ = [
    "ChaosConfig",
    "DeadlineExceededError",
    "FleetScrubber",
    "IntegrityError",
    "IntegrityGuard",
    "OVERHEAD_BUDGET",
    "RESILIENCE_SCHEMA_VERSION",
    "RepairReport",
    "chaos_config",
    "run_chaos",
    "validate_resilience_payload",
    "write_resilience_file",
]

#: Chaos-bench names resolved lazily: :mod:`repro.resilience.chaos`
#: imports the serving layer, which imports ``resilience.retry`` — an
#: eager import here would close that cycle while ``repro.serving`` is
#: still initialising.
_CHAOS_EXPORTS = frozenset(
    {"ChaosConfig", "OVERHEAD_BUDGET", "chaos_config", "run_chaos", "write_resilience_file"}
)


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.resilience import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
