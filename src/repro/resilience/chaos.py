"""Chaos benchmark: fault → detect → repair against the *live* runtime.

PR 2's fault harness measures how much accuracy a bit flip costs; this
bench measures whether the system *notices and heals*.  Three scenarios,
one report (``BENCH_resilience.json``, validated by
:mod:`repro.resilience.schema` — the schema embeds the recovery gates,
so an unhealed run fails validation rather than producing a sad number):

* **serving** — a microbatched :class:`InferenceService` serving the
  model as a one-tenant registry under concurrent closed-loop traffic,
  with a :class:`~repro.resilience.integrity.FleetScrubber` over that
  registry ticking in the idle loop (and once before traffic, so its
  guard's baseline is the clean model).  Mid-traffic, a sign flip is
  injected in place into the fused score table (silent BRAM-style
  corruption: no version bump, no cache invalidation).  Recorded:
  detection latency (injection → first :class:`IntegrityError`), repair
  latency (injection → completed repair), availability over the whole
  run, and post-repair bit-identity of full test-set predictions against
  the pre-fault snapshot — the "zero post-repair mispredictions" gate.
* **training** — a sharded :class:`~repro.parallel.trainer.ParallelTrainer`
  run in which one worker kills itself (``os._exit``) before counting its
  shard.  The supervised executor must respawn it and re-run the shard so
  the merged counters are bit-identical to the sequential trainer's —
  HDC's commutative-counter training makes exact recovery possible, and
  this scenario proves the supervision preserves it.
* **overhead** — the cost of *having* the resilience machinery when it is
  off: best-of-repeats serving wall time with a disabled scrubber
  attached vs none, gated < 2%.

Entry point: ``repro chaos --profile full|smoke`` or
:func:`write_resilience_file`.
"""

from __future__ import annotations

import asyncio
import functools
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.faults.targets import inject_live_fault
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.trainer import LookHDTrainer
from repro.parallel.trainer import ParallelTrainer
from repro.resilience.integrity import FleetScrubber
from repro.resilience.schema import (
    RESILIENCE_SCHEMA_VERSION,
    validate_resilience_payload,
)
from repro.serving.registry import ModelRegistry
from repro.serving.service import InferenceService, MicrobatchConfig
from repro.utils.artifact import environment, write_artifact
from repro.utils.validation import check_positive_int

#: Maximum tolerated serving slowdown from an attached-but-disabled
#: scrubber (fraction of baseline wall time).
OVERHEAD_BUDGET = 0.02

#: Poll interval for the chaos monitor and the in-bench scrub loop
#: (seconds).  Small enough that detection latency is dominated by the
#: scrubber's own block budget, not by the bench's sampling.
_POLL_SECONDS = 0.002


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: workload geometry + traffic + fault + scrub budget."""

    dim: int = 2_000
    levels: int = 4
    chunk_size: int = 4
    n_features: int = 32
    n_classes: int = 6
    n_train: int = 480
    n_test: int = 240
    seed: int = 11
    # serving traffic
    n_requests: int = 2_000
    concurrency: int = 32
    max_batch: int = 32
    max_wait_ms: float = 1.0
    inject_after: int = 200
    # fault model
    fault_target: str = "score_table"
    fault_ber: float = 1e-4
    detect_timeout_seconds: float = 30.0
    # scrub budget
    scrub_blocks_per_tick: int = 32
    scrub_canary_every: int = 4
    # training supervision
    n_workers: int = 2
    # overhead measurement
    overhead_requests: int = 600
    overhead_repeats: int = 3

    def __post_init__(self):
        check_positive_int(self.n_requests, "n_requests")
        check_positive_int(self.concurrency, "concurrency")
        check_positive_int(self.overhead_repeats, "overhead_repeats")
        if not 0 <= self.inject_after < self.n_requests:
            raise ValueError(
                f"inject_after ({self.inject_after}) must fall inside the "
                f"traffic run (0 <= inject_after < {self.n_requests})"
            )
        if self.n_workers < 2:
            raise ValueError(
                "the training scenario kills one of >= 2 workers; "
                f"n_workers must be >= 2, got {self.n_workers}"
            )

    def config_dict(self) -> dict:
        return asdict(self)


#: CI-sized profile: same scenarios, smaller model and traffic.
_PROFILES = {
    "full": {},
    "smoke": {
        "dim": 512,
        "n_requests": 400,
        "concurrency": 16,
        "inject_after": 50,
        "overhead_requests": 200,
        "overhead_repeats": 2,
    },
}


def chaos_config(profile: str) -> ChaosConfig:
    """The :class:`ChaosConfig` for a named profile (``full``/``smoke``)."""
    if profile not in _PROFILES:
        raise ValueError(
            f"unknown chaos profile {profile!r}; expected one of {sorted(_PROFILES)}"
        )
    return ChaosConfig(**_PROFILES[profile])


def _chaos_dataset(config: ChaosConfig):
    return make_synthetic_classification(
        SyntheticSpec(
            n_features=config.n_features,
            n_classes=config.n_classes,
            n_train=config.n_train,
            n_test=config.n_test,
            seed=config.seed,
        ),
        name="chaos",
    )


def _fit_classifier(config: ChaosConfig, data) -> LookHDClassifier:
    clf = LookHDClassifier(
        LookHDConfig(
            dim=config.dim,
            levels=config.levels,
            chunk_size=config.chunk_size,
            seed=config.seed,
        )
    )
    clf.fit(data.train_features, data.train_labels)
    return clf


# -- serving scenario ----------------------------------------------------------
#
# The serving and overhead scenarios drive the same one-tenant service.


async def _drive(
    clf: LookHDClassifier,
    test_x: np.ndarray,
    config: ChaosConfig,
    n_requests: int,
    scrub: dict | None,
    beside=None,
) -> dict:
    """Serve ``n_requests`` closed-loop predicts through a one-tenant service.

    ``config.concurrency`` workers cycle the rows of ``test_x`` through an
    :class:`InferenceService` over a registry holding ``clf``.  ``scrub``
    holds the :class:`FleetScrubber` options (``None``: no scrubber).  The
    scrubber ticks once before traffic — a guard records its baseline at
    its tenant's first tick, so a fault injected before that would become
    the baseline — and then in the service's idle loop.
    ``beside(scrubber, outcomes)`` runs next to the traffic and is awaited
    after it.  Returns the outcome counts, the traffic's wall seconds, the
    scrubber and ``beside``'s result.
    """
    registry = ModelRegistry()
    registry.publish(InferenceService.DEFAULT_TENANT, clf)
    service = InferenceService(
        registry,
        MicrobatchConfig(max_batch=config.max_batch, max_wait_ms=config.max_wait_ms),
    )
    scrubber = FleetScrubber(registry, **scrub) if scrub is not None else None
    outcomes = {"ok": 0, "errors": 0}
    n_test = test_x.shape[0]
    cursor = 0

    async def worker() -> None:
        nonlocal cursor
        while cursor < n_requests:
            index = cursor
            cursor += 1
            try:
                await service.predict(test_x[index % n_test])
                outcomes["ok"] += 1
            except Exception:  # noqa: BLE001 — availability counts every outcome
                outcomes["errors"] += 1

    loop = asyncio.get_running_loop()
    scrub_task = monitor = None
    await service.start()
    try:
        if scrubber is not None:
            scrubber.tick()
            scrub_task = loop.create_task(scrubber.run(service, _POLL_SECONDS))
        if beside is not None:
            monitor = loop.create_task(beside(scrubber, outcomes))
        started = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(config.concurrency)))
        elapsed = time.perf_counter() - started
        # Traffic may finish before the scrubber catches the fault; the
        # monitor (and the idle scrub loop) keep running until it resolves.
        watched = await monitor if monitor is not None else None
    finally:
        tasks = [task for task in (scrub_task, monitor) if task is not None]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await service.stop()
    return {"outcomes": outcomes, "seconds": elapsed, "scrubber": scrubber, "beside": watched}


def _serving_scenario(
    clf: LookHDClassifier, test_x: np.ndarray, config: ChaosConfig
) -> dict:
    async def chaos_monkey(scrubber, outcomes) -> dict:
        while sum(outcomes.values()) < config.inject_after:
            await asyncio.sleep(_POLL_SECONDS)
        injection = inject_live_fault(
            clf, config.fault_target, ber=config.fault_ber, seed=config.seed
        )
        injected_at = time.perf_counter()

        async def seconds_until(count: str) -> float | None:
            while not scrubber.status()[count]:
                if time.perf_counter() - injected_at > config.detect_timeout_seconds:
                    return None
                await asyncio.sleep(_POLL_SECONDS)
            return time.perf_counter() - injected_at

        return {
            "injection": injection,
            "detection_seconds": await seconds_until("errors_detected"),
            "repair_seconds": await seconds_until("repairs"),
        }

    clean_predictions = np.asarray(clf.predict(test_x))
    scrub = {
        "blocks_per_tick": config.scrub_blocks_per_tick,
        "canary_every": config.scrub_canary_every,
    }
    with telemetry.timer("resilience.chaos.serving_seconds"):
        run = asyncio.run(
            _drive(clf, test_x, config, config.n_requests, scrub, beside=chaos_monkey)
        )
    outcomes, chaos, status = run["outcomes"], run["beside"], run["scrubber"].status()
    total = outcomes["ok"] + outcomes["errors"]
    return {
        "requests": total,
        "availability": outcomes["ok"] / total if total else 0.0,
        "errors": outcomes["errors"],
        "injection": {
            "target": str(chaos["injection"]["target"]),
            "elements_flipped": int(chaos["injection"]["elements_flipped"]),
            "ber": float(config.fault_ber),
        },
        "detected": chaos["detection_seconds"] is not None,
        "detection_seconds": chaos["detection_seconds"],
        "repaired": chaos["repair_seconds"] is not None,
        "repair_seconds": chaos["repair_seconds"],
        "scrub": status,
        "post_repair_bit_identical": bool(
            np.array_equal(np.asarray(clf.predict(test_x)), clean_predictions)
        ),
        "repair_action": (
            status["last_repair"]["action"] if status["last_repair"] is not None else None
        ),
    }


# -- training scenario ---------------------------------------------------------


def _kill_worker_once(fuse_path: str, shard: tuple[int, int]) -> None:
    """Shard hook: the first worker to claim the fuse file dies on the spot.

    ``O_EXCL`` makes the claim atomic across processes, so exactly one
    worker is killed per run no matter how shards interleave.  Module
    level + :func:`functools.partial` keeps it picklable for the
    executor's initializer broadcast.
    """
    try:
        fd = os.open(fuse_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(1)


def _training_scenario(clf: LookHDClassifier, data, config: ChaosConfig) -> dict:
    sequential = LookHDTrainer(clf.encoder, config.n_classes)
    sequential.observe(data.train_features, data.train_labels)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        hook = functools.partial(_kill_worker_once, os.path.join(tmp, "fuse"))
        parallel = ParallelTrainer(
            clf.encoder,
            config.n_classes,
            n_workers=config.n_workers,
            shard_hook=hook,
        )
        with telemetry.timer("resilience.chaos.training_seconds"):
            parallel.observe(data.train_features, data.train_labels)

    stats = parallel.last_parallel_stats
    counters_identical = all(
        np.array_equal(p.counts, s.counts)
        and p.n_samples == s.n_samples
        and p.digest() == s.digest()
        for p, s in zip(parallel.counters, sequential.counters)
    )
    return {
        "n_workers": config.n_workers,
        # False only on platforms without shared memory, where the trainer
        # degrades to the sequential path and no worker was ever killed.
        "parallel_executed": stats is not None,
        "respawns": int(stats["respawns"]) if stats is not None else 0,
        "counters_bit_identical": bool(counters_identical),
        "class_vectors_bit_identical": bool(
            np.array_equal(
                parallel.build_model().class_vectors,
                sequential.build_model().class_vectors,
            )
        ),
    }


# -- overhead scenario ---------------------------------------------------------


def _overhead_scenario(
    clf: LookHDClassifier, test_x: np.ndarray, config: ChaosConfig
) -> dict:
    # A *disabled* scrubber: ticks are no-ops, so any measured slowdown is
    # the pure cost of co-hosting the machinery.  Best-of-repeats on both
    # sides cancels scheduler noise the way the perf harness does.
    def timed_burst(scrub: dict | None) -> float:
        run = _drive(clf, test_x, config, config.overhead_requests, scrub)
        return asyncio.run(run)["seconds"]

    baseline = min(timed_burst(None) for _ in range(config.overhead_repeats))
    attached = min(timed_burst({"enabled": False}) for _ in range(config.overhead_repeats))
    overhead = attached / baseline - 1.0
    return {
        "requests": config.overhead_requests,
        "repeats": config.overhead_repeats,
        "baseline_seconds": float(baseline),
        "scrub_attached_seconds": float(attached),
        "overhead_fraction": float(overhead),
        "budget": OVERHEAD_BUDGET,
        "within_budget": bool(overhead < OVERHEAD_BUDGET),
    }


# -- entry points --------------------------------------------------------------


def run_chaos(config: ChaosConfig, profile: str = "full") -> dict:
    """Run all three scenarios; returns the schema-validated payload.

    Validation *is* the gate: a run whose fault went undetected,
    unrepaired, or un-bit-identical raises ``ValueError`` here.
    """
    data = _chaos_dataset(config)
    test_x = data.test_features

    clf = _fit_classifier(config, data)
    serving = _serving_scenario(clf, test_x, config)
    training = _training_scenario(clf, data, config)
    # Fresh classifier for the overhead timing so the serving scenario's
    # repair history cannot skew it.
    overhead = _overhead_scenario(_fit_classifier(config, data), test_x, config)

    payload = {
        "schema_version": RESILIENCE_SCHEMA_VERSION,
        "benchmark": "resilience",
        "profile": profile,
        "config": config.config_dict(),
        "environment": environment(),
        "serving": serving,
        "training": training,
        "overhead": overhead,
        "checks": {
            "derived_fault_detected": serving["detected"],
            "derived_fault_repaired": serving["repaired"],
            "post_repair_bit_identical": serving["post_repair_bit_identical"],
            "training_counters_bit_identical": training["counters_bit_identical"],
            "scrub_overhead_within_budget": overhead["within_budget"],
        },
    }
    return validate_resilience_payload(payload)


def write_resilience_file(
    profile: str = "full",
    out_dir: str | Path = ".",
    config: ChaosConfig | None = None,
    stream=None,
) -> Path:
    """Run the chaos bench and write ``BENCH_resilience.json``."""
    if stream is None:
        stream = sys.stdout
    if config is None:
        config = chaos_config(profile)
    payload = run_chaos(config, profile=profile)
    path = write_artifact(Path(out_dir) / "BENCH_resilience.json", payload)
    serving = payload["serving"]
    print(
        f"[chaos] serving: detected in {serving['detection_seconds'] * 1e3:.1f} ms, "
        f"repaired in {serving['repair_seconds'] * 1e3:.1f} ms "
        f"({serving['repair_action']}), availability "
        f"{serving['availability']:.4f}, post-repair bit-identical: "
        f"{serving['post_repair_bit_identical']}",
        file=stream,
    )
    training = payload["training"]
    print(
        f"[chaos] training: {training['respawns']} respawn(s) at "
        f"n_workers={training['n_workers']}, counters bit-identical: "
        f"{training['counters_bit_identical']}",
        file=stream,
    )
    overhead = payload["overhead"]
    print(
        f"[chaos] overhead: disabled scrubber costs "
        f"{overhead['overhead_fraction']:+.2%} vs baseline "
        f"(budget {overhead['budget']:.0%}, within: {overhead['within_budget']})",
        file=stream,
    )
    return path
