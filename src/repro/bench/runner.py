"""Benchmark runner: time the fused kernels against their references.

Two benchmark kinds, mirroring the paper's cost split:

* **training** — lookup-domain counter training (Fig. 6: observe addresses,
  materialise once) vs the hypervector-domain reference (encode every
  sample, accumulate per class).  The two produce bit-identical class
  hypervectors, so the ``checks`` stanza doubles as a correctness gate.
* **inference** — blocked narrow-accumulator encoding
  (:mod:`repro.lookhd.encoder`) and fused score-table prediction
  (:mod:`repro.lookhd.inference`) vs the reference
  ``(N, m, D)``-materialising encode and group-loop Eq. 4/5 search.
  Predictions must match exactly.

A third mode, :func:`run_training_scaling_bench`, times the sharded
:class:`~repro.parallel.trainer.ParallelTrainer` at several worker counts
against the sequential lookup trainer and checks bit-identity (by SHA-256
of the materialised class vectors) at every point.  It is selected by the
``training-scaling`` / ``training-scaling-smoke`` profiles.

All workloads are pinned-seed synthetic (see
:mod:`repro.bench.workloads`), so every non-timing field of the output is
deterministic across re-runs and machines.

Workload-level parallelism: :func:`run_training_bench` and
:func:`run_inference_bench` accept ``n_workers`` and fan independent
workloads out over a :class:`~repro.parallel.executor.ProcessExecutor`
(per-workload telemetry snapshots are reduced with
:func:`repro.telemetry.merge_snapshots`).  Concurrent workloads contend
for cores, so keep ``n_workers=1`` when the timing numbers themselves are
the deliverable; the fan-out is for quick correctness sweeps.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import telemetry
from repro.bench.schema import SCHEMA_VERSION, validate_bench_payload
from repro.bench.workloads import (
    BenchWorkload,
    fit_classifier,
    is_scaling_profile,
    profile_workloads,
)
from repro.hdc.model import ClassModel
from repro.hdc.ops import ACCUM_DTYPE
from repro.lookhd.trainer import LookHDTrainer
from repro.parallel.executor import ProcessExecutor, resolve_n_workers
from repro.parallel.trainer import ParallelTrainer
from repro.telemetry.registry import merge_snapshots
from repro.utils.artifact import environment, write_artifact

DEFAULT_REPEATS = 3

#: Worker counts swept by the scaling bench.  The top of the sweep is the
#: acceptance-gate point (the issue's ≥ 2.5× target reads ``w=4``); on
#: boxes with fewer cores the curve is still produced — flat, with
#: ``scaling.cpu_count`` recording why.
DEFAULT_WORKER_COUNTS = (1, 2, 4)


def _time_stage(fn: Callable[[], object], n_samples: int, repeats: int) -> dict:
    """Median-of-``repeats`` wall time for ``fn`` after one warmup call.

    The warmup also charges any lazy table build (the score table) to
    setup rather than to the steady-state timing — matching how
    a deployed model amortises them.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    return {
        "seconds_median": median,
        "seconds_best": min(times),
        "samples_per_second": n_samples / max(median, 1e-12),
        "repeats": repeats,
    }


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


def _encode_reference_batched(encoder, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Reference kernel applied batch-wise (whole-set (N, m, D) won't fit)."""
    encoded = np.empty((features.shape[0], encoder.dim), dtype=ACCUM_DTYPE)
    for start in range(0, features.shape[0], batch_size):
        stop = min(start + batch_size, features.shape[0])
        encoded[start:stop] = encoder.encode_reference(features[start:stop])
    return encoded


def _inference_workload_entry(task: tuple[BenchWorkload, int]) -> tuple[dict, dict]:
    """One inference-bench workload → (entry, telemetry snapshot).

    Module-level so the executor can ship it to worker processes when
    workloads run in parallel; the timed stages themselves always run
    with telemetry disabled, then one instrumented pass per workload is
    recorded into a private registry returned alongside the entry.
    """
    workload, repeats = task
    registry = telemetry.MetricsRegistry(enabled=True)
    data = workload.make_dataset()
    clf = fit_classifier(workload, data)
    test = data.test_features
    timings = {
        "encode_reference": _time_stage(
            lambda: _encode_reference_batched(clf.encoder, test), test.shape[0], repeats
        ),
        "encode_fused": _time_stage(
            lambda: clf.encoder.encode_many(test), test.shape[0], repeats
        ),
        "predict_reference": _time_stage(
            lambda: clf.predict_reference(test), test.shape[0], repeats
        ),
        "predict_fused": _time_stage(lambda: clf.predict(test), test.shape[0], repeats),
    }
    with telemetry.activated(registry):
        # Both timed stages: encode accumulator selection + fused prediction.
        clf.encoder.encode_many(test)
        clf.predict(test)
    fused_predictions = np.asarray(clf.predict(test))
    reference_predictions = np.asarray(clf.predict_reference(test))
    outputs_match = bool(np.array_equal(fused_predictions, reference_predictions))
    labels = np.asarray(data.test_labels)
    entry = {
        "name": workload.name,
        "config": workload.config_dict(),
        "timings": timings,
        "speedups": {
            "encode": timings["encode_reference"]["seconds_median"]
            / max(timings["encode_fused"]["seconds_median"], 1e-12),
            "predict": timings["predict_reference"]["seconds_median"]
            / max(timings["predict_fused"]["seconds_median"], 1e-12),
        },
        "checks": {
            "outputs_match": outputs_match,
            "outputs_sha256": _sha256(fused_predictions),
            "accuracy_fused": float(np.mean(fused_predictions == labels)),
            "accuracy_reference": float(np.mean(reference_predictions == labels)),
            "score_table_bytes": clf.fused_engine().memory_bytes(),
        },
    }
    return entry, registry.snapshot()


def _training_workload_entry(task: tuple[BenchWorkload, int]) -> tuple[dict, dict]:
    """One training-bench workload → (entry, telemetry snapshot)."""
    workload, repeats = task
    registry = telemetry.MetricsRegistry(enabled=True)
    data = workload.make_dataset()
    # Fit once to obtain a fitted encoder shared by both training paths.
    clf = fit_classifier(workload, data)
    encoder = clf.encoder
    train_x = data.train_features
    train_y = data.train_labels
    n_classes = int(train_y.max()) + 1

    def train_lookup() -> ClassModel:
        trainer = LookHDTrainer(encoder, n_classes)
        trainer.observe(train_x, train_y)
        return trainer.build_model()

    def train_reference() -> ClassModel:
        model = ClassModel(n_classes, encoder.dim)
        model.accumulate_batch(train_y, _encode_reference_batched(encoder, train_x))
        return model

    timings = {
        "train_reference": _time_stage(train_reference, train_x.shape[0], repeats),
        "train_lookup": _time_stage(train_lookup, train_x.shape[0], repeats),
    }
    with telemetry.activated(registry):
        lookup_vectors = train_lookup().class_vectors
    reference_vectors = train_reference().class_vectors
    entry = {
        "name": workload.name,
        "config": workload.config_dict(),
        "timings": timings,
        "speedups": {
            "train": timings["train_reference"]["seconds_median"]
            / max(timings["train_lookup"]["seconds_median"], 1e-12),
        },
        "checks": {
            "outputs_match": bool(np.array_equal(lookup_vectors, reference_vectors)),
            "outputs_sha256": _sha256(lookup_vectors),
        },
    }
    return entry, registry.snapshot()


def _map_workloads(
    entry_fn: Callable[[tuple[BenchWorkload, int]], tuple[dict, dict]],
    workloads: tuple[BenchWorkload, ...],
    repeats: int,
    n_workers: int | None,
) -> tuple[list[dict], dict]:
    """Run workloads (inline or fanned out) and reduce their telemetry."""
    executor = ProcessExecutor(n_workers=resolve_n_workers(n_workers))
    results = executor.map(entry_fn, [(workload, repeats) for workload in workloads])
    entries = [entry for entry, _ in results]
    snapshot = merge_snapshots(snapshot for _, snapshot in results)
    return entries, snapshot


def run_inference_bench(
    workloads: tuple[BenchWorkload, ...],
    repeats: int = DEFAULT_REPEATS,
    profile: str = "custom",
    n_workers: int | None = 1,
) -> dict:
    """Time encode + batch predict, fused vs reference, per workload.

    The timed stages run with telemetry in its (disabled) default state so
    the numbers stay honest; afterwards one extra instrumented predict
    pass per workload is collected into the payload's ``telemetry`` block,
    so every ``BENCH_inference.json`` also records path selection, fused
    hits, and any fallbacks for the exact models it timed.

    ``n_workers > 1`` fans workloads out across processes; concurrent
    workloads contend for cores, so leave it at 1 when the timings matter.
    """
    entries, snapshot = _map_workloads(_inference_workload_entry, workloads, repeats, n_workers)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "inference",
        "profile": profile,
        "environment": environment(),
        "workloads": entries,
        "telemetry": snapshot,
    }
    return validate_bench_payload(payload, "inference")


def run_training_bench(
    workloads: tuple[BenchWorkload, ...],
    repeats: int = DEFAULT_REPEATS,
    profile: str = "custom",
    n_workers: int | None = 1,
) -> dict:
    """Time counter training vs encode-and-accumulate, per workload.

    Like :func:`run_inference_bench`, timing runs with telemetry off; one
    instrumented counter-training pass per workload feeds the payload's
    ``telemetry`` block (samples/sec via the trainer timer, chunk
    addresses observed).
    """
    entries, snapshot = _map_workloads(_training_workload_entry, workloads, repeats, n_workers)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "training",
        "profile": profile,
        "environment": environment(),
        "workloads": entries,
        "telemetry": snapshot,
    }
    return validate_bench_payload(payload, "training")


def run_training_scaling_bench(
    workloads: tuple[BenchWorkload, ...],
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    repeats: int = DEFAULT_REPEATS,
    profile: str = "custom",
) -> dict:
    """Training-scaling study: sharded trainer vs sequential, per worker count.

    Per workload the payload keeps the standard ``train_reference`` /
    ``train_lookup`` stanzas (so the file stays comparable with ordinary
    training benches), adds a ``train_parallel_w{n}`` timing per worker
    count, and a ``scaling`` block whose points record throughput,
    shared-memory setup cost, worker busy-time, utilisation, and the
    SHA-256 of the materialised class vectors — which must equal the
    sequential hash at every point (``checks.parallel_outputs_match``).

    The timed passes run with telemetry disabled; one instrumented
    parallel pass per (workload, worker count) supplies the executor
    stats and feeds the payload's ``telemetry`` block.
    """
    worker_counts = tuple(int(w) for w in worker_counts)
    if not worker_counts or any(w < 1 for w in worker_counts):
        raise ValueError(f"worker_counts must be positive ints, got {worker_counts!r}")
    registry = telemetry.MetricsRegistry(enabled=True)
    entries = []
    for workload in workloads:
        data = workload.make_dataset()
        clf = fit_classifier(workload, data)
        encoder = clf.encoder
        train_x = data.train_features
        train_y = data.train_labels
        n_classes = int(train_y.max()) + 1

        def train_lookup() -> ClassModel:
            trainer = LookHDTrainer(encoder, n_classes)
            trainer.observe(train_x, train_y)
            return trainer.build_model()

        def train_reference() -> ClassModel:
            model = ClassModel(n_classes, encoder.dim)
            model.accumulate_batch(train_y, _encode_reference_batched(encoder, train_x))
            return model

        timings = {
            "train_reference": _time_stage(train_reference, train_x.shape[0], repeats),
            "train_lookup": _time_stage(train_lookup, train_x.shape[0], repeats),
        }
        lookup_vectors = train_lookup().class_vectors
        reference_vectors = train_reference().class_vectors
        sequential_sha = _sha256(lookup_vectors)

        points = []
        parallel_outputs_match = True
        for n_workers in worker_counts:

            def train_parallel(n_workers: int = n_workers) -> ClassModel:
                trainer = ParallelTrainer(encoder, n_classes, n_workers=n_workers)
                trainer.observe(train_x, train_y)
                return trainer.build_model()

            timing = _time_stage(train_parallel, train_x.shape[0], repeats)
            timings[f"train_parallel_w{n_workers}"] = timing
            # One instrumented pass to capture executor stats + telemetry
            # for this exact (workload, worker count) cell.
            with telemetry.activated(registry):
                trainer = ParallelTrainer(encoder, n_classes, n_workers=n_workers)
                trainer.observe(train_x, train_y)
                vectors = trainer.build_model().class_vectors
            stats = getattr(trainer, "last_parallel_stats", None) or {}
            shard_seconds = stats.get("shard_seconds", 0.0)
            busy_seconds = (
                float(sum(shard_seconds))
                if isinstance(shard_seconds, (list, tuple))
                else float(shard_seconds)
            )
            point_sha = _sha256(vectors)
            point_match = point_sha == sequential_sha
            parallel_outputs_match = parallel_outputs_match and point_match
            points.append(
                {
                    "n_workers": n_workers,
                    "seconds_median": timing["seconds_median"],
                    "samples_per_second": timing["samples_per_second"],
                    "outputs_sha256": point_sha,
                    "outputs_match": point_match,
                    "busy_seconds": busy_seconds,
                    "setup_seconds": float(stats.get("setup_seconds", 0.0)),
                    "merge_seconds": float(stats.get("merge_seconds", 0.0)),
                    "utilisation": float(stats.get("utilisation", 0.0)),
                    "in_process": bool(stats.get("in_process", n_workers <= 1)),
                }
            )
        baseline = next((p for p in points if p["n_workers"] == 1), points[0])
        for point in points:
            point["speedup_vs_workers1"] = baseline["seconds_median"] / max(
                point["seconds_median"], 1e-12
            )
        entries.append(
            {
                "name": workload.name,
                "config": workload.config_dict(),
                "timings": timings,
                "speedups": {
                    "train": timings["train_reference"]["seconds_median"]
                    / max(timings["train_lookup"]["seconds_median"], 1e-12),
                },
                "checks": {
                    "outputs_match": bool(np.array_equal(lookup_vectors, reference_vectors)),
                    "outputs_sha256": sequential_sha,
                    "parallel_outputs_match": parallel_outputs_match,
                },
                "scaling": {
                    "worker_counts": list(worker_counts),
                    "cpu_count": int(os.cpu_count() or 1),
                    "points": points,
                },
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "training",
        "profile": profile,
        "environment": environment(),
        "workloads": entries,
        "telemetry": registry.snapshot(),
    }
    return validate_bench_payload(payload, "training")


def run_bench_profile(
    profile: str, repeats: int = DEFAULT_REPEATS, n_workers: int | None = 1
) -> tuple[dict, dict]:
    """Run both benchmark kinds for a named (non-scaling) profile."""
    workloads = profile_workloads(profile)
    training = run_training_bench(workloads, repeats=repeats, profile=profile, n_workers=n_workers)
    inference = run_inference_bench(
        workloads, repeats=repeats, profile=profile, n_workers=n_workers
    )
    return training, inference


def write_bench_files(
    profile: str,
    out_dir: str | Path = ".",
    repeats: int = DEFAULT_REPEATS,
    stream=None,
    n_workers: int | None = 1,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
) -> tuple[Path, Path | None]:
    """Run a profile and write ``BENCH_training.json`` / ``BENCH_inference.json``.

    Scaling profiles (see :data:`repro.bench.workloads.SCALING_PROFILES`)
    write only the training file — with per-worker-count timings and the
    ``scaling`` block — and return ``None`` for the inference path.
    """
    if stream is None:
        stream = sys.stdout
    if is_scaling_profile(profile):
        training = run_training_scaling_bench(
            profile_workloads(profile),
            worker_counts=worker_counts,
            repeats=repeats,
            profile=profile,
        )
        inference = None
    else:
        training, inference = run_bench_profile(profile, repeats=repeats, n_workers=n_workers)
    out_dir = Path(out_dir)
    training_path = write_artifact(out_dir / "BENCH_training.json", training)
    inference_path = None
    if inference is not None:
        inference_path = write_artifact(out_dir / "BENCH_inference.json", inference)
    for payload in (training, inference):
        if payload is None:
            continue
        for entry in payload["workloads"]:
            speedups = ", ".join(
                f"{name} {value:.1f}x" for name, value in sorted(entry["speedups"].items())
            )
            print(
                f"[{payload['benchmark']}] {entry['name']}: {speedups} "
                f"(outputs match: {entry['checks']['outputs_match']})",
                file=stream,
            )
            scaling = entry.get("scaling")
            if scaling:
                for point in scaling["points"]:
                    print(
                        f"  workers={point['n_workers']}: "
                        f"{point['samples_per_second']:.0f} samples/s, "
                        f"{point['speedup_vs_workers1']:.2f}x vs 1 worker, "
                        f"utilisation {point['utilisation']:.2f} "
                        f"(bit-identical: {point['outputs_match']})",
                        file=stream,
                    )
    return training_path, inference_path
