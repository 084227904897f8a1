"""Sharded multi-process counter training — bit-identical to sequential.

The paper's training insight (Sec. III-D, Fig. 6) makes LookHD trivially
data-parallel: training only increments ``(class, chunk, address)``
counters, and counter addition commutes, so any partition of the training
set can be counted independently and merged *exactly* —
:class:`ParallelTrainer` produces class hypervectors bit-identical to
:class:`~repro.lookhd.trainer.LookHDTrainer` for every shard plan (the
acceptance gate of the parallel subsystem, enforced by
``tests/parallel/`` and by the ``training-scaling`` bench checks).

Data flow per :meth:`ParallelTrainer.observe` call:

1. the validated ``(N, n)`` feature batch and ``(N,)`` labels are copied
   once into ``multiprocessing.shared_memory`` segments (zero pickling of
   the data — workers map the same physical pages read-only);
2. the fitted :class:`~repro.lookhd.encoder.LookupEncoder` is broadcast
   once per worker through the executor's initializer (the broadcast is
   just the quantizer, table, and position memory);
3. each worker runs quantize → address → count over its contiguous shard
   and returns an ``(k, m, q^r)`` int64 count block;
4. the parent reduces the blocks with
   :meth:`~repro.lookhd.counters.ChunkCounters.merge` (order-invariant,
   property-tested).

Falls back to the in-process sequential path when ``n_workers == 1`` or
the platform has no working shared memory.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import telemetry
from repro.lookhd.counters import ChunkCounters
from repro.lookhd.encoder import LookupEncoder
from repro.lookhd.trainer import LookHDTrainer
from repro.parallel.executor import (
    DEFAULT_MAX_RESPAWNS,
    ProcessExecutor,
    SharedArray,
    AttachedArray,
    plan_shards,
    resolve_n_workers,
    shared_memory_available,
)

__all__ = ["ParallelTrainer"]

#: Buckets for the per-shard compute-time histogram (seconds).
_SHARD_SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Worker-process state installed by :func:`_init_training_worker`.
_WORKER_STATE: dict = {}


def _init_training_worker(
    encoder, n_classes, features_spec, labels_spec, shard_hook=None
) -> None:
    """Per-worker broadcast: the fitted encoder + shared-memory handles."""
    _WORKER_STATE["encoder"] = encoder
    _WORKER_STATE["n_classes"] = n_classes
    _WORKER_STATE["features"] = AttachedArray(features_spec)
    _WORKER_STATE["labels"] = AttachedArray(labels_spec)
    _WORKER_STATE["shard_hook"] = shard_hook


def _close_training_worker() -> None:
    for key in ("features", "labels"):
        handle = _WORKER_STATE.pop(key, None)
        if handle is not None:
            handle.close()
    _WORKER_STATE.clear()


def _count_training_shard(shard: tuple[int, int]):
    """Quantize → address → count one contiguous shard of the shared batch.

    Returns ``(counts, n_per_class)`` with ``counts`` of shape
    ``(k, m, q^r)`` in int64 — exactly the increments the sequential
    trainer would have applied for these rows, so the parent-side merge
    reconstructs the sequential counters bit for bit.
    """
    start, stop = shard
    shard_hook = _WORKER_STATE.get("shard_hook")
    if shard_hook is not None:
        # Chaos seam: the hook runs in the worker process before any
        # counting, so a test (or the chaos bench) can kill this worker
        # mid-run and assert the supervised respawn reproduces the
        # sequential counters bit for bit.  Must be module-level picklable.
        shard_hook(shard)
    encoder: LookupEncoder = _WORKER_STATE["encoder"]
    n_classes: int = _WORKER_STATE["n_classes"]
    n_chunks = encoder.layout.n_chunks
    n_rows = len(encoder.lookup_table)
    counts = np.zeros((n_classes, n_chunks, n_rows), dtype=np.int64)
    n_per_class = np.zeros(n_classes, dtype=np.int64)
    if stop > start:  # empty shards happen when workers outnumber samples
        features = _WORKER_STATE["features"].array[start:stop]
        labels = _WORKER_STATE["labels"].array[start:stop]
        addresses = encoder.addresses(features)
        for class_index in range(n_classes):
            mask = labels == class_index
            if np.any(mask):
                shard_counters = ChunkCounters(n_chunks, n_rows)
                shard_counters.observe(addresses[mask])
                counts[class_index] = shard_counters.counts
                n_per_class[class_index] = shard_counters.n_samples
    return counts, n_per_class


class ParallelTrainer(LookHDTrainer):
    """Drop-in :class:`~repro.lookhd.trainer.LookHDTrainer` that shards
    each ``observe`` batch across a process pool.

    Parameters
    ----------
    encoder, n_classes:
        As for the sequential trainer.
    n_workers:
        Worker processes per batch; ``None`` uses ``os.cpu_count()``.
        ``1`` (or an unavailable shared-memory platform) degrades to the
        sequential in-process path.
    start_method:
        Multiprocessing start method override (default: ``fork`` where
        available, else ``spawn``).
    shard_hook:
        Optional module-level callable run in each worker, once per
        shard, before counting (chaos/testing seam — e.g. kill the
        worker to exercise supervised respawn).  Broadcast through the
        initializer, so it must be picklable.
    max_respawns:
        Respawn budget forwarded to the executor: dead workers are
        replaced (their unfinished shards re-run, bit-identically) this
        many times per ``observe`` before a typed ``WorkerError``.
    """

    def __init__(
        self,
        encoder: LookupEncoder,
        n_classes: int,
        n_workers: int | None = None,
        start_method: str | None = None,
        shard_hook=None,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ):
        super().__init__(encoder, n_classes)
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self.n_workers = resolve_n_workers(n_workers)
        self.start_method = start_method
        self.shard_hook = shard_hook
        self.max_respawns = max_respawns
        #: Breakdown of the most recent parallel ``observe`` call (None
        #: after a sequential-fallback call): shard/setup/merge seconds,
        #: wall time, and pool utilisation — surfaced by the
        #: ``training-scaling`` bench.
        self.last_parallel_stats: dict | None = None

    def observe(self, features: np.ndarray, labels: np.ndarray) -> None:
        if self.n_workers <= 1:
            self.last_parallel_stats = None
            telemetry.count("train.parallel.fallbacks", reason="single_worker")
            return super().observe(features, labels)
        if not shared_memory_available():
            self.last_parallel_stats = None
            telemetry.count("train.parallel.fallbacks", reason="no_shared_memory")
            return super().observe(features, labels)
        batch, labels = self._validate_batch(features, labels)

        wall_start = time.perf_counter()
        shared_features = SharedArray(batch)
        shared_labels = SharedArray(labels)
        setup_seconds = time.perf_counter() - wall_start
        try:
            executor = ProcessExecutor(
                self.n_workers,
                initializer=_init_training_worker,
                initargs=(
                    self.encoder,
                    self.n_classes,
                    shared_features.spec,
                    shared_labels.spec,
                    self.shard_hook,
                ),
                finalizer=_close_training_worker,
                start_method=self.start_method,
                max_respawns=self.max_respawns,
            )
            shards = plan_shards(batch.shape[0], self.n_workers)
            shard_results = executor.map(_count_training_shard, shards)
        finally:
            shared_features.close()
            shared_labels.close()

        merge_start = time.perf_counter()
        with telemetry.timer("train.parallel.merge_seconds"):
            for counts, n_per_class in shard_results:
                for class_index in range(self.n_classes):
                    if n_per_class[class_index]:
                        self.counters[class_index].merge(
                            ChunkCounters.from_counts(
                                counts[class_index], int(n_per_class[class_index])
                            )
                        )
        merge_seconds = time.perf_counter() - merge_start
        wall_seconds = time.perf_counter() - wall_start

        stats = executor.last_stats
        shard_seconds = list(stats.task_seconds) if stats is not None else []
        utilisation = stats.utilisation if stats is not None else 0.0
        for seconds in shard_seconds:
            telemetry.observe(
                "train.parallel.shard_seconds", seconds, buckets=_SHARD_SECONDS_BUCKETS
            )
        telemetry.observe(
            "train.parallel.utilisation",
            utilisation,
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
        )
        telemetry.count("train.parallel.batches")
        telemetry.count("train.parallel.shards", len(shard_seconds))
        telemetry.count("trainer.samples_observed", batch.shape[0])
        self.last_parallel_stats = {
            "n_workers": self.n_workers,
            "shard_seconds": shard_seconds,
            "setup_seconds": setup_seconds,
            "merge_seconds": merge_seconds,
            "wall_seconds": wall_seconds,
            "utilisation": utilisation,
            "in_process": bool(stats.in_process) if stats is not None else True,
            "respawns": int(stats.respawns) if stats is not None else 0,
            "shared_bytes": shared_features.nbytes + shared_labels.nbytes,
        }
