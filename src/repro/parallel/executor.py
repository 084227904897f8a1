"""Process-pool execution layer with zero-copy shared-memory ingestion.

Counter-based LookHD training (Fig. 6) is embarrassingly parallel: counter
addition commutes, so any partition of the training set can be counted
independently and merged exactly.  The same holds for the fault sweep
(independent trials per BER point) and for multi-workload bench runs.
This module provides the one executor all three share:

* :func:`plan_shards` — deterministic contiguous shard planning (empty
  shards allowed when there are more workers than items);
* :class:`SharedArray` / :class:`AttachedArray` — ship a NumPy array to
  workers through ``multiprocessing.shared_memory`` (one copy into the
  segment in the parent, zero pickling of the data afterwards; workers map
  the segment read-only);
* :class:`ProcessExecutor` — static round-robin task assignment over a
  fixed set of worker processes, with a per-worker ``initializer`` for
  read-only broadcasts (e.g. a fitted encoder), typed error propagation
  (:class:`WorkerError` carries the worker traceback), and a graceful
  in-process fallback when ``n_workers == 1``.

Tasks and results travel over a ``multiprocessing`` queue (they must be
picklable); the *data* the tasks operate on should travel via
:class:`SharedArray`.  Task functions must be module-level (importable)
so the ``spawn`` start method works where ``fork`` is unavailable.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.utils.validation import check_positive_int

__all__ = [
    "AttachedArray",
    "DEFAULT_MAX_RESPAWNS",
    "MapStats",
    "ProcessExecutor",
    "SharedArray",
    "SharedArraySpec",
    "WorkerError",
    "default_start_method",
    "plan_shards",
    "reap_processes",
    "resolve_n_workers",
    "shared_memory_available",
    "watch_process",
]

#: Backstop timeout on the (otherwise blocking) result-queue get.  Worker
#: exits are pushed into the queue by parent-side watcher threads, so the
#: parent normally never waits this long — the backstop only matters if a
#: wakeup message is somehow lost, and then it costs one retry, not
#: correctness.
_QUEUE_BACKSTOP_SECONDS = 60.0

#: Default respawn budget per :meth:`ProcessExecutor.map` call: how many
#: times dead workers are replaced before the executor gives up with a
#: typed :class:`WorkerError`.
DEFAULT_MAX_RESPAWNS = 2


class WorkerError(RuntimeError):
    """A task failed inside a worker process (or the worker died).

    Carries enough context to debug without re-running: the worker index,
    the failing task index, the original exception type name, and the
    worker-side traceback text.
    """

    def __init__(
        self,
        message: str,
        worker_index: int | None = None,
        task_index: int | None = None,
        cause_type: str | None = None,
        worker_traceback: str = "",
    ):
        super().__init__(message)
        self.worker_index = worker_index
        self.task_index = task_index
        self.cause_type = cause_type
        self.worker_traceback = worker_traceback


def resolve_n_workers(n_workers: int | None) -> int:
    """Normalise a worker-count request: ``None`` means one (in-process)."""
    if n_workers is None:
        return 1
    return check_positive_int(n_workers, "n_workers")


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits imports), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


_SHARED_MEMORY_PROBE: bool | None = None


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform.

    Probed once per process by creating (and immediately unlinking) a
    one-byte segment; some sandboxes mount ``/dev/shm`` read-only.
    """
    global _SHARED_MEMORY_PROBE
    if _SHARED_MEMORY_PROBE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _SHARED_MEMORY_PROBE = True
        except Exception:
            _SHARED_MEMORY_PROBE = False
    return _SHARED_MEMORY_PROBE


def plan_shards(n_items: int, n_workers: int) -> tuple[tuple[int, int], ...]:
    """Split ``n_items`` into ``n_workers`` contiguous ``(start, stop)`` shards.

    Balanced to within one item; always returns exactly ``n_workers``
    shards, so with more workers than items the tail shards are empty —
    workers must tolerate ``start == stop``.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    check_positive_int(n_workers, "n_workers")
    base, extra = divmod(n_items, n_workers)
    shards = []
    start = 0
    for worker in range(n_workers):
        stop = start + base + (1 if worker < extra else 0)
        shards.append((start, stop))
        start = stop
    return tuple(shards)


def watch_process(process, on_exit, name: str = "watch") -> threading.Thread:
    """Start a daemon thread that joins ``process`` and reports its exit.

    The watcher blocks in ``process.join()`` (no CPU) and, when the
    process exits, calls ``on_exit(exitcode)``.  This is the parent-side
    death-detection half of the supervision machinery, shared by
    :class:`ProcessExecutor` (training workers) and the sharded serving
    pool (:mod:`repro.serving.shard`): the callback decides what a death
    means — push a wakeup message, schedule a respawn — while the watcher
    itself stays a dumb, exception-swallowing join loop.
    """

    def _watch():
        process.join()
        try:
            on_exit(process.exitcode)
        except Exception:  # noqa: BLE001 — a dying callback must not kill the thread
            pass

    thread = threading.Thread(target=_watch, daemon=True, name=name)
    thread.start()
    return thread


def reap_processes(processes) -> None:
    """Join every process, escalating join → terminate → kill.

    A worker stuck in uninterruptible state must not leak past its owner:
    after a grace join fails the parent terminates, then kills — the same
    drain discipline the serving layer applies to requests.
    """
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable handle to a shared-memory array: name + shape + dtype."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArray:
    """Parent-side owner of one array copied into a shared-memory segment.

    The single copy happens here, in the parent; workers attach by name
    (:class:`AttachedArray`) and read the same physical pages — the
    feature matrix is never pickled.  The parent must call :meth:`close`
    (unlinks the segment) when every worker is done.
    """

    def __init__(self, array: np.ndarray):
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(array)
        # A zero-size array still needs a 1-byte segment (shm forbids 0).
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self.spec = SharedArraySpec(self._shm.name, tuple(array.shape), str(array.dtype))
        self.nbytes = int(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self._shm.buf)
        view[...] = array
        del view  # keep no buffer exports alive so close() can unmap

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # a view outlived us; the OS reclaims at exit
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class AttachedArray:
    """Worker-side read-only view of a :class:`SharedArray` segment."""

    def __init__(self, spec: SharedArraySpec):
        from multiprocessing import shared_memory

        # Workers inherit the parent's resource tracker (both fork and
        # spawn pass the tracker fd down), and the tracker's cache is a
        # set — so this attach-side registration is a no-op and the
        # parent's unlink() is the single deregistration.  Do NOT
        # unregister here: that would remove the parent's entry and make
        # its unlink() print a KeyError from the tracker process.
        self._shm = shared_memory.SharedMemory(name=spec.name)
        self.array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=self._shm.buf)
        self.array.flags.writeable = False

    def close(self) -> None:
        """Drop the view and unmap (never unlinks — the parent owns that)."""
        self.array = None
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            pass


@dataclass(frozen=True)
class MapStats:
    """Timing of one :meth:`ProcessExecutor.map` call.

    ``task_seconds`` is indexed like the task list; ``worker_seconds`` is
    each worker's busy wall time (initializer + its tasks + finalizer).
    ``utilisation`` is busy time over ``n_workers ×`` parent wall time —
    1.0 means the pool never idled.
    """

    wall_seconds: float
    worker_seconds: tuple[float, ...]
    task_seconds: tuple[float, ...]
    n_workers: int
    in_process: bool
    #: Dead workers replaced during the call (see ``max_respawns``).
    respawns: int = 0

    @property
    def utilisation(self) -> float:
        if self.wall_seconds <= 0 or self.n_workers == 0:
            return 0.0
        return min(1.0, sum(self.worker_seconds) / (self.n_workers * self.wall_seconds))


def _worker_main(worker_index, fn, assigned, initializer, initargs, finalizer, results):
    """Worker entry point: broadcast init, run assigned tasks, report done."""
    busy_start = time.perf_counter()
    task_index = None
    try:
        try:
            if initializer is not None:
                initializer(*initargs)
            for task_index, task in assigned:
                task_start = time.perf_counter()
                value = fn(task)
                results.put(
                    ("result", worker_index, task_index, value, time.perf_counter() - task_start)
                )
        finally:
            if finalizer is not None:
                finalizer()
    except BaseException as error:  # noqa: BLE001 — forwarded as WorkerError
        results.put(
            (
                "error",
                worker_index,
                task_index,
                type(error).__name__,
                str(error),
                traceback.format_exc(),
            )
        )
        return
    results.put(("done", worker_index, time.perf_counter() - busy_start))


class ProcessExecutor:
    """Deterministic static-assignment process pool.

    Parameters
    ----------
    n_workers:
        Process count; ``None`` or ``1`` runs everything in-process (no
        subprocess, no queues) — the graceful-fallback path.
    initializer, initargs:
        Run once per worker before any task — the read-only broadcast
        channel (e.g. a fitted encoder plus :class:`SharedArraySpec`
        handles).  Also invoked for the in-process fallback.
    finalizer:
        Run once per worker after its last task (even on failure); use it
        to close :class:`AttachedArray` handles.
    max_respawns:
        Supervision budget per :meth:`map` call: a worker that dies
        without finishing is replaced by a fresh process that re-runs
        only that worker's unfinished tasks (the static assignment makes
        the re-run bit-identical), up to this many replacements total.
        Budget exhausted → typed :class:`WorkerError`.  ``0`` disables
        respawning (every death escalates immediately).
    """

    def __init__(
        self,
        n_workers: int | None = None,
        initializer=None,
        initargs: tuple = (),
        finalizer=None,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
    ):
        self.n_workers = resolve_n_workers(n_workers)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.finalizer = finalizer
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be non-negative, got {max_respawns}")
        self.max_respawns = int(max_respawns)
        self.last_stats: MapStats | None = None

    def map(self, fn, tasks) -> list:
        """Run ``fn`` over ``tasks``; results come back in task order.

        Tasks are assigned round-robin up front (worker ``w`` gets tasks
        ``w, w + n, w + 2n, …``), so the task→worker mapping is a pure
        function of the task list — no scheduler nondeterminism.  Raises
        :class:`WorkerError` if any task raises or any worker dies.
        """
        tasks = list(tasks)
        if self.n_workers == 1 or len(tasks) <= 1:
            return self._map_in_process(fn, tasks)
        return self._map_processes(fn, tasks)

    def _map_in_process(self, fn, tasks) -> list:
        wall_start = time.perf_counter()
        results = [None] * len(tasks)
        task_seconds = [0.0] * len(tasks)
        try:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            for index, task in enumerate(tasks):
                task_start = time.perf_counter()
                results[index] = fn(task)
                task_seconds[index] = time.perf_counter() - task_start
        finally:
            if self.finalizer is not None:
                self.finalizer()
        wall = time.perf_counter() - wall_start
        self.last_stats = MapStats(
            wall_seconds=wall,
            worker_seconds=(wall,),
            task_seconds=tuple(task_seconds),
            n_workers=1,
            in_process=True,
        )
        return results

    def _spawn(self, context, result_queue, slot, incarnation, fn, assigned):
        """Start one worker for ``slot`` plus its parent-side watcher thread.

        The watcher blocks in ``process.join()`` (no CPU) and, when the
        worker exits, pushes a parent-side ``("exit", …)`` wakeup into the
        result queue.  Because the worker's own messages entered the queue
        pipe before it died and the wakeup is enqueued after, the parent
        consumes every result the worker managed to flush *before* acting
        on its death — no in-flight data is raced away.
        """
        process = context.Process(
            target=_worker_main,
            args=(
                slot,
                fn,
                assigned,
                self.initializer,
                self.initargs,
                self.finalizer,
                result_queue,
            ),
            daemon=True,
        )
        process.start()

        def _on_exit(exitcode):
            try:
                result_queue.put(("exit", slot, incarnation, exitcode))
            except (ValueError, OSError):  # queue already closed at teardown
                pass

        watch_process(process, _on_exit, name=f"executor-watch-{slot}")
        return process

    def _map_processes(self, fn, tasks) -> list:
        context = multiprocessing.get_context(default_start_method())
        n_procs = min(self.n_workers, len(tasks)) if tasks else self.n_workers
        result_queue = context.Queue()
        assignments = [
            [(index, tasks[index]) for index in range(worker, len(tasks), n_procs)]
            for worker in range(n_procs)
        ]
        wall_start = time.perf_counter()
        incarnations = [0] * n_procs
        current = [
            self._spawn(context, result_queue, slot, 0, fn, assignments[slot])
            for slot in range(n_procs)
        ]
        all_processes = list(current)

        results = [None] * len(tasks)
        received = [False] * len(tasks)
        task_seconds = [0.0] * len(tasks)
        worker_seconds = [0.0] * n_procs
        finished = [False] * n_procs
        respawns = 0
        error: WorkerError | None = None
        try:
            while not all(finished) and error is None:
                try:
                    # Blocking get: worker results, errors, and dones arrive
                    # here, and so do the watcher threads' exit wakeups — an
                    # idle parent burns no CPU (the busy-poll this replaces
                    # woke 10×/second for the whole training run).
                    message = result_queue.get(timeout=_QUEUE_BACKSTOP_SECONDS)
                except queue_module.Empty:
                    # Backstop only: a lost wakeup shows up as a long silence.
                    # Synthesise exit messages for any dead-but-unhandled
                    # workers and loop; live-and-working pools just re-block.
                    for slot, process in enumerate(current):
                        if not finished[slot] and process.exitcode is not None:
                            result_queue.put(
                                ("exit", slot, incarnations[slot], process.exitcode)
                            )
                    continue
                kind = message[0]
                if kind == "result":
                    _, slot, task_index, value, seconds = message
                    results[task_index] = value
                    received[task_index] = True
                    task_seconds[task_index] = seconds
                elif kind == "done":
                    _, slot, busy = message
                    worker_seconds[slot] += busy
                    finished[slot] = True
                elif kind == "error":
                    _, slot, task_index, cause_type, cause_message, text = message
                    error = WorkerError(
                        f"worker {slot} failed"
                        + (f" on task {task_index}" if task_index is not None else " during setup")
                        + f": {cause_type}: {cause_message}",
                        worker_index=slot,
                        task_index=task_index,
                        cause_type=cause_type,
                        worker_traceback=text,
                    )
                elif kind == "exit":
                    _, slot, incarnation, exitcode = message
                    if finished[slot] or incarnation != incarnations[slot]:
                        continue  # normal completion, or a stale duplicate
                    # The worker died mid-assignment.  Its results that
                    # reached the queue were consumed above (FIFO), so the
                    # remaining tasks are exactly the un-received ones —
                    # re-running them on a fresh worker is bit-identical
                    # because assignment is static, not work-stealing.
                    remaining = [
                        (index, task)
                        for index, task in assignments[slot]
                        if not received[index]
                    ]
                    if not remaining:
                        finished[slot] = True
                        continue
                    if respawns >= self.max_respawns:
                        error = WorkerError(
                            f"worker {slot} exited with code {exitcode} before "
                            f"finishing its tasks, and the respawn budget "
                            f"({self.max_respawns}) is exhausted",
                            worker_index=slot,
                        )
                        continue
                    respawns += 1
                    incarnations[slot] += 1
                    telemetry.count("parallel.workers.respawned")
                    replacement = self._spawn(
                        context, result_queue, slot, incarnations[slot], fn, remaining
                    )
                    current[slot] = replacement
                    all_processes.append(replacement)
        finally:
            # A worker terminated while its feeder thread holds the
            # queue's write lock leaves that lock held for good, and the
            # watchers' late wakeups then block this process's feeder
            # forever.  Nothing reads them after this point, so never
            # join that feeder (interpreter exit would hang on it).
            result_queue.cancel_join_thread()
            if error is not None:
                for process in all_processes:
                    if process.is_alive():
                        process.terminate()
            reap_processes(all_processes)
            result_queue.close()
        if error is not None:
            raise error
        self.last_stats = MapStats(
            wall_seconds=time.perf_counter() - wall_start,
            worker_seconds=tuple(worker_seconds),
            task_seconds=tuple(task_seconds),
            n_workers=n_procs,
            in_process=False,
            respawns=respawns,
        )
        return results
