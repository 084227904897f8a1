"""Measurement helpers shared by the workloads.

Statistics, ``/proc`` process accounting, spans recorded around calls into
the program's public functions, the frozen-GC timing window and the
provenance block every run prints.  Nothing here imports the program, so
the helpers are testable on their own.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import functools
import gc
import inspect
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0 >= 10.0


def quartile_spread(values) -> float:
    """(Q3 − Q1) ÷ median, with ``statistics.quantiles(values, n=4)`` quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float((q3 - q1) / statistics.median(values))


def quietest_block(latency, size: int, q: float, among=None) -> float:
    """The ``q``-th percentile latency of the least disturbed block.

    ``latency`` is in due order; a block is ``size`` consecutive operations,
    and a trailing part block is left out.  On a shared machine, CPU
    stolen by other guests comes in bursts that lift whole blocks, and in
    a busy spell it lifts most of them, so the lowest block is the figure
    only the program moves.  It sees a slowdown of the program's own that
    reaches every block: a cost on every request, or a stall that recurs
    at least once per block.  A rarer stall shows only in the pooled
    percentile.

    ``among`` (a mask over the operations) restricts each block's
    percentile to the operations it marks; blocks are still cut from all
    operations, so each covers the same stretch of the run, and a block
    with fewer than ten marked operations beyond the percentile is left
    out.  Falls back to the pooled percentile when no block is left.
    """
    if not tail_supported(size, q):
        raise ValueError(f"{size} operations leave fewer than ten beyond the {q}th percentile")
    latency = np.asarray(latency, dtype=float)
    marked = np.ones(latency.shape, dtype=bool) if among is None else np.asarray(among, dtype=bool)
    n_blocks = latency.shape[0] // size
    values = [
        np.percentile(latency[first : first + size][marked[first : first + size]], q)
        for first in range(0, n_blocks * size, size)
        if tail_supported(int(marked[first : first + size].sum()), q)
    ]
    if not values:
        return float(np.percentile(latency[marked], q))
    return float(min(values))


def within(times, starts, ends) -> np.ndarray:
    """Which of ``times`` fall inside any of the intervals ``[start, end)``."""
    times = np.asarray(times, dtype=float)
    order = np.argsort(starts, kind="stable")
    starts = np.asarray(starts, dtype=float)[order]
    reach = np.maximum.accumulate(np.asarray(ends, dtype=float)[order])
    last = np.searchsorted(starts, times, side="right") - 1
    inside = np.zeros(times.shape, dtype=bool)
    started = last >= 0
    inside[started] = times[started] < reach[last[started]]
    return inside


@dataclass
class Slice:
    """A stretch of a saturated phase: its length, the share of CPU time
    the host gave to other guests during it, and the latencies of the
    operations that completed in it."""

    duration: float
    steal: float
    latency: np.ndarray


def slices(marks, completions) -> list[Slice]:
    """Cut a phase at ``marks`` — ``(time, host steal seconds)`` pairs in
    time order — and file each ``(completion time, latency)`` under the
    slice it completed in."""
    marks = list(marks)
    done = np.array([t for t, _ in completions], dtype=float)
    latency = np.array([lat for _, lat in completions], dtype=float)
    cpus = os.cpu_count() or 1
    cut = []
    for (t0, s0), (t1, s1) in zip(marks, marks[1:]):
        inside = (done >= t0) & (done < t1)
        cut.append(Slice(t1 - t0, (s1 - s0) / ((t1 - t0) * cpus), latency[inside]))
    return cut


def least_stolen(cut, share: float) -> tuple[np.ndarray, float]:
    """Latencies and total length of the ``share`` of slices the host took
    least CPU time from, and of every other slice it took no more from.

    When the host is busy, the hypervisor takes CPU time from the vCPUs in
    spells that come and go within a run and that slow everything running
    then; ranking slices by the steal the guest kernel counted, not by the
    figures themselves, keeps the program's own slowdowns: they reach the
    least-stolen slices as much as any.  On a quiet host most slices lose
    nothing, and all of those count.
    """
    ranked = sorted(piece.steal for piece in cut)
    limit = ranked[max(1, round(len(ranked) * share)) - 1]
    kept = [piece for piece in cut if piece.steal <= limit]
    return np.concatenate([piece.latency for piece in kept]), sum(p.duration for p in kept)


def latency_from_due(due, done) -> np.ndarray:
    """Latency of each operation timed from when it was due, not from when
    it was sent, so a stall is charged to every operation it delayed."""
    return np.maximum(np.asarray(done, dtype=float) - np.asarray(due, dtype=float), 0.0)


# -- /proc process accounting --------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def parse_stat(text: str) -> tuple[int, float]:
    """``(ppid, utime + stime in seconds)`` from a ``/proc/<pid>/stat`` line.

    The command name sits in parentheses and may itself hold spaces or
    parentheses, so fields are counted from the last ``)``.
    """
    fields = text[text.rindex(")") + 2 :].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15.
    ppid = int(fields[1])
    ticks = int(fields[11]) + int(fields[12])
    return ppid, ticks / _CLOCK_TICKS


def parse_status_mb(status_text: str, field: str = "VmRSS") -> float:
    """A memory field of a ``/proc/<pid>/status`` text in MiB: ``VmRSS``
    (resident now) or ``VmHWM`` (the peak)."""
    for line in status_text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    return 0.0  # kernel threads and zombies report no memory fields


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None


def process_tree(root: int, proc: str = "/proc") -> list[int]:
    """``root`` followed by every live descendant, parents before children."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        text = _read(f"{proc}/{entry}/stat")
        if text is None:
            continue
        ppid, _ = parse_stat(text)
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier for child in sorted(children.get(pid, []))]
        tree.extend(frontier)
    return tree


def cpu_seconds(pid: int, proc: str = "/proc") -> float:
    text = _read(f"{proc}/{pid}/stat")
    return 0.0 if text is None else parse_stat(text)[1]


def rss_mb(pid: int, proc: str = "/proc") -> float:
    text = _read(f"{proc}/{pid}/status")
    return 0.0 if text is None else parse_status_mb(text)


def host_steal_seconds(proc: str = "/proc") -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    text = _read(f"{proc}/stat") or ""
    fields = text.split("\n", 1)[0].split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 and fields[0] == "cpu" else 0.0


# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    size: int = 0
    key: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if min(end, e) > max(start, s)
    )
    total, reach = 0.0, start
    for s, e in clipped:
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return span.duration - covered(span.start, span.end, [(c.start, c.end) for c in children])


_INHERITED = object()


class Tracer:
    """Records spans around calls into the program's public functions.

    :meth:`wrap` replaces an attribute of a class or module with a wrapper
    that records ``name``, start, end, the enclosing span and, optionally,
    the number of rows the call handled; :meth:`restore` puts every
    original back.  Synchronous spans nest through a stack (the wrapped
    code is single-threaded); coroutine spans record no parent, because
    other tasks run between their start and end.  While ``enabled`` is
    false the wrappers only call through, so a run can time the same
    work with and without spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, size=None, key=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.spans.append(
                        Span(
                            name,
                            start,
                            time.perf_counter(),
                            None,
                            size(args, kwargs) if size else 0,
                            key(args, kwargs) if key else None,
                        )
                    )

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                span = Span(
                    name,
                    0.0,
                    0.0,
                    tracer._stack[-1] if tracer._stack else None,
                    size(args, kwargs) if size else 0,
                    key(args, kwargs) if key else None,
                )
                tracer.spans.append(span)
                tracer._stack.append(len(tracer.spans) - 1)
                span.start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    tracer._stack.pop()

        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def children(self, index: int) -> list[Span]:
        return [span for span in self.spans if span.parent == index]

    def mean_self_time(self, name: str) -> float:
        """Mean self time of the spans called ``name``."""
        times = [
            self_time(span, self.children(index))
            for index, span in enumerate(self.spans)
            if span.name == name
        ]
        return sum(times) / len(times)

    def inside(self, name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        found = []
        for span in self.named(name):
            parent = span.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            if parent is not None:
                found.append(span)
        return found


def queue_wait(tracer: Tracer, request_span: str, model_span: str) -> float:
    """Median over requests of their span minus the model call that served them.

    Both kinds of span carry the tenant as their key.  A request's model
    call is the last call for its tenant that started after the request
    and ended before it.
    """
    by_key: dict[object, list[Span]] = {}
    for span in sorted(tracer.named(model_span), key=lambda s: s.end):
        by_key.setdefault(span.key, []).append(span)
    ends = {key: [span.end for span in spans] for key, spans in by_key.items()}
    waits = []
    for request in tracer.named(request_span):
        spans = by_key.get(request.key, [])
        position = bisect.bisect_right(ends.get(request.key, []), request.end) - 1
        if position >= 0 and spans[position].start >= request.start:
            waits.append(request.duration - spans[position].duration)
    return median(waits) if waits else 0.0


def rows(args, kwargs) -> int:
    """Row count of the first positional argument after ``self``."""
    shape = getattr(args[1], "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


# -- timing window -------------------------------------------------------------


@contextlib.contextmanager
def frozen_gc():
    """Collect once, then keep the collector out of the timed window."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# -- provenance ----------------------------------------------------------------


def git_commit(root: Path = ROOT) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = root / ".git" / "HEAD"
    try:
        head = head_path.read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (root / ".git" / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS library, version and thread count as NumPy was built and runs."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    text = _read("/proc/self/maps") or ""
    paths = sorted({line.split()[-1] for line in text.splitlines() if "openblas" in line})
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype, function.argtypes = ctypes.c_int, []
                info["threads"] = int(function())
                return info
    return info


def environment(seed: int, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


# -- result --------------------------------------------------------------------


@dataclass
class Result:
    """What one workload run measured and whether its outputs were right."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    summary: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: dict[str, object] = field(default_factory=dict)

