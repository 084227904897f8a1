"""Arithmetic and parsing the benchmark's numbers rest on."""

import os
import statistics
import time

import numpy as np
import pytest

from perfbench.common import (
    Slice,
    Span,
    Tracer,
    covered,
    git_commit,
    latency_from_due,
    least_stolen,
    parse_stat,
    parse_status_mb,
    process_tree,
    quartile_spread,
    queue_wait,
    quietest_block,
    self_time,
    slices,
    tail_supported,
    within,
)


def test_tail_needs_ten_samples_beyond():
    assert tail_supported(1000, 99)
    assert not tail_supported(999, 99)
    assert not tail_supported(19, 50)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 10.2, 9.8, 10.1, 10.7, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_latency_is_timed_from_the_due_time():
    due = [0.0, 0.010, 0.020]
    # A stall charges every request it delayed, from when each was due.
    assert latency_from_due(due, [0.030, 0.030, 0.031]) == pytest.approx([0.030, 0.020, 0.011])
    assert latency_from_due([1.0], [0.5]).tolist() == [0.0]


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered(0, 10, [(11, 12)]) == 0
    assert covered(0, 10, [(1, 9), (2, 3)]) == 8


def test_self_time_subtracts_children():
    parent = Span("p", 0.0, 10.0, None)
    children = [Span("a", 1.0, 4.0, 0), Span("b", 3.0, 6.0, 0), Span("c", 8.0, 9.0, 0)]
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == 10.0


class _Model:
    def outer(self, rows):
        return self.inner(rows) + 1

    def inner(self, rows):
        time.sleep(0.001)
        return len(rows)

    async def serve(self, rows, tenant=None):
        return len(rows)


def test_tracer_nests_spans_and_restores():
    originals = dict(vars(_Model))
    tracer = Tracer()
    tracer.wrap(_Model, "outer", "outer")
    tracer.wrap(_Model, "inner", "inner", size=lambda a, k: len(a[1]), key=lambda a, k: "t")
    model = _Model()
    assert model.outer([1, 2, 3]) == 4
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.size == 3 and inner.key == "t"
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.inside("inner", "outer") == [inner]
    assert tracer.inside("outer", "inner") == []
    assert self_time(outer, tracer.children(0)) < outer.duration
    assert tracer.mean_self_time("outer") == pytest.approx(outer.duration - inner.duration)
    assert tracer.mean_self_time("inner") == pytest.approx(inner.duration)
    tracer.restore()
    assert vars(_Model)["outer"] is originals["outer"]
    assert vars(_Model)["inner"] is originals["inner"]
    model.outer([1])
    assert len(tracer.spans) == 2


def test_tracer_wraps_coroutines_and_inherited_methods():
    import asyncio

    class Child(_Model):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "serve", "serve", key=lambda a, k: k["tenant"])
    assert asyncio.run(Child().serve([1, 2], tenant="x")) == 2
    assert tracer.spans[0].key == "x" and tracer.spans[0].parent is None
    tracer.restore()
    assert "serve" not in vars(Child)  # the inherited method is visible again


def test_queue_wait_matches_requests_to_their_tenants_model_call():
    tracer = Tracer()
    tracer.spans = [
        Span("request", 0.0, 10.0, None, key="a"),
        Span("request", 1.0, 6.0, None, key="b"),
        Span("model", 2.0, 5.0, None, key="b"),
        Span("model", 7.0, 9.0, None, key="a"),
        Span("model", 3.0, 4.0, None, key="a"),  # ended before, but not the last
    ]
    # a: 10 − 2 (its last call, 7–9); b: 5 − 3.  The median of 8 and 2.
    assert queue_wait(tracer, "request", "model") == pytest.approx(5.0)


def test_parse_stat_handles_parentheses_in_the_command():
    ticks = os.sysconf("SC_CLK_TCK")
    fields = ["S", "77"] + ["0"] * 9 + [str(3 * ticks), str(ticks)] + ["0"] * 30
    text = "1234 (odd) name (x)) " + " ".join(fields)
    assert parse_stat(text) == (77, pytest.approx(4.0))


def test_parse_status_memory_fields():
    status = "Name:\tx\nVmHWM:\t  3072 kB\nVmRSS:\t  2048 kB\nThreads: 1\n"
    assert parse_status_mb(status) == 2.0
    assert parse_status_mb(status, "VmHWM") == 3.0
    assert parse_status_mb("Name:\tkthread\n") == 0.0


def test_process_tree_from_a_fake_proc(tmp_path):
    def stat(pid, ppid):
        (tmp_path / str(pid)).mkdir()
        (tmp_path / str(pid) / "stat").write_text(f"{pid} (p) S {ppid} " + "0 " * 40)

    for pid, ppid in [(1, 0), (10, 1), (11, 10), (12, 10), (13, 11), (20, 1)]:
        stat(pid, ppid)
    (tmp_path / "self").mkdir()
    assert process_tree(10, proc=str(tmp_path)) == [10, 11, 12, 13]
    assert process_tree(13, proc=str(tmp_path)) == [13]


def test_process_tree_of_this_process_includes_a_child():
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(5)"])
    try:
        assert process_tree(os.getpid())[:1] == [os.getpid()]
        assert child.pid in process_tree(os.getpid())
    finally:
        child.kill()
        child.wait(timeout=10)


def test_git_commit_reads_refs_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert git_commit(tmp_path) is None
    (git / "packed-refs").write_text("# pack-refs\nabc123 refs/heads/main\n")
    assert git_commit(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert git_commit(tmp_path) == "def456"
    assert git_commit(tmp_path / "nowhere") is None


def test_quietest_block_takes_the_lowest_whole_block():
    latency = np.full(8300, 0.005)
    latency[:1000] = 0.050  # a burst of host noise lifts one block of eight
    latency[8000:] = 0.001  # a trailing part block is left out
    assert quietest_block(latency, 1000, 50) == pytest.approx(0.005)
    assert quietest_block(latency, 1000, 99) == pytest.approx(0.005)
    # A slow tail of the program's own shows once it reaches every block.
    some, every = latency.copy(), latency.copy()
    some[1000:7000:20] = 0.020
    every[0:8000:20] = 0.020
    every[:1000] = np.maximum(every[:1000], 0.050)
    assert quietest_block(some, 1000, 99) == pytest.approx(0.005)
    assert quietest_block(every, 1000, 99) == pytest.approx(0.020)
    # Fewer operations than one block: the pooled percentile.
    assert quietest_block(latency[7900:], 1000, 99) == pytest.approx(
        float(np.percentile(latency[7900:], 99))
    )
    with pytest.raises(ValueError):
        quietest_block(latency, 999, 99)


def test_quietest_block_among_marked_operations():
    latency = np.full(4000, 0.002)
    behind = np.zeros(4000, dtype=bool)
    behind[::5] = True
    latency[behind] = 0.008
    latency[:1000][behind[:1000]] = 0.030  # a disturbed block
    # Blocks are cut from all operations; each block's percentile is over
    # its marked ones only.
    assert quietest_block(latency, 1000, 50, among=behind) == pytest.approx(0.008)
    # A block with too few marked operations is left out.
    sparse = np.zeros(4000, dtype=bool)
    sparse[:1000:5] = True
    sparse[1000:1010] = True
    assert quietest_block(latency, 1000, 50, among=sparse) == pytest.approx(0.030)
    # No whole block: the pooled percentile of the marked operations.
    assert quietest_block(latency[:500], 1000, 50, among=behind[:500]) == pytest.approx(0.030)


def test_within_finds_times_inside_any_interval():
    starts, ends = np.array([2.5, 1.0, 4.0]), np.array([6.0, 2.0, 4.5])
    inside = within([0.0, 1.0, 2.0, 3.0, 4.2, 5.0, 6.0, 10.0], starts, ends)
    assert inside.tolist() == [False, True, False, True, True, True, False, False]
    assert within([1.0], np.array([]), np.array([])).tolist() == [False]


def test_slices_file_completions_and_share_out_steal():
    cpus = os.cpu_count()
    marks = [(10.0, 0.0), (10.5, 0.1 * cpus), (11.0, 0.1 * cpus)]
    cut = slices(marks, [(9.9, 1.0), (10.2, 2.0), (10.5, 3.0), (10.9, 4.0), (11.0, 5.0)])
    assert [piece.duration for piece in cut] == [0.5, 0.5]
    assert [piece.steal for piece in cut] == pytest.approx([0.2, 0.0])
    assert [piece.latency.tolist() for piece in cut] == [[2.0], [3.0, 4.0]]


def test_least_stolen_ranks_by_steal_not_by_latency():
    def piece(steal, latency):
        return Slice(0.25, steal, np.asarray(latency, dtype=float))

    cut = [piece(0.3, [1.0]), piece(0.1, [5.0]), piece(0.0, [9.0, 9.0]), piece(0.02, [7.0])]
    latency, seconds = least_stolen(cut, 0.5)
    assert latency.tolist() == [9.0, 9.0, 7.0] and seconds == 0.5
    # At least one slice is kept, and every slice that lost no more.
    assert least_stolen(cut, 0.0)[0].tolist() == [9.0, 9.0]
    cut.append(piece(0.0, [8.0]))
    assert least_stolen(cut, 0.2)[0].tolist() == [9.0, 9.0, 8.0]


def test_disabled_tracer_only_calls_through():
    tracer = Tracer()
    tracer.wrap(_Model, "outer", "outer")
    try:
        tracer.enabled = False
        assert _Model().outer([1, 2]) == 3
        assert tracer.spans == []
        tracer.enabled = True
        _Model().outer([1])
        assert [s.name for s in tracer.spans] == ["outer"]
    finally:
        tracer.restore()
