"""Executor layer: shard planning, shared-memory shipping, typed errors."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.parallel.executor import (
    AttachedArray,
    ProcessExecutor,
    SharedArray,
    WorkerError,
    default_start_method,
    plan_shards,
    resolve_n_workers,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no working shared memory on this platform"
)


# Task functions must be module-level so worker processes can import them.
def _double(task):
    return task * 2


def _fail_on_three(task):
    if task == 3:
        raise ValueError("boom three")
    return task


_STATE = {}


def _install_state(value):
    _STATE["value"] = value


def _read_state(task):
    return (_STATE.get("value"), task)


def _clear_state():
    _STATE.clear()


class TestPlanShards:
    def test_even_split(self):
        assert plan_shards(8, 4) == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_remainder_goes_to_leading_shards(self):
        assert plan_shards(10, 4) == ((0, 3), (3, 6), (6, 8), (8, 10))

    def test_more_workers_than_items_yields_empty_tail_shards(self):
        shards = plan_shards(2, 5)
        assert len(shards) == 5
        assert shards[:2] == ((0, 1), (1, 2))
        assert all(start == stop for start, stop in shards[2:])

    def test_zero_items(self):
        assert plan_shards(0, 3) == ((0, 0), (0, 0), (0, 0))

    def test_shards_are_contiguous_and_cover_everything(self):
        shards = plan_shards(17, 5)
        assert shards[0][0] == 0
        assert shards[-1][1] == 17
        for (_, stop), (start, _) in zip(shards, shards[1:]):
            assert stop == start

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestResolveNWorkers:
    def test_none_means_one(self):
        assert resolve_n_workers(None) == 1

    def test_positive_passes_through(self):
        assert resolve_n_workers(4) == 4

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_workers(0)


class TestSharedArray:
    def test_round_trip(self):
        original = np.arange(24, dtype=np.float32).reshape(4, 6)
        shared = SharedArray(original)
        try:
            attached = AttachedArray(shared.spec)
            assert np.array_equal(attached.array, original)
            assert not attached.array.flags.writeable
            attached.close()
        finally:
            shared.close()

    def test_spec_is_picklable(self):
        shared = SharedArray(np.zeros(3))
        try:
            spec = pickle.loads(pickle.dumps(shared.spec))
            assert spec == shared.spec
        finally:
            shared.close()

    def test_zero_size_array(self):
        shared = SharedArray(np.empty((0, 5), dtype=np.int64))
        try:
            attached = AttachedArray(shared.spec)
            assert attached.array.shape == (0, 5)
            attached.close()
        finally:
            shared.close()

    def test_close_is_idempotent(self):
        shared = SharedArray(np.ones(4))
        shared.close()
        shared.close()

    def test_context_manager_unlinks(self):
        with SharedArray(np.ones(4)) as shared:
            spec = shared.spec
        with pytest.raises(FileNotFoundError):
            AttachedArray(spec)


class TestProcessExecutor:
    def test_in_process_fallback(self):
        executor = ProcessExecutor(n_workers=1)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor.last_stats.in_process is True

    def test_single_task_stays_in_process(self):
        executor = ProcessExecutor(n_workers=4)
        assert executor.map(_double, [5]) == [10]
        assert executor.last_stats.in_process is True

    def test_two_workers_preserve_task_order(self):
        tasks = list(range(7))
        executor = ProcessExecutor(n_workers=2)
        assert executor.map(_double, tasks) == [task * 2 for task in tasks]
        stats = executor.last_stats
        assert stats.in_process is False
        assert stats.n_workers == 2
        assert len(stats.task_seconds) == len(tasks)
        assert 0.0 <= stats.utilisation <= 1.0

    def test_initializer_broadcast_and_finalizer(self):
        executor = ProcessExecutor(
            n_workers=2,
            initializer=_install_state,
            initargs=("broadcast",),
            finalizer=_clear_state,
        )
        results = executor.map(_read_state, [0, 1, 2])
        assert results == [("broadcast", 0), ("broadcast", 1), ("broadcast", 2)]
        # The parent's module state is untouched (workers are processes).
        assert "value" not in _STATE

    def test_worker_error_is_typed(self):
        executor = ProcessExecutor(n_workers=2)
        with pytest.raises(WorkerError) as excinfo:
            executor.map(_fail_on_three, [1, 2, 3, 4])
        error = excinfo.value
        assert error.cause_type == "ValueError"
        assert "boom three" in str(error)
        assert "boom three" in error.worker_traceback

    def test_default_start_method_is_supported(self):
        assert default_start_method() in ("fork", "spawn")

    def test_process_exits_after_failing_maps(self, tmp_path):
        # A failing map terminates the other workers, one of which may hold
        # the result queue's write lock at that moment; the parent must
        # still exit.  Before the fix, about one failing map in fifteen
        # left exit waiting forever on the parent's queue feeder thread.
        script = tmp_path / "failing_maps.py"
        script.write_text(textwrap.dedent(
            """
            from repro.parallel.executor import ProcessExecutor, WorkerError

            def fail_on_three(task):
                if task == 3:
                    raise ValueError("boom three")
                return task

            if __name__ == "__main__":
                for _ in range(40):
                    try:
                        ProcessExecutor(n_workers=2).map(fail_on_three, [1, 2, 3, 4])
                    except WorkerError:
                        pass
            """
        ))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, timeout=60
        )
        assert result.returncode == 0, result.stderr.decode()
