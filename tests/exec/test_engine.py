"""Engine-level determinism: submit-order results, merges and errors."""

from __future__ import annotations

import threading
import time

import pytest

import repro.exec.engine
from repro.exec import ExecutionPlan, execute


class TestSequentialPath:
    def test_single_worker_runs_inline(self):
        thread_ids = []

        def run(_ctx, i):
            thread_ids.append(threading.get_ident())
            return i * 10

        results = execute(4, ExecutionPlan(workers=1), run=run)
        assert results == [0, 10, 20, 30]
        assert set(thread_ids) == {threading.get_ident()}

    def test_serialize_overrides_workers(self):
        thread_ids = []

        def run(_ctx, i):
            thread_ids.append(threading.get_ident())
            return i

        results = execute(
            6, ExecutionPlan(workers=4), run=run, serialize=True
        )
        assert results == list(range(6))
        assert set(thread_ids) == {threading.get_ident()}

    def test_zero_tasks(self):
        assert execute(0, ExecutionPlan(workers=4), run=lambda c, i: i) == []


class TestSubmitOrder:
    def test_adversarial_slow_workers_keep_submit_order(self):
        """Workers finishing in reverse order must not reorder results."""
        n = 12

        def run(_ctx, i):
            time.sleep((n - i) * 0.002)  # earliest-submitted finishes last
            return f"task-{i}"

        results = execute(n, ExecutionPlan(workers=4), run=run)
        assert results == [f"task-{i}" for i in range(n)]

    def test_merge_called_in_submit_order(self):
        merged = []

        def run(_ctx, i):
            time.sleep((8 - i) * 0.002)
            return i

        execute(
            8,
            ExecutionPlan(workers=4),
            context=lambda i: {"index": i},
            run=run,
            merge=lambda ctx, result, i: merged.append((ctx["index"], result, i)),
        )
        assert merged == [(i, i, i) for i in range(8)]

    def test_contexts_are_per_task(self):
        seen = []

        def run(ctx, i):
            seen.append(ctx)
            return ctx["id"]

        results = execute(
            5,
            ExecutionPlan(workers=3),
            context=lambda i: {"id": i},
            run=run,
        )
        assert results == list(range(5))
        assert len({id(ctx) for ctx in seen}) == 5

    def test_batching_respects_batch_size(self, monkeypatch):
        monkeypatch.setattr(repro.exec.engine, "BATCH_SIZE", 2)
        in_flight = []
        peak = []
        lock = threading.Lock()

        def run(_ctx, i):
            with lock:
                in_flight.append(i)
                peak.append(len(in_flight))
            time.sleep(0.005)
            with lock:
                in_flight.remove(i)
            return i

        results = execute(10, ExecutionPlan(workers=8), run=run)
        assert results == list(range(10))
        # a batch barrier of size 2 never lets more than 2 tasks overlap
        assert max(peak) <= 2


class TestErrorPropagation:
    def test_lowest_index_error_wins(self):
        def run(_ctx, i):
            time.sleep((6 - i) * 0.002)
            if i in (2, 4):
                raise ValueError(f"boom-{i}")
            return i

        with pytest.raises(ValueError, match="boom-2"):
            execute(6, ExecutionPlan(workers=6), run=run)

    def test_earlier_successes_merge_before_raise(self):
        merged = []

        def run(_ctx, i):
            if i == 3:
                raise RuntimeError("late failure")
            return i

        with pytest.raises(RuntimeError):
            execute(
                5,
                ExecutionPlan(workers=5),
                context=lambda i: None,
                run=run,
                merge=lambda ctx, result, i: merged.append(i),
            )
        assert merged == [0, 1, 2]

    def test_sequential_error_stops_immediately(self):
        ran = []

        def run(_ctx, i):
            ran.append(i)
            if i == 1:
                raise KeyError("stop")
            return i

        with pytest.raises(KeyError):
            execute(4, ExecutionPlan(workers=1), run=run)
        assert ran == [0, 1]
