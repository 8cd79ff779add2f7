"""Unit tests for shared runtime machinery (OutputStore, ScratchPool, the
ready pool, ...)."""

import threading

import numpy as np
import pytest

from repro.core import DependenceType, TaskGraph
from repro.core.validation import _BULK_BYTES
from repro.runtimes._common import (
    OutputStore,
    ScratchPool,
    capturing_outputs,
    check_drained,
    gather_row,
    retire_rows,
    run_point,
    task_keys,
)
from repro.runtimes._readypool import DependencyCounts, ReadyPool


def graphs2():
    return [
        TaskGraph(timesteps=4, max_width=3,
                  dependence=DependenceType.STENCIL_1D, graph_index=0),
        TaskGraph(timesteps=2, max_width=2,
                  dependence=DependenceType.TRIVIAL, graph_index=1),
    ]


class TestTaskKeys:
    def test_covers_all_tasks(self):
        gs = graphs2()
        keys = list(task_keys(gs))
        assert len(keys) == sum(g.total_tasks() for g in gs)
        assert len(set(keys)) == len(keys)

    def test_timestep_major_order(self):
        keys = list(task_keys(graphs2()))
        ts = [t for _, t, _ in keys]
        assert ts == sorted(ts)

    def test_interleaves_graphs_within_timestep(self):
        keys = list(task_keys(graphs2()))
        t0 = [(gi, i) for gi, t, i in keys if t == 0]
        assert t0 == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_shorter_graph_ends_early(self):
        keys = list(task_keys(graphs2()))
        assert all(gi == 0 for gi, t, _ in keys if t >= 2)

    def test_tree_skips_inactive_points(self):
        g = TaskGraph(timesteps=3, max_width=4, dependence=DependenceType.TREE)
        keys = list(task_keys([g]))
        assert (0, 0, 0) in keys and (0, 0, 1) not in keys


class TestConsumerCount:
    def test_stencil_interior(self):
        g = graphs2()[0]
        assert g.consumer_count(1, 1) == 3

    def test_last_timestep_zero(self):
        g = graphs2()[0]
        assert g.consumer_count(3, 1) == 0

    def test_trivial_zero(self):
        g = graphs2()[1]
        assert g.consumer_count(0, 0) == 0


class TestOutputStore:
    def test_put_take_roundtrip(self):
        s = OutputStore()
        buf = np.arange(4, dtype=np.uint8)
        s.put((0, 0, 0), buf, consumers=2)
        assert np.array_equal(s.take((0, 0, 0)), buf)
        assert len(s) == 1  # one consumer left
        s.take((0, 0, 0))
        assert len(s) == 0

    def test_zero_consumers_not_stored(self):
        s = OutputStore()
        s.put((0, 0, 0), np.zeros(1, dtype=np.uint8), consumers=0)
        assert len(s) == 0

    def test_double_put_rejected(self):
        s = OutputStore()
        s.put((0, 0, 0), np.zeros(1, dtype=np.uint8), consumers=1)
        with pytest.raises(RuntimeError, match="twice"):
            s.put((0, 0, 0), np.zeros(1, dtype=np.uint8), consumers=1)

    def test_take_missing_rejected(self):
        s = OutputStore()
        with pytest.raises(RuntimeError, match="not produced"):
            s.take((0, 9, 9))

    def test_over_take_rejected(self):
        s = OutputStore()
        s.put((0, 0, 0), np.zeros(1, dtype=np.uint8), consumers=1)
        s.take((0, 0, 0))
        with pytest.raises(RuntimeError):
            s.take((0, 0, 0))

    def test_assert_drained_passes_when_empty(self):
        OutputStore().assert_drained()

    def test_assert_drained_detects_leak(self):
        s = OutputStore()
        s.put((0, 1, 2), np.zeros(1, dtype=np.uint8), consumers=1)
        with pytest.raises(RuntimeError, match="never consumed"):
            s.assert_drained()

    def test_gather_canonical_order(self):
        g = graphs2()[0]
        s = OutputStore()
        from repro.core.validation import task_output

        for i in range(3):
            s.put((0, 0, i), task_output(g, 0, i), consumers=g.consumer_count(0, i))
        inputs = s.gather(g, 1, 1)
        assert len(inputs) == 3
        # canonical order means validation passes
        g.execute_point(1, 1, inputs)

    def test_gather_t0_empty(self):
        g = graphs2()[0]
        assert OutputStore().gather(g, 0, 1) == []


class TestScratchPool:
    def test_no_scratch_returns_none(self):
        g = graphs2()[0]
        pool = ScratchPool([g])
        assert pool.get(0, 0) is None

    def test_allocates_per_column(self):
        g = graphs2()[0].with_(scratch_bytes_per_task=32)
        pool = ScratchPool([g])
        a, b = pool.get(0, 0), pool.get(0, 1)
        assert a is not b
        assert a.nbytes == 32

    def test_reuses_buffer_across_calls(self):
        g = graphs2()[0].with_(scratch_bytes_per_task=32)
        pool = ScratchPool([g])
        assert pool.get(0, 0) is pool.get(0, 0)


class TestRunPoint:
    def test_executes_and_publishes(self):
        g = graphs2()[0]
        s = OutputStore()
        pool = ScratchPool([g])
        for i in range(3):
            run_point(s, pool, g, 0, i, validate=True)
        run_point(s, pool, g, 1, 1, validate=True)
        # (1,1) consumed one ref from each t=0 output but all three still
        # have other consumers pending, plus (1,1)'s own output: 4 entries.
        assert len(s) == 4


class _CountingCondition:
    """Stands in for a pool's condition: records wake-ups, refuses to
    block (a test that would wait has already failed)."""

    def __init__(self):
        self.notified = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def notify(self, n=1):
        self.notified.append(n)

    def notify_all(self):
        self.notified.append("all")

    def wait(self):
        raise AssertionError("claim() decided to wait")


def pool_with_counting_condition(*args, **kw):
    pool = ReadyPool(*args, **kw)
    pool.lock = _CountingCondition()
    return pool, pool.lock.notified


class TestReadyPool:
    def test_claims_one_item_fifo_without_a_share(self):
        pool = ReadyPool("abc", outstanding=3)
        assert [pool.claim(), pool.claim(), pool.claim()] == [["a"], ["b"], ["c"]]

    def test_claim_takes_its_share_of_the_queue(self):
        pool = ReadyPool(range(12), outstanding=12)
        assert pool.claim(share=4) == [0, 1, 2]  # 12 // 4
        assert pool.claim(share=4) == [3, 4]  # 9 // 4
        assert pool.claim(share=100) == [5]  # never less than one

    def test_claim_is_capped(self):
        pool = ReadyPool(range(100), outstanding=100)
        assert pool.claim(share=2) == list(range(ReadyPool.MAX_CLAIM))

    def test_complete_wakes_one_worker_per_released_item(self):
        pool, notified = pool_with_counting_condition("a", outstanding=5)
        pool.seal()
        assert pool.claim() == ["a"]
        pool.complete(1, ["b", "c"])
        assert notified == [2]
        pool.complete(0)  # releases nothing: wakes nobody
        assert notified == [2]
        assert pool.claim(share=1) == ["b", "c"]

    def test_last_completion_wakes_everybody_to_exit(self):
        pool, notified = pool_with_counting_condition("a", outstanding=1)
        pool.seal()
        pool.claim()
        pool.complete(1)
        assert notified == ["all"]
        assert pool.claim() is None

    def test_fail_wakes_all_and_latches_the_first_error(self):
        pool, notified = pool_with_counting_condition("ab", outstanding=2)
        first, second = RuntimeError("first"), RuntimeError("second")
        pool.fail(first)
        pool.fail(second)
        assert notified == ["all", "all"]
        assert pool.error is first
        assert pool.claim() is None  # even though work is still queued
        with pytest.raises(RuntimeError, match="first"):
            pool.add("c", ready=True)

    def test_open_pool_finishes_only_once_sealed_and_drained(self):
        pool, notified = pool_with_counting_condition()
        pool.add("a", ready=True)
        pool.add("b", ready=False)
        assert notified == [1]  # only the ready item wakes a worker
        assert pool.claim() == ["a"]
        pool.complete(1, ["b"])
        assert pool.claim() == ["b"]
        pool.complete(1)
        # Drained but still open: more work may come, so a worker waits.
        with pytest.raises(AssertionError, match="decided to wait"):
            pool.claim()
        pool.add("c", ready=True)
        pool.seal()
        # Sealed but not drained: not finished either.
        assert pool.claim() == ["c"]
        with pytest.raises(AssertionError, match="decided to wait"):
            pool.claim()
        pool.complete(1)
        assert pool.claim() is None

    def test_run_joins_workers_and_reraises_the_first_error(self):
        pool = ReadyPool(range(4), outstanding=4)

        def body(items):
            raise ValueError(f"boom {items}")

        with pytest.raises(ValueError, match="boom"):
            pool.run(3, body, name="test-pool")
        assert not [th for th in threading.enumerate()
                    if th.name.startswith("test-pool")]

    def test_run_feeds_from_the_calling_thread(self):
        pool = ReadyPool()
        done = []

        def body(items):
            done.extend(items)
            pool.complete(len(items))

        pool.run(2, body, name="test-pool",
                 feed=lambda: [pool.add(k, ready=True) for k in range(20)])
        assert sorted(done) == list(range(20))


class TestRowsKeptWhole:
    """What ``serial`` and ``processes`` share in place of a store: the
    gather out of the row before and the drain check on the plans."""

    @pytest.mark.parametrize("nbytes", [16, _BULK_BYTES // 4 + 1],
                             ids=["block", "list"])
    def test_gather_is_the_plans_flat_order_for_any_sub_block(self, nbytes):
        g = TaskGraph(timesteps=4, max_width=4, output_bytes_per_task=nbytes,
                      dependence=DependenceType.STENCIL_1D)
        row = g.execute_row(0, 0, 4, [], scratch=None, validate=True)
        assert (type(row) is np.ndarray) == (nbytes == 16)
        plan = g.row_plan(1)
        for lo in range(4):
            for hi in range(lo, 5):
                got = gather_row(row, plan, lo, hi)
                want = [row[j] for i in range(lo, hi) for j in plan.deps[i]]
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                # One take of a block: a fresh block, laid end to end.
                assert type(got) is type(row)
                if type(got) is np.ndarray:
                    assert got.flags.c_contiguous and got.base is None
                g.execute_row(1, lo, hi, got, scratch=None, validate=True)

    def test_drain_check_compares_reads_with_promised_consumers(self):
        g = graphs2()[0]
        plans = [g.row_plan(t) for t in range(4)]
        check_drained(g, 0, None, plans[0])
        for t in range(1, 4):
            check_drained(g, t, plans[t - 1], plans[t])
        check_drained(g, 4, plans[3], None)
        # Row 1's outputs were published for [2, 3, 2] reads: a next row
        # that reads nothing (row 0's plan), or no next row, leaves them owed.
        for plan in (plans[0], None):
            with pytest.raises(RuntimeError, match=(
                    r"outputs of timestep 1 were published for \[2, 3, 2\] "
                    r"reads but are read (\[\]|\[0, 0, 0\]) times .* never "
                    "consumed")):
                check_drained(g, 2, plans[1], plan)

    def test_a_block_retires_with_exactly_one_output_per_task(self):
        """Sink or no sink: a row short (or long) of outputs was zipped
        against its columns and said nothing."""
        g = graphs2()[0]
        row = g.execute_row(0, 0, 3, [], scratch=None, validate=True)
        retire_rows(g, 0, 0, 3, row)
        for bad in (row[:2], list(row) + [row[0]]):
            with pytest.raises(RuntimeError, match=(
                    rf"row 0 block \[0, 3\) retired with {len(bad)} outputs "
                    "for 3 tasks")):
                retire_rows(g, 0, 0, 3, bad)
            with capturing_outputs() as sink:
                with pytest.raises(RuntimeError, match="retired with"):
                    retire_rows(g, 0, 0, 3, bad)
            assert not sink


class TestDependencyCounts:
    def test_seeds_and_releases_in_dependency_order(self):
        g = graphs2()[0]  # 4 x 3 stencil
        counts = DependencyCounts([g])
        assert counts.total == g.total_tasks()
        assert counts.ready == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
        # (1, 0) reads columns 0 and 1; (1, 1) reads all three.
        assert counts.release([(0, 0, 0)]) == []
        assert counts.release([(0, 0, 1)]) == [(0, 1, 0)]
        assert counts.release([(0, 0, 2)]) == [(0, 1, 1), (0, 1, 2)]

    def test_zero_dependency_graph_is_all_ready(self):
        g = graphs2()[1]  # trivial
        counts = DependencyCounts([g.with_(graph_index=0)])
        assert len(counts.ready) == counts.total == g.total_tasks()
