"""Task-dependency thread-pool executor (OpenMP-task / OmpSs analogue,
paper §3.6-3.7).

The whole DAG is driven by dependency counting: every task knows how many
inputs it still waits for; completing a task decrements its consumers and
enqueues those that become ready.  Workers pull from a shared ready deque —
the classic shared-memory tasking model of OpenMP 4.0 ``task depend``.
"""

from __future__ import annotations

import collections
import threading
from typing import Dict, List, Sequence, Tuple

from ..core.bufpool import HeapSlabPool
from ..core.executor_base import Executor
from ..core.metrics import DataPlaneStats
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import (
    OutputStore,
    ScratchPool,
    TaskKey,
    pool_data_plane,
    run_point_batch,
)


class DependencyCountingScheduler:
    """Shared state: ready queue, pending-input counters, completion latch."""

    def __init__(self, graphs: Sequence[TaskGraph]) -> None:
        self.graphs = {g.graph_index: g for g in graphs}
        self.lock = threading.Lock()
        self.ready: collections.deque[TaskKey] = collections.deque()
        self.ready_cv = threading.Condition(self.lock)
        self.pending: Dict[TaskKey, int] = {}
        self.remaining = 0
        self.error: BaseException | None = None
        ready = self.ready
        pending = self.pending
        for g in graphs:
            gi = g.graph_index
            for t in range(g.timesteps):
                off, counts = g.dependency_count_row(t)
                self.remaining += len(counts)
                for k, ndeps in enumerate(counts):
                    if ndeps == 0:
                        ready.append((gi, t, off + k))
                    else:
                        pending[(gi, t, off + k)] = ndeps

    #: Cap on tasks claimed per lock acquisition: bounds the scheduling
    #: latency a slow batch can impose on newly-ready consumers.
    MAX_CLAIM = 8

    def next_batch(self, share: int) -> List[TaskKey] | None:
        """Block until tasks are ready and claim up to ``1/share`` of the
        ready queue in one lock acquisition (at least one task); ``None``
        when the DAG is complete.

        Claiming several tasks amortizes the lock/condition overhead — the
        thread-pool analogue of the fork pool's batched round dispatch —
        while claiming only a share of the queue keeps the remainder
        available to other workers, so parallelism is preserved whenever
        the ready set is wider than the pool.

        The wait is purely event-driven: every state change that can
        unblock a worker (``complete_batch`` enqueueing ready tasks or
        retiring the last one, ``fail`` recording an error) signals
        ``ready_cv``, so idle workers wake and exit promptly on failure
        instead of relying on a polling timeout or daemon-thread teardown.
        """
        with self.ready_cv:
            while True:
                if self.error is not None:
                    raise self.error
                ready = self.ready
                if ready:
                    n = len(ready) // share
                    if n < 1:
                        n = 1
                    elif n > self.MAX_CLAIM:
                        n = self.MAX_CLAIM
                    popleft = ready.popleft
                    return [popleft() for _ in range(n)]
                if self.remaining == 0:
                    return None
                self.ready_cv.wait()

    def complete_batch(self, done: Sequence[Tuple[TaskGraph, int, int]]) -> None:
        """Record a claimed batch's completions under one lock acquisition,
        waking only as many workers as tasks became ready (a completion
        that releases nothing wakes nobody)."""
        with self.ready_cv:
            pending = self.pending
            ready = self.ready
            newly = 0
            self.remaining -= len(done)
            for g, t, i in done:
                gi = g.graph_index
                for j in g.reverse_dependency_columns(t, i):
                    key = (gi, t + 1, j)
                    left = pending[key] - 1
                    if left == 0:
                        del pending[key]
                        ready.append(key)
                        newly += 1
                    else:
                        pending[key] = left
            if self.remaining == 0:
                self.ready_cv.notify_all()
            elif newly:
                self.ready_cv.notify(newly)

    def fail(self, exc: BaseException) -> None:
        with self.ready_cv:
            if self.error is None:
                self.error = exc
            self.ready_cv.notify_all()


class ThreadPoolTaskExecutor(Executor):
    """Worker threads executing a dependency-counted task DAG."""

    name = "threads"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._data_plane: DataPlaneStats | None = None

    @property
    def cores(self) -> int:
        return self.workers

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        sched = DependencyCountingScheduler(graphs)
        store = OutputStore()
        scratch = ScratchPool(graphs)
        # Same address space, so a heap-backed slab pool: output buffers
        # recycle across timesteps instead of being reallocated per task.
        buffers = HeapSlabPool()

        share = self.workers
        graphs_by_index = sched.graphs

        def worker() -> None:
            # Claim/retire several ready tasks per lock acquisition, fuse
            # the batch's data-plane lock traffic (run_point_batch), and let
            # complete_batch wake only as many workers as tasks became ready.
            try:
                while True:
                    t0 = trace.begin() if trace.enabled else 0
                    keys = sched.next_batch(share)
                    if t0:
                        trace.complete("sched.wait", trace.CAT_SCHED, t0)
                    if keys is None:
                        return
                    done = run_point_batch(
                        store, scratch, graphs_by_index, keys,
                        validate=validate, pool=buffers,
                    )
                    sched.complete_batch(done)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                sched.fail(exc)

        threads = [
            threading.Thread(target=worker, name=f"task-worker-{w}", daemon=True)
            for w in range(self.workers)
        ]
        for th in threads:
            th.start()
        try:
            for th in threads:
                th.join()
            if sched.error is not None:
                raise sched.error
            store.assert_drained()
            self._data_plane = pool_data_plane(buffers)
        finally:
            buffers.close()
