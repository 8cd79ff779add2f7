"""Task-dependency thread-pool executor (OpenMP-task / OmpSs analogue,
paper §3.6-3.7).

The whole DAG is driven by dependency counting: every task knows how many
inputs it still waits for; completing a task decrements its consumers and
enqueues those that become ready.  Workers pull from a shared ready deque —
the classic shared-memory tasking model of OpenMP 4.0 ``task depend``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.bufpool import HeapSlabPool
from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ._common import (
    OutputStore,
    ScratchPool,
    TaskKey,
    pool_data_plane,
    run_point_batch,
)
from ._readypool import DependencyCounts, ReadyPool


class ThreadPoolTaskExecutor(Executor):
    """Worker threads executing a dependency-counted task DAG."""

    name = "threads"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        counts = DependencyCounts(graphs)
        ready = ReadyPool(counts.ready, counts.total)
        store = OutputStore()
        scratch = ScratchPool(graphs)
        # Same address space, so a heap-backed slab pool: output buffers
        # recycle across timesteps instead of being reallocated per task.
        buffers = HeapSlabPool()

        def run_batch(keys: List[TaskKey]) -> None:
            # Several ready tasks per claim: the batch's data-plane lock
            # traffic is fused (run_point_batch) and its completions are
            # counted down under one hold of the ready pool's lock.
            run_point_batch(
                store, scratch, counts.graphs, keys,
                validate=validate, pool=buffers,
            )
            with ready.lock:
                ready.complete(len(keys), counts.release(keys))

        try:
            ready.run(
                self.workers, run_batch, name="task-worker",
                share=self.workers,
            )
            store.assert_drained()
            self._data_plane = pool_data_plane(buffers)
        finally:
            buffers.close()
