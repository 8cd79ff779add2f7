"""Bulk-synchronous executor (MPI bulk-sync analogue, paper §3.4).

Distinct computation and communication phases with a barrier between
timesteps: all tasks of timestep ``t`` complete before any task of ``t + 1``
starts.  The phase structure is what makes this model vulnerable to load
imbalance (paper §5.7: "the MPI implementation of Task Bench, with its
distinct computation and communication phases, suffers the most").
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from ..core.bufpool import HeapSlabPool
from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import OutputStore, ScratchPool, pool_data_plane, run_point_batch
from .processes import _split


class BulkSyncExecutor(Executor):
    """Thread-pool execution with a barrier after every timestep.

    Each worker gets one static column block per timestep (the paper's MPI
    shim owns a block per rank) and runs it as one ``run_point_batch``: one
    future, one gather, one publish per block instead of per task."""

    name = "bulk_sync"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        store = OutputStore()
        scratch = ScratchPool(graphs)
        # Same address space, so a heap-backed slab pool: output buffers
        # recycle across timesteps instead of being reallocated per task.
        buffers = HeapSlabPool()
        by_index = {g.graph_index: g for g in graphs}
        max_t = max(g.timesteps for g in graphs)
        try:
            with ThreadPoolExecutor(self.workers, "bulk-sync-worker") as pool:
                for t in range(max_t):
                    t0 = trace.begin() if trace.enabled else 0
                    futures = []
                    for g in graphs:
                        if t >= g.timesteps:
                            continue
                        off = g.offset_at_timestep(t)
                        for lo, hi in _split(
                                off, off + g.width_at_timestep(t), self.workers):
                            futures.append(
                                pool.submit(
                                    run_point_batch, store, scratch, by_index,
                                    [(g.graph_index, t, i) for i in range(lo, hi)],
                                    validate=validate, pool=buffers,
                                )
                            )
                    # The barrier: every task of this timestep must finish
                    # (and any failure propagate) before the next timestep
                    # launches.
                    for f in futures:
                        f.result()
                    if t0:
                        # The phase span: submit + barrier for one timestep,
                        # the idle-gap signature of the bulk-sync model.
                        trace.complete(
                            "timestep", trace.CAT_DISPATCH, t0, {"t": t}
                        )
            store.assert_drained()
            self._data_plane = pool_data_plane(buffers)
        finally:
            buffers.close()
