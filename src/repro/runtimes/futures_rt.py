"""Delayed-futures executor (Dask analogue, paper §3.3).

The paper's Dask shim (Listing 2) builds a graph of delayed calls whose
arguments are the futures of their dependencies.  This executor does the
same with ``concurrent.futures``: every task is submitted as a callable
closing over its input futures and blocking on them before executing.

Deadlock freedom relies on two properties, both guaranteed here:

1. tasks are submitted in timestep-major (topological) order, and
2. ``ThreadPoolExecutor``'s work queue is FIFO,

so by the time a task is dequeued, every dependency has already been
dequeued — i.e. is finished or running on another worker — and blocking on
its future cannot starve the pool.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Sequence

import numpy as np

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ._common import ScratchPool, TaskKey, publish, run_task, task_keys


class FuturesExecutor(Executor):
    """Dask-delayed-style execution over a FIFO thread pool."""

    name = "futures"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        by_index = {g.graph_index: g for g in graphs}
        scratch = ScratchPool(graphs)
        futures: Dict[TaskKey, Future] = {}

        def run(
            g: TaskGraph, t: int, i: int, input_futures: List[Future]
        ) -> np.ndarray:
            out = run_task(
                g, t, i, [f.result() for f in input_futures],
                scratch=scratch.get(g.graph_index, i), validate=validate,
            )
            if g.consumer_count(t, i) > 0:
                # The future resolving (immediately after this return) is
                # the hand-off; publish before the value becomes visible.
                publish((g.graph_index, t, i), out)
            return out

        with ThreadPoolExecutor(self.workers, "futures-worker") as pool:
            # Topological submission order (see module docstring).
            for gi, t, i in task_keys(graphs):
                g = by_index[gi]
                deps = (
                    [futures[(gi, t - 1, j)] for j in g.dependency_points(t, i)]
                    if t
                    else []
                )
                futures[(gi, t, i)] = pool.submit(run, g, t, i, deps)
            # Propagate the first failure (and wait for completion).
            for f in futures.values():
                f.result()
