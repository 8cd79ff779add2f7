"""Parameterized-task-graph executor (PaRSEC PTG analogue, paper §3.8).

In the PTG model the task graph is expanded from its algebraic description
*before* execution ("this compressed representation is expanded into a full
task graph by a source-to-source compiler").  Here the entire DAG — task
table, dependency counts, successor lists — is compiled into flat NumPy
arrays up front; the execution loop then runs with no per-task graph queries
at all, the analogue of PTG's elimination of dynamic discovery cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import OutputStore, ScratchPool, run_point, task_keys
from ._readypool import ReadyPool


@dataclass
class ExpandedGraph:
    """Flat-array representation of the full DAG of a set of graphs.

    ``task_table[k] = (graph_index, t, i)``; CSR-style successor lists in
    ``succ_offsets``/``succ_targets``; ``dep_counts[k]`` the number of
    inputs of task ``k``.
    """

    task_table: np.ndarray  # (n, 3) int64
    dep_counts: np.ndarray  # (n,) int64
    succ_offsets: np.ndarray  # (n+1,) int64
    succ_targets: np.ndarray  # (edges,) int64

    @property
    def num_tasks(self) -> int:
        return len(self.task_table)

    @property
    def num_edges(self) -> int:
        return len(self.succ_targets)

    def successors(self, k: int) -> np.ndarray:
        return self.succ_targets[self.succ_offsets[k] : self.succ_offsets[k + 1]]


def expand(graphs: Sequence[TaskGraph]) -> ExpandedGraph:
    """Expand the algebraic graph description into a materialized DAG."""
    by_index = {g.graph_index: g for g in graphs}
    keys = list(task_keys(graphs))
    index: Dict[tuple, int] = {key: k for k, key in enumerate(keys)}
    n = len(keys)
    task_table = np.array(keys, dtype=np.int64).reshape(n, 3)
    dep_counts = np.zeros(n, dtype=np.int64)
    succ_lists: List[List[int]] = [[] for _ in range(n)]
    for k, (gi, t, i) in enumerate(keys):
        g = by_index[gi]
        dep_counts[k] = g.num_dependencies(t, i)
        for j in g.reverse_dependency_points(t, i):
            succ_lists[k].append(index[(gi, t + 1, j)])
    succ_offsets = np.zeros(n + 1, dtype=np.int64)
    succ_offsets[1:] = np.cumsum([len(s) for s in succ_lists])
    succ_targets = (
        np.concatenate([np.asarray(s, dtype=np.int64) for s in succ_lists])
        if succ_offsets[-1]
        else np.zeros(0, dtype=np.int64)
    )
    return ExpandedGraph(task_table, dep_counts, succ_offsets, succ_targets)


class PTGExecutor(Executor):
    """Worker-pool execution of a fully pre-expanded DAG."""

    name = "ptg"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        by_index = {g.graph_index: g for g in graphs}
        t0 = trace.begin() if trace.enabled else 0
        dag = expand(graphs)
        if t0:
            trace.complete(
                "ptg.expand", trace.CAT_DISPATCH, t0,
                {"tasks": dag.num_tasks, "edges": dag.num_edges},
            )
        store = OutputStore()
        scratch = ScratchPool(graphs)

        pending = dag.dep_counts.copy()
        ready = ReadyPool(np.flatnonzero(pending == 0).tolist(), dag.num_tasks)

        def run_tasks(tasks: List[int]) -> None:
            for k in tasks:
                gi, t, i = dag.task_table[k].tolist()
                run_point(store, scratch, by_index[gi], t, i, validate=validate)
                successors = dag.successors(k)
                with ready.lock:
                    pending[successors] -= 1
                    ready.complete(
                        1, successors[pending[successors] == 0].tolist()
                    )

        ready.run(self.workers, run_tasks, name="ptg-worker")
        store.assert_drained()
