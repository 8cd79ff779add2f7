"""The executor interface: what each "programming system" implements.

The key design property of Task Bench is that implementing ``m`` benchmarks
on ``n`` systems costs ``O(m + n)`` instead of ``O(m * n)`` (paper §1): every
system only implements this small interface, and every benchmark is just a
:class:`~repro.core.task_graph.TaskGraph` configuration.

An executor receives a list of task graphs (possibly heterogeneous, executed
concurrently — paper §2) and must:

1. execute every point exactly once, through ``run_task`` (one task) or
   ``graph.execute_row`` (a block of one timestep's columns),
2. deliver each task's output buffer to all of its reverse dependencies,
3. return a :class:`~repro.core.metrics.RunResult` with the elapsed time.

Because both validate every input against the graph specification, any
scheduling or communication bug in an executor surfaces as a
:class:`~repro.core.validation.ValidationError`.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import Sequence, Tuple

from . import fastpath as _fastpath
from .metrics import RunResult, summarize_graphs
from .task_graph import TaskGraph


class Executor(abc.ABC):
    """Abstract base class for Task Bench runtime implementations."""

    #: Registry name; subclasses must override.
    name: str = "abstract"

    #: Isolation level of the execution substrate: ``"serial"`` (inline, no
    #: concurrency), ``"threads"`` (one address space), ``"processes"``
    #: (fork pool on one host) or ``"cluster"`` (independent rank processes
    #: over sockets).  Shown by ``task-bench --list-runtimes`` so users can
    #: tell otherwise same-shaped backends apart.
    isolation: str = "threads"

    #: Constructor keywords this executor accepts besides ``workers``;
    #: ``make_executor`` rejects every other option (``timeout`` and
    #: ``fault`` excepted: callers pass those to any runtime, and the
    #: runtimes that supervise workers declare and honour them).
    options: Tuple[str, ...] = ()

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    @property
    def cores(self) -> int:
        """Number of cores this executor occupies: its workers, unless a
        subclass reserves more (or, like ``serial``, uses fewer)."""
        return self.workers

    def heal(self) -> int:
        """Repair any dead substrate in place; returns how many workers
        were respawned or condemned.

        Persistent-substrate executors (fork pools, rank meshes) can hold
        dead workers while idle — e.g. a cached executor in the serve
        warm pool whose worker was OOM-killed between requests.  ``heal``
        makes the executor safe to run again without a cold rebuild:
        process pools respawn dead workers in place, cluster executors
        drop a broken mesh so the next run relaunches it.  Executors with
        no out-of-process state are always healthy (the default no-op).
        """
        return 0

    def close(self) -> None:
        """Release out-of-process state (worker pools, rank meshes) now
        rather than at garbage collection.  Idempotent; executors that hold
        none have nothing to release (the default no-op)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @abc.abstractmethod
    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        """Execute all graphs to completion.  Implementations must run every
        point of every graph through the core — ``graph.execute_tile`` for a
        stack of whole rows, ``graph.execute_row`` for a column block of one
        row, ``execute_point`` (via ``_common.run_task``) for one task — and
        route outputs to dependents; they should not time themselves."""

    def run(self, graphs: Sequence[TaskGraph], *, validate: bool = True) -> RunResult:
        """Execute ``graphs`` and return a timed :class:`RunResult`.

        Wall-clock timing surrounds only :meth:`execute_graphs`; graph
        accounting (task/dependency/FLOP totals) is computed outside the
        timed region, mirroring the official harness which excludes setup.
        """
        graphs = list(graphs)
        if not graphs:
            raise ValueError("at least one task graph is required")
        for idx, g in enumerate(graphs):
            if g.graph_index != idx:
                raise ValueError(
                    f"graph at position {idx} has graph_index={g.graph_index}; "
                    "graph_index must equal the position in the list so task "
                    "outputs are globally unique"
                )
        hits0, compiles0 = _fastpath.counters()
        start = time.perf_counter()
        self.execute_graphs(graphs, validate=validate)
        elapsed = time.perf_counter() - start
        hits1, compiles1 = _fastpath.counters()
        # Executors that instrument their data plane (repro.core.bufpool)
        # or supervise worker faults leave stats records on the instance;
        # surface them in the result.
        stats = getattr(self, "_data_plane", None)
        faults = getattr(self, "_fault_stats", None)
        if stats is not None and (hits1 != hits0 or compiles1 != compiles0):
            # Fold this run's dependence-table activity (parent-process
            # view) into the data-plane record; executors without an
            # instrumented data plane keep reporting "not instrumented".
            stats = dataclasses.replace(
                stats,
                fastpath_hits=stats.fastpath_hits + (hits1 - hits0),
                fastpath_compiles=stats.fastpath_compiles + (compiles1 - compiles0),
            )
        return summarize_graphs(
            self.name, graphs, elapsed, self.cores, validated=validate,
            data_plane=stats, faults=faults,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} cores={self.cores}>"
