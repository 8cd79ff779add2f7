"""Process-pool executor (MPI+X offload analogue, paper §3.5).

Tasks of each timestep are shipped to a pool of worker *processes* in
column chunks; inputs and outputs cross address spaces by serialization,
like the per-timestep offload of the paper's MPI+CUDA shim ("data is copied
to and from the GPU on every timestep").  The timestep-phased structure
mirrors the hierarchical MPI+X model: a barrier per timestep, parallelism
within it.

The parent keeps rows as ``serial`` does — per graph, the previous row as
``execute_row`` returned it — and no per-task store: a chunk's inputs are
gathered out of the row with ``_common.gather_row`` (one ``take`` of a
block), a round's chunk outputs are joined in column order into the next
row, and ``_common.check_drained`` does the reference counting on the row
plans.  What crosses the pipe for a chunk is one array of inputs and one of
outputs (a list of arrays each way only where ``execute_row`` keeps lists:
above ``validation._BULK_BYTES``, or for a single task).

This executor is the *copying* baseline of the data-plane A/B pair: every
payload is pickled across the pool on every timestep, and the copied bytes
are counted in the run's :class:`~repro.core.metrics.DataPlaneStats`.  The
zero-copy counterpart is :mod:`repro.runtimes.shm`.

Both process executors keep their fork-worker pool alive **across runs** of
the same executor instance (a METG sweep re-runs one executor dozens of
times; paying the fork per probe would swamp the measurement).  Reuse makes
worker-side cache coherence explicit: each worker caches graphs by
``graph_index``, and a later run may reuse an index for a *different*
graph.  The parent tracks what each pool was last told (``_known``) and
broadcasts fresh graphs to every worker before a run whose graphs changed —
see :func:`worker_graph` for the worker-side eviction.

Scratch buffers live per worker process (their *content* carries no
cross-timestep semantics — the memory kernel only needs a working set), so
only task inputs/outputs are serialized.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from ..core.executor_base import Executor
from ..core.fastpath import RowPlan
from ..core.metrics import DataPlaneStats, FaultStats
from ..core.task_graph import TaskGraph
from ..faults import (
    FaultSpec, WorkerCrashError, WorkerTimeoutError, default_timeout,
    fault_from_env,
)
from ..trace import recorder as trace
from ._common import check_drained, gather_row, retire_rows
from ._procpool import ForkWorkerPool

# Per-process caches, initialized lazily inside workers.
_WORKER_GRAPHS: Dict[int, TaskGraph] = {}
_WORKER_SCRATCH: Dict[int, np.ndarray] = {}


def _worker_init(graphs: Sequence[TaskGraph]) -> None:
    _WORKER_GRAPHS.clear()
    _WORKER_SCRATCH.clear()
    for g in graphs:
        _WORKER_GRAPHS[g.graph_index] = g


def worker_graph(g: TaskGraph) -> TaskGraph:
    """Install ``g`` in the worker cache, evicting stale state.

    A worker serving back-to-back runs can hold a *different* graph under
    the same ``graph_index`` (e.g. a METG sweep varying kernel iterations).
    Keying the caches by index alone silently executed the stale graph; now
    a mismatched entry is replaced and the graph's scratch buffer evicted.
    When the cached graph *is* equal it is preferred, so its warm
    dependence tables survive.
    """
    cached = _WORKER_GRAPHS.get(g.graph_index)
    if cached is not None and cached == g:
        return cached
    _WORKER_GRAPHS[g.graph_index] = g
    _WORKER_SCRATCH.pop(g.graph_index, None)
    return g


def _worker_update(graphs: Sequence[TaskGraph]) -> None:
    """Broadcast target: refresh the worker's graph cache before a round."""
    for g in graphs:
        worker_graph(g)


def worker_scratch(g: TaskGraph) -> np.ndarray | None:
    """The worker-side scratch buffer for ``g`` (rebuilt on size change)."""
    if not g.scratch_bytes_per_task:
        return None
    scratch = _WORKER_SCRATCH.get(g.graph_index)
    if scratch is None or scratch.nbytes != g.scratch_bytes_per_task:
        scratch = g.prepare_scratch()
        _WORKER_SCRATCH[g.graph_index] = scratch
    return scratch


def wire_graph(g: TaskGraph) -> TaskGraph:
    """A copy of ``g`` without memoized state, cheap to pickle.

    ``TaskGraph.spec`` is a ``cached_property``; once the parent has used a
    graph, pickling the instance would ship the whole materialized
    dependence relation (random patterns carry per-timestep tables).  A
    field-for-field replacement starts with an empty cache and compares
    equal to the original.
    """
    return dataclasses.replace(g)


def _worker_chunk(
    args: Tuple[int, int, int, int, Sequence[np.ndarray], bool],
) -> Sequence[np.ndarray]:
    """Execute columns ``[lo, hi)`` of one (graph, timestep) in a worker
    process as one row block.  Returns the outputs in column order, as
    ``execute_row`` does: one array for a block it stamps as one.

    The graph is referenced by index only: the parent guarantees the
    worker's cache is coherent before any round of a run is dispatched
    (``_worker_init`` at fork, ``_worker_update`` broadcasts after that).
    """
    gi, t, lo, hi, inputs, validate = args
    g = _WORKER_GRAPHS[gi]
    return g.execute_row(
        t, lo, hi, inputs, scratch=worker_scratch(g), validate=validate
    )


class _PhasedProcessExecutor(Executor):
    """Shared machinery of the process executors: a persistent
    :class:`ForkWorkerPool` plus cross-run worker graph-cache coherence
    and crash supervision (pool self-healing across runs).

    ``timeout`` is the per-round deadline forwarded to the pool (default:
    the ``TASKBENCH_TIMEOUT`` environment variable, else no deadline);
    ``fault`` arms one injected fault on the pool's first worker
    generation (default: ``TASKBENCH_INJECT_FAULT``)."""

    isolation = "processes"
    options = ("timeout", "fault")

    #: Module-level chunk function the pool's workers run (set by subclass).
    chunk_fn: ClassVar[Callable[[Any], Any]]
    #: ``_execute(graphs, validate)``: one run over the synced pool (defined
    #: by subclass; ``execute_graphs`` wraps it in crash supervision).
    _execute: Callable[[Sequence[TaskGraph], bool], None]

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout: float | None = None,
        fault: FaultSpec | None = None,
    ) -> None:
        super().__init__(workers)
        self.timeout = timeout if timeout is not None else default_timeout()
        self.fault = fault if fault is not None else fault_from_env()
        self._fault_stats: FaultStats | None = None
        self._procs: ForkWorkerPool | None = None
        self._known: Dict[int, TaskGraph] = {}
        # Whether the pool's workers currently hold a live span recorder
        # (a traced run began but has not drained them yet).
        self._workers_traced = False
        # Supervision counters carried over from pools that were dropped.
        self._fault_base = FaultStats()

    def close(self) -> None:
        """Release the worker processes.  Optional — the pool also tears
        itself down when the executor is garbage-collected."""
        if self._procs is not None:
            self._fault_base = self._snapshot_faults() or self._fault_base
            self._procs.close()
            self._procs = None
        self._known = {}

    def heal(self) -> int:
        """Respawn any worker that died while the pool sat idle.

        The in-run self-healing path (:meth:`_sync_workers`) already heals
        between runs of a sweep; this public entry point covers executors
        cached *between requests* (the serve warm pool heals on checkout
        so a crashed cached worker never poisons a later request).  A
        pool that was never forked is trivially healthy.
        """
        if self._procs is None:
            return 0
        if not self._procs.dead_workers:
            return 0
        return self._procs.heal(initargs=(list(self._known.values()),))

    def _snapshot_faults(self) -> FaultStats | None:
        """Cumulative supervision counters (dropped pools + live pool);
        ``None`` while no fault has ever been observed."""
        stats = self._fault_base
        pool = self._procs
        if pool is not None:
            stats = stats.merged(
                FaultStats(
                    worker_crashes=pool.crashes,
                    worker_timeouts=pool.timeouts,
                    workers_respawned=pool.respawns,
                )
            )
        return stats if stats.any else None

    def _prefork(self, graphs: Sequence[TaskGraph]) -> None:
        """Hook: per-executor resources that must exist before the fork."""

    def _sync_workers(self, graphs: Sequence[TaskGraph]) -> ForkWorkerPool:
        """Fork (or reuse) the worker pool and make every worker's graph
        cache coherent with ``graphs``.  Afterwards chunks refer to graphs
        by index alone."""
        wire = {g.graph_index: wire_graph(g) for g in graphs}
        if self._procs is None:
            self._prefork(graphs)
            self._procs = ForkWorkerPool(
                type(self).chunk_fn,
                self.workers,
                initializer=_worker_init,
                initargs=(list(wire.values()),),
                timeout=self.timeout,
                fault=self.fault,
            )
            self._known = wire
            self._sync_worker_tracing()
            return self._procs
        stale = [wire[gi] for gi in wire if self._known.get(gi) != wire[gi]]
        self._known.update({g.graph_index: g for g in stale})
        # Self-healing: respawn any worker that died (crash or deadline
        # kill) in a previous run.  Respawned workers fork from the
        # *current* parent — inheriting every live shm segment mapping —
        # and boot via the initializer with the full known-graph set, so
        # the replayed cache state is coherent without a pool-wide replay.
        self._procs.heal(initargs=(list(self._known.values()),))
        if stale:
            # A reused pool may hold a different graph under a reused
            # index.  The broadcast reaches every worker — chunk
            # assignment alone might not — so no worker can execute a
            # stale graph later in the run.
            self._procs.broadcast(_worker_update, stale)
        self._sync_worker_tracing()
        return self._procs

    def _sync_worker_tracing(self) -> None:
        """Make worker-side recording agree with this run's tracing state.

        A traced run installs a fresh recorder in every worker; an
        untraced run after a traced one that never drained (it failed)
        discards the stale worker recorders.  Untraced steady state pays
        no broadcast at all.
        """
        assert self._procs is not None
        if trace.enabled:
            self._procs.broadcast(trace.worker_begin)
            self._workers_traced = True
        elif self._workers_traced:
            self._procs.broadcast(trace.fork_reset)
            self._workers_traced = False

    def _drain_worker_traces(self, procs: ForkWorkerPool) -> None:
        """Collect every worker's span buffers into the active capture
        (same-host monotonic clocks: no offset needed)."""
        if not trace.enabled or not self._workers_traced:
            return
        for w, dump in enumerate(procs.broadcast(trace.worker_drain)):
            if dump:
                trace.ingest(f"worker-{w}", dump)
        self._workers_traced = False

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        try:
            self._execute(graphs, validate)
        except (WorkerCrashError, WorkerTimeoutError):
            # The pool supervised the failure: dead workers are already
            # reaped and marked, surviving pipes drained.  Keep the warm
            # pool — the next run heals it in place (no full refork).
            self._recover()
            raise
        except BaseException:
            # Anything else leaves worker/pool state unknown: drop the
            # pool so the next run starts from a coherent fork.
            self.close()
            raise
        finally:
            self._fault_stats = self._snapshot_faults()

    def _recover(self) -> None:
        """Hook: release per-run resources after a supervised failure."""


class ProcessPoolExecutor(_PhasedProcessExecutor):
    """Timestep-phased execution over a pool of forked workers."""

    name = "processes"
    chunk_fn = staticmethod(_worker_chunk)

    def _execute(self, graphs: Sequence[TaskGraph], validate: bool) -> None:
        """Round dispatch: each worker's whole round is built as one frame
        (all of its chunks across every graph), shipped with
        :meth:`ForkWorkerPool.run_assigned` — one send and one receive per
        worker per timestep with no result remapping."""
        rows: List[Sequence[np.ndarray]] = [()] * len(graphs)
        plans: List[RowPlan | None] = [None] * len(graphs)
        copied = [0] * len(graphs)  # payloads pickled, per graph
        procs = self._sync_workers(graphs)
        for t in range(max(g.timesteps for g in graphs)):
            frames: List[List[Any]] = [[] for _ in range(self.workers)]
            sent = []  # per graph with a row at ``t``: its number and chunks
            for n, g in enumerate(graphs):
                if t >= g.timesteps:
                    continue
                plan = g.row_plan(t)
                check_drained(g, t, plans[n], plan)
                plans[n] = plan
                split = _split(plan.off, plan.off + plan.width, self.workers)
                sent.append((n, split))
                for w, (lo, hi) in enumerate(split):
                    inputs = gather_row(rows[n], plan, lo, hi)
                    copied[n] += len(inputs) + hi - lo
                    frames[w].append(
                        (g.graph_index, t, lo, hi, inputs, validate))
            # Chunk ``w`` of each of those graphs went to worker ``w``, in
            # ``sent`` order: the replies come off in the same order.
            replies = [iter(r) for r in procs.run_assigned(frames)]
            for n, split in sent:
                blocks = [next(replies[w]) for w in range(len(split))]
                for (lo, hi), block in zip(split, blocks):
                    # Kernels ran in worker processes; they are surfaced
                    # (and counted: a block short of outputs fails here)
                    # once the results have crossed back — the earliest
                    # point a sink can order them.
                    retire_rows(graphs[n], t, lo, hi, block)
                rows[n] = _join(blocks)
        self._drain_worker_traces(procs)
        for g, plan in zip(graphs, plans):
            check_drained(g, g.timesteps, plan, None)
        self._data_plane = DataPlaneStats(
            bytes_copied=sum(
                n * g.output_bytes_per_task for n, g in zip(copied, graphs)),
            payloads_copied=sum(copied),
        )


def _join(blocks: List[Sequence[np.ndarray]]) -> Sequence[np.ndarray]:
    """A round's chunk outputs, in column order, as one row: one block when
    every chunk came back as one, else the list of every task's output."""
    if len(blocks) == 1:
        return blocks[0]
    if all(type(block) is np.ndarray for block in blocks):
        return np.concatenate(blocks)
    return [out for block in blocks for out in block]


def _split(lo: int, hi: int, parts: int) -> List[Tuple[int, int]]:
    """Split columns ``[lo, hi)`` into at most ``parts`` contiguous, balanced
    blocks ``(first column, end column)``, the larger ones first."""
    parts = min(parts, hi - lo)
    size, extra = divmod(hi - lo, max(parts, 1))
    starts = [lo + p * size + min(p, extra) for p in range(parts + 1)]
    return list(zip(starts, starts[1:]))
