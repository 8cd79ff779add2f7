"""Process-pool executor (MPI+X offload analogue, paper §3.5): one executor,
two data planes.

The tasks of each timestep are split into column chunks, one per worker of
a pool of forked processes, and each chunk runs in its worker as one
``execute_row`` — a barrier per timestep, parallelism within it, the
hierarchical MPI+X model.  The parent keeps rows as ``serial`` does (per
graph, the previous row) and no per-task store: a chunk's inputs are
gathered out of the row with ``_common.gather_row``,
``_common.check_drained`` does the reference counting on the row plans, and
``_common.retire_rows`` surfaces every chunk's tasks to the sinks, in
program order, once the chunk has run.

How payloads cross the process boundary depends on their size
(:func:`uses_slabs`; TaskTorrent passes large payloads by reference and
small ones by copy):

* **pickled** (every graph's outputs at most :data:`SLAB_THRESHOLD`
  bytes): a chunk's inputs cross the pipe as one array and its outputs come
  back as one block (lists of arrays only where ``execute_row`` keeps
  lists), counted as ``bytes_copied``.  A round is one timestep.
* **slab** (any graph above it): a row is the list of
  :class:`~repro.core.bufpool.PayloadRef` handles the parent acquired for
  it from a :class:`~repro.core.bufpool.SharedMemorySlabPool` before
  dispatch, one reference per slot, owned by the row.  Workers write their
  outputs into those slots and only handles cross the pipes
  (``bytes_shared``).  Because every slot is assigned up front, the parent
  plans a *window* of several timesteps, ships each worker one frame for
  all of it, and the workers meet at timestep boundaries through a barrier
  (one progress counter per worker, in a slot of the same pool).  A row is
  released with one ``decref_batch`` once the window that reads it has
  passed its barrier, and every run must end with zero live slots: a leak
  check on the protocol.  The slab pool is made by the first slab run, so a
  pickled run never touches ``/dev/shm``; workers forked before it attach
  its segments by name.

A pickled run is a run with a window of one timestep and no barrier: one
dispatch loop (``_execute``) and one worker entry point (:func:`_run_window`)
serve both planes.

The worker pool persists **across runs** of one executor instance (a METG
sweep re-runs one executor dozens of times; a fork per probe would swamp the
measurement), and so does the slab pool.  Each worker caches graphs by
``graph_index`` and a later run may reuse an index for a *different* graph:
the parent tracks what the pool was last told (``_known``) and broadcasts
changed graphs to every worker before the run (see :func:`worker_graph`).
Scratch buffers live per worker process: their content carries nothing
from one timestep to the next.
"""

from __future__ import annotations

import dataclasses
import os
import time
import weakref
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..core.bufpool import (
    SharedMemorySlabPool, as_array, sweep_orphaned_segments,
)
from ..core.executor_base import Executor
from ..core.fastpath import RowPlan
from ..core.metrics import DataPlaneStats, FaultStats
from ..core.task_graph import TaskGraph
from ..faults import (
    FaultSpec, WorkerCrashError, WorkerTimeoutError, default_timeout,
    fault_from_env,
)
from ..trace import recorder as trace
from ._common import check_drained, gather_row, pool_data_plane, retire_rows
from ._procpool import ForkWorkerPool

#: Bytes per task output above which a run passes slab handles instead of
#: pickling rows: where the two planes cross at one worker (the sweep is in
#: CHANGES.md: the pickled plane wins up to 1280 B, the slab plane from 1536).
SLAB_THRESHOLD = 1280

#: Upper bounds on one slab window: timesteps per frame, and bytes of task
#: output that must stay live until the window's barrier (the parent cannot
#: recycle any slot while workers are inside a window).
_WINDOW_MAX_STEPS = 32
_WINDOW_MAX_BYTES = 4 << 20

#: Barrier sentinel a worker publishes when its part of a window fails, so
#: peers waiting on it abort within one poll instead of spinning forever.
_ABORT = np.uint64(0xFFFFFFFFFFFFFFFF)


def uses_slabs(output_bytes: Iterable[int]) -> bool:
    """Whether a run whose graphs output payloads of these sizes (bytes per
    task) goes on the slab plane — the one test both the executor and the
    suite's admission make."""
    return any(nbytes > SLAB_THRESHOLD for nbytes in output_bytes)


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
    the same ``graph_index`` (e.g. a METG sweep varying kernel iterations):
    a mismatched entry is replaced and the graph's scratch buffer evicted.
    An equal cached graph is kept, so its warm dependence tables survive.
    """
    cached = _WORKER_GRAPHS.get(g.graph_index)
    if cached is not None and cached == g:
        return cached
    _WORKER_GRAPHS[g.graph_index] = g
    _WORKER_SCRATCH.pop(g.graph_index, None)
    return g


def _worker_update(graphs: Sequence[TaskGraph]) -> None:
    """Broadcast target: refresh the worker's graph cache before a run."""
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
    dependence relation.  A field-for-field replacement starts with an
    empty cache and compares equal to the original.
    """
    return dataclasses.replace(g)


class WindowAbortError(RuntimeError):
    """A peer worker failed mid-window; this worker aborted in sympathy.

    ``secondary_error`` tells the pool's failure selection that this is a
    bystander report: the peer's own exception (shipped on its pipe) is
    the root cause to surface.
    """

    secondary_error = True


def _await_peers(counters: np.ndarray, others, target: int) -> None:
    """Wait until every peer's progress counter reaches ``target``.

    The wait yields the CPU (``sched_yield`` first, then short sleeps):
    with workers packed onto few cores a busy spin would starve the very
    peer being waited for.  A peer that published :data:`_ABORT` (its
    timestep raised) aborts this worker too, and every ~250 ms laggard
    peers are liveness-checked by pid so a crashed process is detected
    without waiting for the pool's round deadline.
    """
    spins = 0
    next_liveness = time.monotonic() + 0.25
    while True:
        laggard = False
        for w, pid in others:
            c = counters[w]
            if c == _ABORT:
                raise WindowAbortError(
                    f"shared-memory window aborted by peer worker {w}"
                )
            if c < target:
                laggard = True
        if not laggard:
            return
        spins += 1
        if spins < 200:
            os.sched_yield()
        else:
            time.sleep(50e-6)
        if time.monotonic() >= next_liveness:
            for w, pid in others:
                if counters[w] < target:
                    try:
                        os.kill(pid, 0)
                    except ProcessLookupError:
                        raise WindowAbortError(
                            f"peer worker {w} (pid {pid}) died inside a "
                            "shared-memory window"
                        ) from None
            next_liveness = time.monotonic() + 0.25


def _run_window(frame: Tuple[List[List[tuple]], Any]) -> List[Any]:
    """Worker entry point: run this worker's share of a window.

    ``frame`` is ``(steps, barrier)``.  ``steps[k]`` holds the worker's
    chunks ``(graph index, t, lo, hi, inputs, out, validate)`` of the
    window's ``k``-th timestep, each run as one ``execute_row`` (the graph
    referenced by index: the parent made the worker's cache coherent before
    the run).  ``barrier`` is ``None`` for a window of one timestep, else
    ``(counters, this worker, participants)``, ``counters`` the handle of a
    slot of one ``uint64`` per worker: after every timestep but the last
    the worker publishes its progress there and waits for its peers,
    because the next timestep's inputs may be slots a peer just wrote; the
    reply to the parent is the last barrier.

    Returns the outputs of each chunk that came without ``out`` slots, in
    order; a chunk with them writes its outputs in place and returns
    nothing.
    """
    steps, barrier = frame
    if barrier is not None:
        slot, me, participants = barrier
        counters = as_array(slot).view("<u8")
        others = [(w, pid) for w, pid in participants if w != me]
    outputs: List[Any] = []
    try:
        for k, chunks in enumerate(steps, start=1):
            for gi, t, lo, hi, inputs, out, validate in chunks:
                g = _WORKER_GRAPHS[gi]
                block = g.execute_row(t, lo, hi, inputs, scratch=worker_scratch(g),
                                      validate=validate, out=out)
                if out is None:
                    outputs.append(block)
            if barrier is not None and k < len(steps):
                counters[me] = k
                _await_peers(counters, others, k)
    except BaseException:
        if barrier is not None:
            counters[me] = _ABORT
        raise
    return outputs


class ProcessPoolExecutor(Executor):
    """Timestep-phased execution over a persistent pool of forked workers,
    payloads pickled or passed as slab handles by size.

    ``timeout`` is the per-round deadline forwarded to the pool (default:
    the ``TASKBENCH_TIMEOUT`` environment variable, else no deadline);
    ``fault`` arms one injected fault on the pool's first worker
    generation (default: ``TASKBENCH_INJECT_FAULT``)."""

    name = "processes"
    isolation = "processes"
    options = ("timeout", "fault")
    #: What the pool's workers run: one call per frame.
    chunk_fn = staticmethod(_run_window)

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
        # The slab plane's pool, made by its first run.
        self._buffers: SharedMemorySlabPool | None = None

    def close(self) -> None:
        """Release the worker processes and the slab plane.  Optional — both
        also tear themselves down when the executor is garbage-collected."""
        if self._procs is not None:
            self._fault_base = self._snapshot_faults() or self._fault_base
            self._procs.close()
            self._procs = None
        self._known = {}
        if self._buffers is not None:
            self._buffers.close()
            self._buffers = None

    def heal(self) -> int:
        """Respawn any worker that died while the pool sat idle.

        A run heals the pool before it starts (:meth:`_sync_workers`);
        this entry point covers executors cached *between requests* (the
        serve warm pool heals on checkout so a crashed cached worker never
        poisons a later request).  A pool that was never forked is healthy.
        """
        if self._procs is None or not self._procs.dead_workers:
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

    def _slabs(self, graphs: Sequence[TaskGraph]) -> SharedMemorySlabPool:
        """The slab pool, made by the first slab run.  Two rows of slots
        per graph are reserved now, which is before the fork when the pool
        is not forked yet: workers then inherit every segment a steady run
        touches."""
        if self._buffers is None:
            self._buffers = SharedMemorySlabPool()
            # Unlink the segments even if the executor is never close()d.
            weakref.finalize(self, SharedMemorySlabPool.close, self._buffers)
        for g in graphs:
            self._buffers.reserve(g.output_bytes_per_task, 2 * g.max_width)
        return self._buffers

    def _sync_workers(self, graphs: Sequence[TaskGraph]) -> ForkWorkerPool:
        """Fork (or reuse) the worker pool and make every worker's graph
        cache coherent with ``graphs``.  Afterwards chunks refer to graphs
        by index alone."""
        wire = {g.graph_index: wire_graph(g) for g in graphs}
        if self._procs is None:
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
        # *current* parent and boot via the initializer with the full
        # known-graph set, so their caches are coherent without a replay.
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
            # pool — the next run heals it in place (no full refork) — and
            # reclaim every slot the aborted run left live (no write can
            # race the release) and any segment the fault orphaned, so the
            # next run starts from a zero-live pool.
            if self._buffers is not None:
                self._buffers.release_live()
                sweep_orphaned_segments()
            raise
        except BaseException:
            # Anything else leaves worker/pool state unknown: drop the
            # pool so the next run starts from a coherent fork.
            self.close()
            raise
        finally:
            self._fault_stats = self._snapshot_faults()

    def _window_steps(self, graphs: Sequence[TaskGraph]) -> int:
        """Timesteps per dispatch window.

        One on the pickled plane, whose rows come back through the parent.
        One while a fault is armed: injected faults address (worker, round)
        with round = timestep, and the supervision contract they test — one
        wedged worker costs one probe — assumes rounds are independent,
        which barrier-coupled window peers are not.  Otherwise bounded by
        :data:`_WINDOW_MAX_BYTES` of live output slots and
        :data:`_WINDOW_MAX_STEPS`.
        """
        if self.fault is not None or not uses_slabs(
                g.output_bytes_per_task for g in graphs):
            return 1
        per_step = sum(
            max(g.output_bytes_per_task, 1) * g.max_width for g in graphs
        )
        return max(1, min(_WINDOW_MAX_STEPS, _WINDOW_MAX_BYTES // per_step))

    def _execute(self, graphs: Sequence[TaskGraph], validate: bool) -> None:
        """Window dispatch: each worker's whole window — its chunks of every
        graph for every timestep of it — is one frame, shipped with
        :meth:`ForkWorkerPool.run_assigned`: one send and one receive per
        worker per window, and no result remapping.  A window is one
        timestep on the pickled plane; on the slab plane every slot is
        assigned before any task runs, so the parent can plan several, and
        a round trip — two pickles, two pipe writes and at least four
        scheduler wake-ups — is paid once per window."""
        pool = self._slabs(graphs) if uses_slabs(
            g.output_bytes_per_task for g in graphs) else None
        procs = self._sync_workers(graphs)
        nw = self.workers
        window = self._window_steps(graphs)
        # The barrier's slot, taken before the run's counters start.
        counters = pool.acquire(8 * nw) if window > 1 else None
        base = dataclasses.replace(pool.stats) if pool else None
        rows: List[Sequence[Any]] = [()] * len(graphs)
        plans: List[RowPlan | None] = [None] * len(graphs)
        copied = [0, 0]  # payloads and bytes pickled
        max_t = max(g.timesteps for g in graphs)
        for t0 in range(0, max_t, window):
            t1 = min(t0 + window, max_t)
            steps: List[List[List[tuple]]] = [
                [[] for _ in range(t0, t1)] for _ in range(nw)]
            sent = []  # per row dispatched: graph number, t, its chunks
            held: List[Any] = []  # slots of the rows this window reads
            for t in range(t0, t1):
                for n, g in enumerate(graphs):
                    if t >= g.timesteps:
                        continue
                    plan = g.row_plan(t)
                    check_drained(g, t, plans[n], plan)
                    plans[n] = plan
                    off, nbytes = plan.off, g.output_bytes_per_task
                    out = pool.acquire_batch(
                        nbytes, [1] * plan.width) if pool else None
                    chunks = []
                    for w, (lo, hi) in enumerate(
                            _split(off, off + plan.width, nw)):
                        inputs = gather_row(rows[n], plan, lo, hi)
                        mine = out[lo - off:hi - off] if pool else None
                        steps[w][t - t0].append(
                            (g.graph_index, t, lo, hi, inputs, mine, validate))
                        chunks.append((lo, hi, mine))
                        if not pool:
                            copied[0] += len(inputs) + hi - lo
                            copied[1] += (len(inputs) + hi - lo) * nbytes
                    sent.append((n, t, chunks))
                    if pool:
                        held.extend(rows[n])
                        rows[n] = out
            frames: List[List[Any]] = [[] for _ in range(nw)]
            busy = [w for w in range(nw) if any(steps[w])]
            barrier = None
            if t1 - t0 > 1 and len(busy) > 1:
                as_array(counters)[:] = 0  # workers are quiescent now
                pids = procs.pids
                barrier = [(w, pids[w]) for w in busy]
            for w in busy:
                frames[w].append(
                    (steps[w], barrier and (counters, w, barrier)))
            replies = [iter(r[0] if r else ())
                       for r in procs.run_assigned(frames)]
            for n, t, chunks in sent:
                # Kernels ran in worker processes; they are surfaced (and
                # counted: a block short of outputs fails here) once the
                # window is over — the earliest point a sink can order them.
                blocks = [next(replies[w]) if mine is None else mine
                          for w, (lo, hi, mine) in enumerate(chunks)]
                for (lo, hi, _), block in zip(chunks, blocks):
                    retire_rows(graphs[n], t, lo, hi, block)
                if not pool:
                    rows[n] = _join(blocks)
            if held:
                # The window's barrier is passed: every read of these rows
                # is complete, so their slots recycle.
                pool.decref_batch(held)
        self._drain_worker_traces(procs)
        for g, plan in zip(graphs, plans):
            check_drained(g, g.timesteps, plan, None)
        if pool is None:
            self._data_plane = DataPlaneStats(
                payloads_copied=copied[0], bytes_copied=copied[1])
            return
        pool.decref_batch([ref for row in rows for ref in row]
                          + ([counters] if counters else []))
        if pool.live_slots:
            raise RuntimeError(
                f"data-plane leak: {pool.live_slots} slots still live after "
                "the run drained"
            )
        self._data_plane = pool_data_plane(pool, base=base)


class ShmProcessPoolExecutor(ProcessPoolExecutor):
    """The same executor under its second registry name."""

    name = "shm_processes"


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
