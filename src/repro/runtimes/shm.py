"""Zero-copy process-pool executor over a shared-memory data plane.

The same timestep-phased column chunking over a persistent fork-worker pool
as :mod:`repro.runtimes.processes`, but payloads never cross the process
boundary and several timesteps are dispatched per round trip (a *window*,
see :meth:`ShmProcessPoolExecutor._execute`).  The executor owns a
:class:`~repro.core.bufpool.SharedMemorySlabPool`; every task output is
written by its worker directly into a pooled slab slot, and dependencies
are shipped to consumers as :class:`~repro.core.bufpool.PayloadRef`
handles: a few machine words per payload instead of a pickled copy.

This is the pointer-passing shim the paper's C++ runtimes get for free, and
what makes METG at small task granularities measure *runtime* overhead
rather than serialization overhead (TaskTorrent and the AMT Task Bench
study both locate the copy cliff exactly in the sub-millisecond regime).

Allocation protocol (single-owner, no cross-process locks):

* only the parent acquires, increfs, and decrefs slots; workers are pure
  readers/writers of slots the parent handed them;
* an output slot is acquired with one reference per consumer before its
  chunk is dispatched; consumers' references are dropped after the
  window's barrier, when every worker read is provably complete;
* slabs are pre-reserved *before* the pool forks, so workers inherit every
  segment mapping (late growth falls back to attach-by-name);
* generation tags live in the shared segments themselves, so a worker
  detects a stale handle even though its Python-side pool object is a
  fork-time snapshot.

The slab pool persists across runs of one executor instance, alongside the
worker pool: slots recycle between METG probes, and segment mappings stay
warm in the long-lived workers.  Each run asserts it returned the pool to
zero live slots — a per-run leak check on the refcounting protocol.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import time
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.bufpool import (
    PayloadRef,
    SharedMemorySlabPool,
    _attach_untracked,
    sweep_orphaned_segments,
)
from ..core.task_graph import TaskGraph
from ._common import OutputStore, pool_data_plane, retire_rows
from .processes import (
    _PhasedProcessExecutor,
    _split,
    _WORKER_GRAPHS,
    worker_scratch,
)

#: One chunk of work: (graph index, timestep, first column, end column, the
#: columns' input handles laid end to end, per-column output handles,
#: validate).
_Chunk = Tuple[int, int, int, int, List[PayloadRef], List[PayloadRef], bool]

#: Barrier sentinel a worker publishes when its part of a window fails, so
#: peers waiting on it abort within one poll instead of spinning forever.
_ABORT = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Upper bounds on one dispatch window: timesteps per frame, and bytes of
#: task output that must stay live until the window's barrier (the parent
#: cannot recycle any slot while workers are inside the window).
_WINDOW_MAX_STEPS = 32
_WINDOW_MAX_BYTES = 4 << 20


def _run_chunk(args: _Chunk) -> int:
    """Execute columns ``[lo, hi)`` of one (graph, timestep) in a worker as
    one row block.

    Inputs arrive as pool handles (resolved — and generation-checked —
    inside ``execute_row``); each output is written in place into the
    handle the parent pre-acquired for it.  Only the column count crosses
    back.
    """
    gi, t, lo, hi, inputs, out_refs, validate = args
    g = _WORKER_GRAPHS[gi]
    g.execute_row(t, lo, hi, inputs, scratch=worker_scratch(g),
                  validate=validate, out=out_refs)
    return hi - lo


#: Worker-side cache of attached barrier segments: name -> [segment, view].
_BARRIERS: Dict[str, List] = {}


def _close_barrier_views() -> None:
    """Release cached barrier attachments (worker ``atexit``): the numpy
    views must drop before the segments close, or interpreter shutdown
    tears them down in arbitrary order and ``SharedMemory.__del__``
    complains about exported buffers."""
    for entry in _BARRIERS.values():
        entry[1] = None
        try:
            entry[0].close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    _BARRIERS.clear()


atexit.register(_close_barrier_views)


def _barrier_view(name: str) -> np.ndarray:
    entry = _BARRIERS.get(name)
    if entry is None:
        seg = _attach_untracked(name)
        entry = [seg, np.frombuffer(seg.buf, dtype="<u8")]
        _BARRIERS[name] = entry
    return entry[1]


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


def _run_window(args) -> int:
    """Worker entry point: execute one worker's share of a window.

    ``steps`` holds this worker's chunks for each timestep of the window.
    After each timestep the worker publishes its progress in the shared
    barrier segment and waits for every participant, because the next
    timestep's inputs may be slots a *peer* just wrote.  Only the final
    timestep skips the wait — the reply to the parent is that barrier.
    """
    name, my_w, participants, steps = args
    counters = _barrier_view(name)
    others = [(w, pid) for w, pid in participants if w != my_w]
    done = 0
    last = len(steps)
    try:
        for k, chunks in enumerate(steps, start=1):
            for chunk in chunks:
                done += _run_chunk(chunk)
            counters[my_w] = k
            if k < last and others:
                _await_peers(counters, others, k)
    except BaseException:
        counters[my_w] = _ABORT
        raise
    return done


def _unlink_barrier(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    try:
        seg.close()
    except BufferError:  # pragma: no cover - view still exported
        pass


class ShmProcessPoolExecutor(_PhasedProcessExecutor):
    """Timestep-phased multiprocessing with payloads in shared-memory slabs."""

    name = "shm_processes"
    chunk_fn = staticmethod(_run_window)

    def __init__(self, workers: int = 2, **kwargs) -> None:
        super().__init__(workers, **kwargs)
        self._buffers: SharedMemorySlabPool | None = None
        self._barrier_seg: shared_memory.SharedMemory | None = None

    def close(self) -> None:
        super().close()
        if self._buffers is not None:
            self._buffers.close()
            self._buffers = None
        if self._barrier_seg is not None:
            _unlink_barrier(self._barrier_seg)
            self._barrier_seg = None

    def _recover(self) -> None:
        """After a supervised worker failure: reclaim every slot the
        aborted run left live (failed workers are dead, survivors drained,
        so no write can race the release) and sweep any shared-memory
        segment the fault orphaned.  The next run then starts from a
        zero-live pool instead of tripping the leak check."""
        if self._buffers is not None:
            self._buffers.release_live()
        sweep_orphaned_segments()

    def _prefork(self, graphs: Sequence[TaskGraph]) -> None:
        # Reserve the steady-state working set before forking: two
        # timestep frontiers of output slots per graph, so workers inherit
        # every segment they will touch.
        buffers = SharedMemorySlabPool()
        for g in graphs:
            buffers.reserve(g.output_bytes_per_task, 2 * g.max_width)
        self._buffers = buffers
        # Unlink the segments even if the executor is never close()d.
        weakref.finalize(self, SharedMemorySlabPool.close, buffers)
        # Window-barrier segment: one uint64 progress counter per worker,
        # reset by the parent between windows (workers are quiescent then).
        # The parent only ever writes through short-lived views (see
        # ``_execute``) so the segment can close without a dangling
        # buffer export.
        # Not a payload buffer: 8 bytes of control plane per worker, so a
        # slab pool (slot refcounts, generation tags) would be pure
        # overhead here.
        seg = shared_memory.SharedMemory(  # check: allow[raw-shm]
            create=True, size=8 * self.workers
        )
        self._barrier_seg = seg
        np.frombuffer(seg.buf, dtype="<u8")[:] = 0
        weakref.finalize(self, _unlink_barrier, seg)

    def _window_steps(self, graphs: Sequence[TaskGraph]) -> int:
        """Timesteps per dispatch window.

        Bounded by :data:`_WINDOW_MAX_BYTES` of live output slots (the
        parent can recycle nothing while workers are inside a window) and
        :data:`_WINDOW_MAX_STEPS`.  One timestep while a fault is armed:
        injected faults address (worker, round) with round = timestep, and
        the supervision contract they test — one wedged worker costs one
        probe — assumes rounds are independent, which barrier-coupled
        window peers are not.  A one-step window has no mid-window barrier
        wait, so each round is again one timestep.
        """
        if self.fault is not None:
            return 1
        per_step = sum(
            max(g.output_bytes_per_task, 1) * g.max_width for g in graphs
        )
        return max(1, min(_WINDOW_MAX_STEPS, _WINDOW_MAX_BYTES // per_step))

    def _execute(self, graphs: Sequence[TaskGraph], validate: bool) -> None:
        """Window dispatch: several timesteps per round trip.

        Because every payload lives in a parent-assigned shared-memory
        slot, the whole schedule of a window — which slots each task reads
        and writes — is known before any task runs.  The parent therefore
        plans ``K`` timesteps up front (gathering input handles and
        acquiring output slots against its bookkeeping store), ships each
        worker ONE frame holding its chunks for all ``K`` timesteps, and
        lets the workers synchronize timestep boundaries among themselves
        through the shared barrier segment (:func:`_run_window`).  A round
        trip through the parent — two pickles, two pipe writes, and at
        least four scheduler wakeups — is paid once per window instead of
        once per timestep, which is most of the empty-kernel overhead gap
        a round per timestep leaves against the thread pool.
        """
        store = OutputStore()
        max_t = max(g.timesteps for g in graphs)
        procs = self._sync_workers(graphs)
        pool = self._buffers
        barrier_seg = self._barrier_seg
        assert pool is not None and barrier_seg is not None
        stats_base = dataclasses.replace(pool.stats)
        nw = self.workers
        window = self._window_steps(graphs)
        #: Retirement plan of one chunk: (graph, timestep, first column, end
        #: column, per-column output refs, per-column consumer counts).
        Retire = Tuple[TaskGraph, int, int, int, List[PayloadRef], List[int]]
        for t0 in range(0, max_t, window):
            t_end = min(t0 + window, max_t)
            nsteps = t_end - t0
            steps: List[List[List[_Chunk]]] = [
                [[] for _ in range(nsteps)] for _ in range(nw)
            ]
            busy = [False] * nw
            retire: List[Retire] = []
            gathered: List[PayloadRef] = []
            for t in range(t0, t_end):
                for g in graphs:
                    if t >= g.timesteps:
                        continue
                    off = g.offset_at_timestep(t)
                    gi = g.graph_index
                    for w, (lo, hi) in enumerate(
                            _split(off, off + g.width_at_timestep(t), nw)):
                        cols = range(lo, hi)
                        # The store entries must exist now so later
                        # timesteps of this window can gather from them,
                        # though the kernels have not run yet — events and
                        # output capture happen at retire, below.
                        in_refs = [
                            ref for i in cols for ref in store.gather(g, t, i)
                        ]
                        consumers = [g.consumer_count(t, i) for i in cols]
                        out_refs = pool.acquire_batch(
                            g.output_bytes_per_task,
                            [max(c, 1) for c in consumers],
                        )
                        steps[w][t - t0].append(
                            (gi, t, lo, hi, in_refs, out_refs, validate)
                        )
                        busy[w] = True
                        store.put_batch([
                            ((gi, t, i), out, ncons)
                            for i, out, ncons in zip(cols, out_refs, consumers)
                            if ncons > 0
                        ])
                        retire.append((g, t, lo, hi, out_refs, consumers))
                        gathered.extend(in_refs)
            participants = tuple(
                (w, pid)
                for w, pid in enumerate(procs.pids)
                if busy[w]
            )
            # Workers are quiescent between windows; the view is transient
            # so the segment keeps no parent-side buffer export.
            np.frombuffer(barrier_seg.buf, dtype="<u8")[:] = 0
            frames: List[List] = [
                [(barrier_seg.name, w, participants, steps[w])]
                if busy[w] else []
                for w in range(nw)
            ]
            procs.run_assigned(frames)
            for g, t, lo, hi, out_refs, consumers in retire:
                # Kernels ran in worker processes; they are surfaced here,
                # after the window barrier — the earliest point a sink can
                # order them, and the buffers now hold the kernels' outputs
                # — in program order, one timestep after another.
                retire_rows(g, t, lo, hi, out_refs)
                for out, ncons in zip(out_refs, consumers):
                    if ncons == 0:
                        pool.decref(out)
            # Window barrier passed: every worker read of this window's
            # inputs is complete, so the consumers' references drop and
            # fully-read slots recycle.
            pool.decref_batch(gathered)
        self._drain_worker_traces(procs)
        store.assert_drained()
        if pool.live_slots:
            raise RuntimeError(
                f"data-plane leak: {pool.live_slots} slots still live after "
                "the run drained"
            )
        self._data_plane = pool_data_plane(pool, base=stats_base)
