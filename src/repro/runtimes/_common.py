"""Shared machinery for runtime shims.

The paper's core library keeps each system implementation small ("our 15
Task Bench implementations range from 88 to 1500 lines").  The same applies
here: executors share the bookkeeping below and differ only in *how* they
schedule tasks and route buffers.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import bufpool
from ..core.bufpool import PayloadRef, PoolStats, SlabPool
from ..core.metrics import DataPlaneStats
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace

#: Task key: (graph_index, timestep, column).
TaskKey = Tuple[int, int, int]


# ----------------------------------------------------------------------
# Event tracing (consumed by repro.check.hb_audit)
# ----------------------------------------------------------------------
#: Event kinds recorded by the trace hooks.
EV_START = "start"  #: a task began executing
EV_ACQUIRE = "acquire"  #: a task obtained one input buffer (source = producer)
EV_FINISH = "finish"  #: a task's kernel completed (output fully computed)
EV_PUBLISH = "publish"  #: a task's output was made visible to consumers


@dataclass(frozen=True)
class TraceEvent:
    """One scheduling event of one task, recorded in global arrival order.

    ``seq`` is a total order consistent with real time (the recorder holds a
    lock), ``thread`` identifies the executing thread (the "process" of the
    vector-clock model), and ``source`` names the producer task for
    ``acquire`` events.
    """

    seq: int
    thread: int
    kind: str
    task: TaskKey
    source: Optional[TaskKey] = None


class TraceRecorder:
    """Thread-safe append-only event log.

    Installed via :func:`tracing`; when no recorder is installed the hooks
    cost one ``None`` check per event site, keeping the un-audited hot path
    unaffected.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[TraceEvent] = []

    def record(self, kind: str, task: TaskKey, source: TaskKey | None = None) -> None:
        with self._lock:
            self.events.append(
                TraceEvent(len(self.events), threading.get_ident(), kind, task, source)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


_active_recorder: TraceRecorder | None = None


def trace_recorder() -> TraceRecorder | None:
    """The currently installed recorder, or ``None`` when tracing is off."""
    return _active_recorder


@contextlib.contextmanager
def tracing(recorder: TraceRecorder):
    """Install ``recorder`` as the process-wide trace sink for the duration.

    Process-wide (not thread-local) on purpose: executors spawn worker
    threads that must all report into the same schedule trace.  Nesting or
    concurrent audited runs are not supported.
    """
    global _active_recorder
    if _active_recorder is not None:
        raise RuntimeError("a trace recorder is already installed")
    _active_recorder = recorder
    try:
        yield recorder
    finally:
        _active_recorder = None


#: Synchronous per-event observer (see :func:`set_event_observer`).
_event_observer: Callable[[str, TaskKey, Optional[TaskKey]], None] | None = None


def set_event_observer(
    fn: Callable[[str, TaskKey, Optional[TaskKey]], None] | None,
) -> None:
    """Install ``fn`` as the process-wide trace-event observer (``None``
    clears it).

    Unlike a :class:`TraceRecorder` — which buffers events for post-hoc
    replay — the observer is invoked *synchronously in the recording
    thread* at every event site, so it can inspect that thread's live
    state (its lockset, its clock) at the exact moment of the access.
    This is the hook the lockset sanitizer
    (:mod:`repro.check.concurrency`) hangs off; it composes with an
    installed recorder (both fire).  Only one observer at a time.
    """
    global _event_observer
    if fn is not None and _event_observer is not None:
        raise RuntimeError("a trace-event observer is already installed")
    _event_observer = fn


def record_event(kind: str, task: TaskKey, source: TaskKey | None = None) -> None:
    """Record one event if tracing is active (no-op otherwise)."""
    rec = _active_recorder
    if rec is not None:
        rec.record(kind, task, source)
    obs = _event_observer
    if obs is not None:
        obs(kind, task, source)


def events_active() -> bool:
    """Whether any schedule-event sink (recorder or observer) is installed.

    Batch paths that would have to *compute* something per event — e.g.
    re-deriving dependency columns to emit acquires — check this first so
    the work is skipped entirely on untraced runs, where
    :func:`record_event` alone would already no-op."""
    return _active_recorder is not None or _event_observer is not None


def record_row_events(g: TaskGraph, t: int) -> None:
    """Record the schedule events of row ``t`` of ``g``, task by task in
    program order: start, one acquire per input, finish, and publish for
    outputs somebody reads.  For executors that run (or replay) a whole row
    at a time."""
    gi = g.graph_index
    plan = g.row_plan(t)
    for k, deps in enumerate(plan.deps):
        key = (gi, t, plan.off + k)
        record_event(EV_START, key)
        for j in deps:
            record_event(EV_ACQUIRE, key, (gi, t - 1, j))
        record_event(EV_FINISH, key)
        if plan.consumers[k] > 0:
            record_event(EV_PUBLISH, key)


# ----------------------------------------------------------------------
# Output capture (consumed by the executor-conformance suite)
# ----------------------------------------------------------------------
_capture_lock = threading.Lock()
_capture_sink: Dict[TaskKey, bytes] | None = None


@contextlib.contextmanager
def capturing_outputs() -> Iterator[Dict[TaskKey, bytes]]:
    """Record a bytes snapshot of every published task output.

    The differential conformance suite runs each executor under this
    context and compares the captured ``{task: bytes}`` mapping bytewise
    against the serial executor's.  Snapshots are taken at publish time —
    before pooled buffers can be recycled — and publishing two *different*
    payloads for one task is an immediate error.

    Process-wide like :func:`tracing`: worker threads all report into the
    same sink.  Nested captures are not supported.
    """
    global _capture_sink
    if _capture_sink is not None:
        raise RuntimeError("an output capture is already active")
    sink: Dict[TaskKey, bytes] = {}
    _capture_sink = sink
    try:
        yield sink
    finally:
        _capture_sink = None


def capture_active() -> bool:
    """Whether an output capture is currently installed.

    Cross-process executors check this before a run so they only ship
    output snapshots back from their workers/ranks when a conformance
    capture is actually listening.
    """
    return _capture_sink is not None


def capture_output(key: TaskKey, value: "bufpool.Payload") -> None:
    """Snapshot one published output if a capture is active (no-op
    otherwise).  Called from every publish site: :meth:`OutputStore.put`
    and executor-private delivery paths that bypass it."""
    sink = _capture_sink
    if sink is None:
        return
    data = bufpool.as_array(value).tobytes()
    with _capture_lock:
        prev = sink.get(key)
        if prev is not None and prev != data:
            raise RuntimeError(
                f"task {key} published two different payloads "
                f"({len(prev)} vs {len(data)} bytes)"
            )
        sink[key] = data


def task_keys(graphs: Sequence[TaskGraph]) -> Iterator[TaskKey]:
    """All task keys of all graphs, timestep-major and graph-interleaved,
    the canonical "program order" for sequential-discovery runtimes."""
    max_t = max(g.timesteps for g in graphs)
    for t in range(max_t):
        for g in graphs:
            if t >= g.timesteps:
                continue
            off = g.offset_at_timestep(t)
            for i in range(off, off + g.width_at_timestep(t)):
                yield (g.graph_index, t, i)


class OutputStore:
    """Thread-safe, reference-counted storage of task outputs.

    Each output is stored with the number of consumers that will read it and
    is discarded after the last read, so executors hold only the live
    frontier of the graph (like the ``last_row`` variable of the paper's
    Dask listing, but correct for asynchronous execution where several
    timesteps are in flight).

    Values may be raw arrays or :class:`~repro.core.bufpool.PayloadRef`
    handles — the store never touches payload bytes, so pooled executors
    route handles through it unchanged (pool reference counts are the
    executor's responsibility; the store counts *reads*, the pool counts
    *readers still holding the buffer*).

    :meth:`assert_drained` turns forgotten reads — i.e. buffer leaks caused
    by mis-routed dependencies — into test failures.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: Dict[TaskKey, Tuple[bufpool.Payload, int]] = {}

    def put(
        self,
        key: TaskKey,
        value: "bufpool.Payload",
        consumers: int,
        *,
        quiet: bool = False,
    ) -> None:
        """Store ``value`` to be read by exactly ``consumers`` tasks.

        ``quiet=True`` registers the entry without emitting the publish
        event or capturing the payload: the window planner of the shm
        executor inserts handles *before* the kernels that fill them have
        run, and surfaces publication (event + capture) itself at retire
        time, once the bytes exist and program order can be respected.
        """
        if consumers <= 0:
            return
        traced = trace.enabled
        t0 = trace.begin() if traced else 0
        if not quiet:
            record_event(EV_PUBLISH, key)
            capture_output(key, value)
        with self._lock:
            if key in self._data:
                raise RuntimeError(f"output for task {key} stored twice")
            self._data[key] = (value, consumers)
        if traced:
            trace.complete("publish", trace.CAT_PUBLISH, t0, {"task": key})

    def take(self, key: TaskKey) -> "bufpool.Payload":
        """Read one consumer's copy of the output of ``key``."""
        with self._lock:
            try:
                value, remaining = self._data[key]
            except KeyError:
                raise RuntimeError(
                    f"output for task {key} requested but not produced"
                ) from None
            if remaining == 1:
                del self._data[key]
            else:
                self._data[key] = (value, remaining - 1)
            return value

    def _take_locked(
        self, gi: int, t: int, cols: Sequence[int]
    ) -> List["bufpool.Payload"]:
        """One consumer's read of each output ``(gi, t, col)``, in ``cols``
        order.  The caller holds ``self._lock``."""
        data = self._data
        values: List["bufpool.Payload"] = []
        for j in cols:
            source = (gi, t, j)
            entry = data.get(source)
            if entry is None:
                raise RuntimeError(
                    f"output for task {source} requested but not produced"
                )
            value, remaining = entry
            if remaining == 1:
                del data[source]
            else:
                data[source] = (value, remaining - 1)
            values.append(value)
        return values

    def gather(
        self, g: TaskGraph, t: int, i: int, *, quiet: bool = False
    ) -> List["bufpool.Payload"]:
        """Collect the inputs of task ``(t, i)`` in canonical order.

        All takes happen under one lock hold (a per-input lock round-trip
        is measurable at empty-kernel granularity); the acquire events
        follow, outside the lock.  ``quiet=True`` suppresses them (see
        :meth:`put`): the shm window planner gathers handles ahead of
        execution and emits the events in program order at retire.
        """
        if t == 0:
            return []
        gi = g.graph_index
        cols = g.dependency_columns(t, i)
        with self._lock:
            inputs = self._take_locked(gi, t - 1, cols)
        if not quiet and (
            _active_recorder is not None or _event_observer is not None
        ):
            consumer = (gi, t, i)
            for j in cols:
                record_event(EV_ACQUIRE, consumer, (gi, t - 1, j))
        return inputs

    def gather_batch(
        self, graphs: Dict[int, TaskGraph], keys: Sequence[TaskKey]
    ) -> List[List["bufpool.Payload"]]:
        """Collect the inputs of several *ready* tasks under one lock hold.

        The batch twin of :meth:`gather`: every key's producers have
        already published (the scheduler only batches ready tasks), so no
        take can fail to find its source mid-batch.  Start/acquire events
        are emitted after the lock, in per-task program order.
        """
        with self._lock:
            results = [
                self._take_locked(
                    gi, t - 1, graphs[gi].dependency_columns(t, i)
                ) if t > 0 else []
                for gi, t, i in keys
            ]
        if _active_recorder is not None or _event_observer is not None:
            for key in keys:
                gi, t, i = key
                record_event(EV_START, key)
                if t > 0:
                    for j in graphs[gi].dependency_columns(t, i):
                        record_event(EV_ACQUIRE, key, (gi, t - 1, j))
        return results

    def put_batch(
        self,
        items: Sequence[Tuple[TaskKey, "bufpool.Payload", int]],
    ) -> None:
        """Store several ``(key, value, consumers)`` outputs under one lock
        hold (zero-consumer entries are skipped, as in :meth:`put`)."""
        items = [entry for entry in items if entry[2] > 0]
        if not items:
            return
        traced = trace.enabled
        t0 = trace.begin() if traced else 0
        for key, value, _consumers in items:
            record_event(EV_PUBLISH, key)
            capture_output(key, value)
        with self._lock:
            data = self._data
            for key, value, consumers in items:
                if key in data:
                    raise RuntimeError(f"output for task {key} stored twice")
                data[key] = (value, consumers)
        if traced:
            trace.complete(
                "publish", trace.CAT_PUBLISH, t0, {"tasks": len(items)}
            )

    def assert_drained(self) -> None:
        """Raise if any outputs were produced but never fully consumed."""
        with self._lock:
            if self._data:
                leaked = sorted(self._data)[:5]
                raise RuntimeError(
                    f"{len(self._data)} task outputs never consumed, "
                    f"e.g. {leaked}"
                )

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class ScratchPool:
    """Per-column scratch buffers, allocated lazily and reused across
    timesteps (the official shims thread one scratch buffer through each
    column — see the Dask listing in the paper)."""

    def __init__(self, graphs: Sequence[TaskGraph]) -> None:
        self._graphs = {g.graph_index: g for g in graphs}
        self._no_scratch = all(
            g.scratch_bytes_per_task == 0 for g in graphs
        )
        self._lock = threading.Lock()
        self._buffers: Dict[Tuple[int, int], np.ndarray] = {}
        # Per-thread memo of the shared table: after the first (graph,
        # column) touch, steady-state lookups are a lock-free dict hit in
        # the calling thread (columns are re-visited every timestep, so
        # this removes one lock acquire per task).
        self._tls = threading.local()

    def get(self, graph_index: int, column: int) -> np.ndarray | None:
        if self._no_scratch:
            return None
        g = self._graphs[graph_index]
        if g.scratch_bytes_per_task == 0:
            return None
        key = (graph_index, column)
        try:
            memo = self._tls.memo
        except AttributeError:
            memo = self._tls.memo = {}
        buf = memo.get(key)
        if buf is not None:
            return buf
        with self._lock:
            buf = self._buffers.get(key)
            if buf is None:
                buf = g.prepare_scratch()
                self._buffers[key] = buf
        memo[key] = buf
        return buf


def run_point(
    store: OutputStore,
    scratch: ScratchPool,
    g: TaskGraph,
    t: int,
    i: int,
    *,
    validate: bool,
    pool: SlabPool | None = None,
) -> None:
    """Gather inputs, execute one task, and publish its output.

    With a ``pool``, the task's output is written into a recycled slab slot
    acquired with one reference per consumer; each consumer (a later
    ``run_point`` call) drops its reference once it has read the buffer, at
    which point the slot returns to the free list.  Without a pool the
    historical allocate-per-task path is used.
    """
    key = (g.graph_index, t, i)
    record_event(EV_START, key)
    inputs = store.gather(g, t, i)
    consumers = g.consumer_count(t, i)
    traced = trace.enabled
    if pool is None:
        t0 = trace.begin() if traced else 0
        out = g.execute_point(
            t, i, inputs, scratch=scratch.get(g.graph_index, i), validate=validate
        )
        if traced:
            trace.complete("task", trace.CAT_KERNEL, t0, {"task": key})
        record_event(EV_FINISH, key)
        store.put(key, out, consumers)
        return
    ref = pool.acquire(g.output_bytes_per_task, refs=max(consumers, 1))
    t0 = trace.begin() if traced else 0
    g.execute_point(
        t, i, inputs, scratch=scratch.get(g.graph_index, i), validate=validate,
        out=ref,
    )
    if traced:
        trace.complete("task", trace.CAT_KERNEL, t0, {"task": key})
    record_event(EV_FINISH, key)
    if consumers > 0:
        store.put(key, ref, consumers)
    else:
        pool.decref(ref)
    # Reading is done: drop this consumer's reference on every pooled input
    # (one pool lock hold for all of them) so fully-read slots recycle.
    drops = [value for value in inputs if type(value) is PayloadRef]
    if drops:
        pool.decref_batch(drops)


def run_point_batch(
    store: OutputStore,
    scratch: ScratchPool,
    graphs: Dict[int, TaskGraph],
    keys: Sequence[TaskKey],
    *,
    validate: bool,
    pool: SlabPool,
) -> List[Tuple[TaskGraph, int, int]]:
    """Fusion of :func:`run_point` over a batch of ready tasks.

    Every task in ``keys`` is ready (all inputs published), so the batch's
    data-plane traffic can be coalesced: one pool lock hold acquires all
    output slots (per size class), one store lock hold publishes all
    outputs, and one pool lock hold drops every consumed input reference.
    Per-task semantics — event order, validation, trace spans — match
    ``run_point`` exactly.  Returns ``(graph, t, i)`` completion tuples for
    the scheduler.
    """
    inputs_list = store.gather_batch(graphs, keys)
    metas = []
    single_graph = True
    g0 = graphs[keys[0][0]]
    for key, inputs in zip(keys, inputs_list):
        gi, t, i = key
        g = graphs[gi]
        if g is not g0:
            single_graph = False
        metas.append((g, t, i, key, inputs, g.consumer_count(t, i)))
    if single_graph:
        out_refs: List[PayloadRef | None] = pool.acquire_batch(
            g0.output_bytes_per_task, [max(m[5], 1) for m in metas]
        )
    else:
        out_refs = [None] * len(metas)
        by_size: Dict[int, List[int]] = {}
        for idx, meta in enumerate(metas):
            by_size.setdefault(meta[0].output_bytes_per_task, []).append(idx)
        for nbytes, idxs in by_size.items():
            got = pool.acquire_batch(
                nbytes, [max(metas[j][5], 1) for j in idxs]
            )
            for j, ref in zip(idxs, got):
                out_refs[j] = ref
    traced = trace.enabled
    puts: List[Tuple[TaskKey, PayloadRef, int]] = []
    drops: List[PayloadRef] = []
    done: List[Tuple[TaskGraph, int, int]] = []
    for (g, t, i, key, inputs, consumers), ref in zip(metas, out_refs):
        t0 = trace.begin() if traced else 0
        g.execute_point(
            t, i, inputs, scratch=scratch.get(g.graph_index, i),
            validate=validate, out=ref,
        )
        if traced:
            trace.complete("task", trace.CAT_KERNEL, t0, {"task": key})
        record_event(EV_FINISH, key)
        if consumers > 0:
            puts.append((key, ref, consumers))
        else:
            drops.append(ref)
        for value in inputs:
            if type(value) is PayloadRef:
                drops.append(value)
        done.append((g, t, i))
    store.put_batch(puts)
    if drops:
        pool.decref_batch(drops)
    return done


def pool_data_plane(
    pool: SlabPool,
    *,
    base: "PoolStats | None" = None,
    bytes_copied: int = 0,
    payloads_copied: int = 0,
) -> DataPlaneStats:
    """Fold a pool's counters (plus any copy accounting the executor kept)
    into the uniform :class:`DataPlaneStats` record.

    ``base`` is a snapshot (``dataclasses.replace(pool.stats)``) taken at run
    start; executors whose pool persists across runs pass it so each run
    reports its own delta rather than the pool's lifetime totals.
    """
    s = pool.stats
    acquires = s.acquires - (base.acquires if base else 0)
    hits = s.hits - (base.hits if base else 0)
    misses = s.misses - (base.misses if base else 0)
    bytes_shared = s.bytes_shared - (base.bytes_shared if base else 0)
    return DataPlaneStats(
        bytes_copied=bytes_copied,
        payloads_copied=payloads_copied,
        bytes_shared=bytes_shared,
        payloads_shared=acquires,
        pool_hits=hits,
        pool_misses=misses,
    )
