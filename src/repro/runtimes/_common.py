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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core import bufpool
from ..core.bufpool import PayloadRef, PoolStats, SlabPool
from ..core.fastpath import RowPlan, TilePlan, check_reads
from ..core.metrics import DataPlaneStats
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace

#: Task key: (graph_index, timestep, column).
TaskKey = Tuple[int, int, int]


# ----------------------------------------------------------------------
# Schedule events and the sinks that watch a run
# ----------------------------------------------------------------------
#: Event kinds handed to the sinks.
EV_START = "start"  #: a task began executing
EV_ACQUIRE = "acquire"  #: a task obtained one input buffer (source = producer)
EV_FINISH = "finish"  #: a task's kernel completed (output fully computed)
EV_PUBLISH = "publish"  #: a task's output was made visible to consumers

_RAW_LOCK = threading.Lock  # bound at import, before anything patches it

#: The installed sinks (see :func:`observing`).  Empty on an unobserved
#: run, and that is the one thing :func:`run_task`, :func:`publish` and
#: :func:`retire_rows` test before doing anything for an observer.
_sinks: Tuple[Any, ...] = ()


@contextlib.contextmanager
def observing(sink: Any) -> Iterator[Any]:
    """Install ``sink`` for the duration of the block.

    A sink is anything that watches a run: the hb-audit
    :class:`TraceRecorder`, the lockset sanitizer, the conformance capture,
    the span recorder.  It has ``event(kind, task, source)``, called at
    every event site *synchronously in the thread that reached it* — so it
    may inspect that thread's live state (its lockset, its clock) at the
    moment of the access — and ``wants_output``; when that is true,
    ``output(key, value)`` is called at publish, before a pooled buffer can
    be recycled.  Sinks of different types compose; installing a second one
    of a type raises ``RuntimeError(sink.already)``.

    Process-wide (not thread-local) on purpose: executors spawn worker
    threads that must all report into the same sinks.  Concurrent observed
    runs are not supported.
    """
    global _sinks
    if any(type(s) is type(sink) for s in _sinks):
        raise RuntimeError(sink.already)
    _sinks += (sink,)
    try:
        yield sink
    finally:
        _sinks = tuple(s for s in _sinks if s is not sink)


def record_event(kind: str, task: TaskKey, source: TaskKey | None = None) -> None:
    """Hand one schedule event to every installed sink."""
    for sink in _sinks:
        sink.event(kind, task, source)


def capture_output(key: TaskKey, value: "bufpool.Payload") -> None:
    """Hand one published output to every installed sink that wants them."""
    for sink in _sinks:
        if sink.wants_output:
            sink.output(key, value)


def capture_active() -> bool | None:
    """Whether an installed sink wants outputs; ``None`` with no sink at all.

    The cluster executors check this before a run so their ranks report
    rows only when somebody is watching, and ship output snapshots with
    them only when somebody is listening.
    """
    return any(sink.wants_output for sink in _sinks) if _sinks else None


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
    """Thread-safe append-only event log, replayed post hoc by
    :mod:`repro.check.hb_audit`.  Installed via :func:`tracing`."""

    wants_output = False
    already = "a trace recorder is already installed"

    def __init__(self) -> None:
        # Raw even when built under the lock sanitizer, which patches
        # ``threading.Lock``: a sanitized lock taken at every event would
        # hand every thread's clock to the next and hide every race.
        self._lock = _RAW_LOCK()
        self.events: List[TraceEvent] = []

    def event(self, kind: str, task: TaskKey, source: TaskKey | None = None) -> None:
        with self._lock:
            self.events.append(
                TraceEvent(len(self.events), threading.get_ident(), kind, task, source)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


#: Install a :class:`TraceRecorder` (``with tracing(TraceRecorder()) as rec``).
tracing = observing

_capture_lock = threading.Lock()


class _OutputCapture:
    """The conformance capture: a bytes snapshot of every published output."""

    wants_output = True
    already = "an output capture is already active"

    def __init__(self) -> None:
        self.outputs: Dict[TaskKey, bytes] = {}

    def event(self, kind: str, task: TaskKey, source: TaskKey | None) -> None:
        pass

    def output(self, key: TaskKey, value: "bufpool.Payload") -> None:
        # A rank's snapshot arrives as bytes: immutable, so kept uncopied.
        data = value if type(value) is bytes else memoryview(
            bufpool.as_array(value)).tobytes()
        with _capture_lock:
            prev = self.outputs.get(key)
            if prev is not None and prev != data:
                raise RuntimeError(
                    f"task {key} published two different payloads "
                    f"({len(prev)} vs {len(data)} bytes)"
                )
            self.outputs[key] = data


@contextlib.contextmanager
def capturing_outputs() -> Iterator[Dict[TaskKey, bytes]]:
    """Record a bytes snapshot of every published task output.

    The differential conformance suite runs each executor under this
    context and compares the captured ``{task: bytes}`` mapping bytewise
    against the serial executor's.  Snapshots are taken at publish time —
    before pooled buffers can be recycled — and publishing two *different*
    payloads for one task is an immediate error.
    """
    with observing(_OutputCapture()) as sink:
        yield sink.outputs


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


def block_owner(column: int, width: int, ranks: int) -> int:
    """Rank owning ``column`` under block partitioning (MPI-style): how
    ``p2p`` and the cluster ranks map columns to ranks."""
    return min(column * ranks // width, ranks - 1)


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

    def put(self, key: TaskKey, value: "bufpool.Payload", consumers: int) -> None:
        """Store ``value`` to be read by exactly ``consumers`` tasks (an
        output nobody reads is not stored)."""
        if consumers > 0:
            self.put_batch(((key, value, consumers),))

    def put_batch(
        self, items: Sequence[Tuple[TaskKey, "bufpool.Payload", int]]
    ) -> None:
        """Store several ``(key, value, consumers)`` outputs, each read by
        at least one task, under one lock hold."""
        with self._lock:
            data = self._data
            for key, value, consumers in items:
                if key in data:
                    raise RuntimeError(f"output for task {key} stored twice")
                data[key] = (value, consumers)

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

    def take(self, key: TaskKey) -> "bufpool.Payload":
        """Read one consumer's copy of the output of ``key``."""
        gi, t, i = key
        with self._lock:
            return self._take_locked(gi, t, (i,))[0]

    def gather(self, g: TaskGraph, t: int, i: int) -> List["bufpool.Payload"]:
        """Collect the inputs of task ``(t, i)`` in canonical order, under
        one lock hold (a per-input lock round-trip is measurable at
        empty-kernel granularity)."""
        if t == 0:
            return []
        with self._lock:
            return self._take_locked(
                g.graph_index, t - 1, g.dependency_columns(t, i)
            )

    def gather_batch(
        self, graphs: Dict[int, TaskGraph], keys: Sequence[TaskKey]
    ) -> List[List["bufpool.Payload"]]:
        """Collect the inputs of several *ready* tasks under one lock hold:
        every key's producers have already published, so no take can fail
        to find its source mid-batch."""
        with self._lock:
            return [
                self._take_locked(
                    gi, t - 1, graphs[gi].dependency_columns(t, i)
                ) if t > 0 else []
                for gi, t, i in keys
            ]

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


def run_task(
    g: TaskGraph,
    t: int,
    i: int,
    inputs: Sequence["bufpool.Payload"],
    *,
    scratch: np.ndarray | None,
    validate: bool,
    out: "bufpool.Payload | None" = None,
) -> "bufpool.Payload":
    """The task step of every task-by-task executor: run task ``(t, i)`` of
    ``g`` on the ``inputs`` the executor obtained for it and return its
    output (``out`` itself when given).

    The one place under ``runtimes/`` that calls ``execute_point`` and
    opens the ``"task"`` kernel span, and the one that records a task's
    ``start``, ``acquire`` per input and ``finish`` — in that order,
    whatever order the executor got hold of the inputs in.  The acquires
    are live, so a span capture gets each as an instant on this thread."""
    if not _sinks:
        return g.execute_point(t, i, inputs, scratch, validate=validate, out=out)
    gi = g.graph_index
    key = (gi, t, i)
    traced = trace.enabled
    record_event(EV_START, key)
    for j in g.dependency_columns(t, i):
        source = (gi, t - 1, j)
        record_event(EV_ACQUIRE, key, source)
        if traced:
            trace.instant(
                "acquire", trace.CAT_SCHED, {"task": key, "source": source}
            )
    t0 = trace.begin() if traced else 0
    out = g.execute_point(t, i, inputs, scratch, validate=validate, out=out)
    if traced:
        trace.complete("task", trace.CAT_KERNEL, t0, {"task": key})
    record_event(EV_FINISH, key)
    return out


def publish(key: TaskKey, value: "bufpool.Payload") -> None:
    """Announce that the output of ``key`` is about to become visible to
    its consumers: the ``"publish"`` span, the publish event and the
    output for the sinks that want it.  Call it exactly once per task that
    has consumers, after :func:`run_task` and *before* handing ``value`` to
    whatever channel the consumers synchronize on (store, mailbox, future):
    the audits order the hand-off after this event."""
    if not _sinks:
        return
    traced = trace.enabled
    t0 = trace.begin() if traced else 0
    record_event(EV_PUBLISH, key)
    capture_output(key, value)
    if traced:
        trace.complete("publish", trace.CAT_PUBLISH, t0, {"task": key})


def retire_rows(
    g: TaskGraph,
    t: int,
    lo: int,
    hi: int,
    outputs: Sequence["bufpool.Payload | None"],
) -> None:
    """Surface columns ``[lo, hi)`` of row ``t`` of ``g`` — run as one
    block, or in another process — to the installed sinks, task by task in
    program order: start, one acquire per input, finish, and for a task
    somebody reads, publish and its entry of ``outputs`` (the block's
    outputs in column order — a list or the block itself, exactly one per
    task, checked sink or no sink; ``None`` where nobody asked for them).

    What executors that do not go task by task call in place of
    :func:`run_task` and :func:`publish`.  The kernels already ran, so
    nothing here is a span or an instant."""
    if len(outputs) != hi - lo:
        raise RuntimeError(
            f"graph {g.graph_index}: row {t} block [{lo}, {hi}) retired "
            f"with {len(outputs)} outputs for {hi - lo} tasks")
    if not _sinks:
        return
    gi = g.graph_index
    plan = g.row_plan(t)
    for i, value in zip(range(lo, hi), outputs):
        key = (gi, t, i)
        k = i - plan.off
        record_event(EV_START, key)
        for j in plan.deps[k]:
            record_event(EV_ACQUIRE, key, (gi, t - 1, j))
        record_event(EV_FINISH, key)
        if plan.consumers[k] > 0:
            record_event(EV_PUBLISH, key)
            capture_output(key, value)


def gather_row(row: Sequence[Any], plan: RowPlan, lo: int, hi: int) -> Sequence[Any]:
    """The inputs of columns ``[lo, hi)`` of the row ``plan`` compiles, laid
    end to end as ``execute_row`` takes them, out of ``row`` — every output
    of the row before, in column order, as ``execute_row`` returned it.  A
    block is gathered with one ``take`` (a fresh C-contiguous block, which
    validation compares where it lies), a list entry by entry."""
    block = type(row) is np.ndarray
    picks = plan.index if block else plan.flat
    if hi - lo != plan.width:  # a sub-block: its stretch of the CSR
        picks = picks[plan.starts[lo - plan.off]:plan.starts[hi - plan.off]]
    return row.take(picks, 0) if block else [row[j] for j in picks]


def check_drained(g: TaskGraph, t: int, before: RowPlan | TilePlan | None,
                  plan: RowPlan | TilePlan | None) -> None:
    """The reference counting of an executor that keeps whole rows, done on
    the plans: row ``t - 1`` was published under ``before`` (``None``: there
    was none; a tile: its last row) and row ``t`` reads it as ``plan`` says
    (``None``: the run is over and nothing does; a tile: its first row).
    Each output must be read exactly as often as its consumer count
    promised."""
    if before is not None:
        check_reads(f"graph {g.graph_index}: ", t, before.consumers,
                    plan.reads if plan is not None else [0] * len(before.consumers))


def run_point(
    store: OutputStore,
    scratch: ScratchPool,
    g: TaskGraph,
    t: int,
    i: int,
    *,
    validate: bool,
) -> None:
    """Gather inputs, execute one task, and publish its output."""
    gi = g.graph_index
    run_point_batch(store, scratch, {gi: g}, ((gi, t, i),), validate=validate)


def run_point_batch(
    store: OutputStore,
    scratch: ScratchPool,
    graphs: Dict[int, TaskGraph],
    keys: Sequence[TaskKey],
    *,
    validate: bool,
    pool: SlabPool | None = None,
) -> None:
    """Gather the inputs of the ready tasks ``keys`` (every producer has
    published), execute them and publish their outputs.

    The batch's data-plane traffic is coalesced: one store lock hold
    gathers every input and one stores every output.  With a ``pool`` the
    outputs are written into recycled slab slots acquired with one
    reference per consumer — one pool lock hold per size class — and each
    consumed input drops its reference once the batch has read it (one more
    hold), at which point fully-read slots return to the free list.
    Without one, ``execute_point`` allocates each output."""
    inputs_list = store.gather_batch(graphs, keys)
    counts = [graphs[gi].consumer_count(t, i) for gi, t, i in keys]
    refs: List[PayloadRef | None] = [None] * len(keys)
    if pool is not None:
        by_size: Dict[int, List[int]] = {}
        for n, key in enumerate(keys):
            nbytes = graphs[key[0]].output_bytes_per_task
            by_size.setdefault(nbytes, []).append(n)
        for nbytes, idxs in by_size.items():
            got = pool.acquire_batch(nbytes, [max(counts[n], 1) for n in idxs])
            for n, ref in zip(idxs, got):
                refs[n] = ref
    puts: List[Tuple[TaskKey, "bufpool.Payload", int]] = []
    drops: List[PayloadRef] = []
    for key, inputs, consumers, ref in zip(keys, inputs_list, counts, refs):
        gi, t, i = key
        out = run_task(
            graphs[gi], t, i, inputs, scratch=scratch.get(gi, i),
            validate=validate, out=ref,
        )
        if consumers > 0:
            publish(key, out)
            puts.append((key, out, consumers))
        elif ref is not None:
            drops.append(ref)
        drops.extend(value for value in inputs if type(value) is PayloadRef)
    store.put_batch(puts)
    if drops:
        pool.decref_batch(drops)


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
