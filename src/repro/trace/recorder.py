"""Lock-free-per-thread span recorder for the real executors.

The paper explains METG curves through *where time goes* — per-task
overhead, communication stalls, phased idle gaps (§5.1, §5.6–5.7).  This
module is the measurement substrate: wall-clock spans recorded at the
executors' kernel/publish/wire/dispatch sites with near-zero disturbance
of the run being measured.

Design rules (all load-bearing):

* **Zero cost when disabled.**  Every instrumentation site checks the
  module-level :data:`enabled` flag before doing *anything* — no
  allocation, no clock read, no attribute chain beyond one module
  attribute.  ``enabled`` is only ever flipped by :func:`capture` (or the
  worker/rank helpers), never by the hot path.  (The task step,
  ``_common.run_task`` / ``publish``, tests its sink list instead, which
  holds the recorder while a capture is on: one read there too.)
* **Lock-free per thread.**  Each recording thread appends into its own
  bounded ring buffer, obtained through a ``threading.local`` — the
  append path takes no lock and shares no cache line with other
  recorders.  The recorder's lock guards only buffer *registration* (once
  per thread) and collection.
* **Bounded with an exact drop counter.**  A buffer at capacity drops the
  newest event and counts it; the trace reports exactly how many events
  were lost, so a truncated trace can never masquerade as a complete one.
* **Timestamps are ``perf_counter_ns``** — monotonic, unaffected by NTP
  slews, and (on Linux) readable across processes of one host, which is
  what makes the per-rank clock alignment in :mod:`repro.trace.merge` an
  affine correction rather than a re-clocking.

Tracing is diagnostics-only: traced timings must never feed METG numbers
(the same rule as the sanitizer); the CLI enforces ``--trace`` and
``-metg`` to be mutually exclusive.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span/event categories used by the built-in instrumentation sites.
CAT_KERNEL = "kernel"  #: a task's kernel executing (exactly one per task)
CAT_PUBLISH = "publish"  #: a task output becoming visible to consumers
CAT_WIRE = "wire"  #: bytes moving over a socket (cluster executors)
CAT_DISPATCH = "dispatch"  #: worker-pool / controller dispatch machinery
CAT_SCHED = "sched"  #: scheduler waits and acquire instants

#: Default per-thread ring capacity (events).  65536 events cover several
#: hundred thousand tasks' worth of kernel spans per worker before drops.
DEFAULT_CAPACITY = 1 << 16

#: Is span recording active in this process?  Instrumentation sites must
#: check this (as ``trace.enabled``, a module attribute read) before any
#: other work; it is the whole disabled-path cost.
enabled: bool = False

_active: "SpanRecorder | None" = None


def now() -> int:
    """Current timestamp in nanoseconds (``perf_counter_ns``).

    Named so the executor-contract lint's wall-clock ban does not trip on
    instrumentation sites inside executor classes: the clock is read here,
    in the tracing layer, never inline in scheduling code.
    """
    return time.perf_counter_ns()


#: Alias used at span-start sites (reads better than ``now`` there).
begin = now


@dataclass(frozen=True)
class TraceRecord:
    """One materialized trace event, ready for export.

    ``ph`` follows the Chrome trace-event phase vocabulary: ``"X"`` a
    complete span (``ts_ns`` start, ``dur_ns`` duration), ``"i"`` an
    instant, ``"C"`` a counter sample (``args`` holds the track values).
    ``pid``/``tid`` are *labels* (rank/worker and thread), not OS ids.
    """

    ph: str
    pid: str
    tid: str
    name: str
    cat: str
    ts_ns: int
    dur_ns: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.ts_ns + self.dur_ns


class Trace:
    """A collected trace: materialized records plus the exact drop count."""

    def __init__(self, records: List[TraceRecord], dropped: int = 0) -> None:
        self.records = records
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self.records)

    @property
    def spans(self) -> List[TraceRecord]:
        return [r for r in self.records if r.ph == "X"]

    @property
    def instants(self) -> List[TraceRecord]:
        return [r for r in self.records if r.ph == "i"]

    @property
    def counters(self) -> List[TraceRecord]:
        return [r for r in self.records if r.ph == "C"]

    def kernel_spans(self) -> List[TraceRecord]:
        return [r for r in self.records if r.ph == "X" and r.cat == CAT_KERNEL]

    def tracks(self) -> Dict[Tuple[str, str], List[TraceRecord]]:
        """Records grouped by ``(pid, tid)``, preserving recorded order
        (per-thread completion order — the order the monotonicity
        invariant speaks about)."""
        by_track: Dict[Tuple[str, str], List[TraceRecord]] = {}
        for r in self.records:
            by_track.setdefault((r.pid, r.tid), []).append(r)
        return by_track


class _Buffer:
    """One thread's bounded ring: append without locks, drop-newest with an
    exact counter at capacity."""

    __slots__ = ("tid", "capacity", "events", "dropped")

    def __init__(self, tid: str, capacity: int) -> None:
        self.tid = tid
        self.capacity = capacity
        self.events: List[Tuple[Any, ...]] = []
        self.dropped = 0

    def add(self, ev: Tuple[Any, ...]) -> None:
        if len(self.events) < self.capacity:
            self.events.append(ev)
        else:
            self.dropped += 1


class SpanRecorder:
    """Per-process span sink: one ring buffer per recording thread, plus
    foreign buffers ingested from workers/ranks at collection time."""

    def __init__(
        self,
        *,
        capacity_per_thread: int = DEFAULT_CAPACITY,
        pid: str = "main",
    ) -> None:
        if capacity_per_thread < 1:
            raise ValueError("capacity_per_thread must be >= 1")
        self.pid = pid
        self.capacity = capacity_per_thread
        self._tl = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        #: Ingested foreign dumps: (pid, clock offset ns, buffer dump).
        self._foreign: List[Tuple[str, int, List[Any]]] = []

    # -- sink protocol (repro.runtimes._common.observing) ---------------
    wants_output = False
    already = "a span recorder is already active"

    def event(self, kind: str, task: Any, source: Any) -> None:
        """Spans and instants are recorded at the sites themselves, behind
        :data:`enabled`; being installed is what sends ``run_task`` and
        ``publish`` down their observed path."""

    # -- hot path ------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._tl, "buf", None)
        if buf is None:
            name = threading.current_thread().name
            buf = _Buffer(name, self.capacity)
            with self._lock:
                # Thread names are labels, not identities: a second thread
                # reusing a name gets a disambiguated track.
                taken = {b.tid for b in self._buffers}
                if buf.tid in taken:
                    buf.tid = f"{name}#{threading.get_ident()}"
                self._buffers.append(buf)
            self._tl.buf = buf
        return buf

    def add(self, ev: Tuple[Any, ...]) -> None:
        self._buffer().add(ev)

    # -- collection ----------------------------------------------------
    def ingest(self, pid: str, buffers: List[Any], offset_ns: int = 0) -> None:
        """Attach a foreign dump (one worker's or rank's buffers, as
        returned by :func:`worker_drain`) under process label ``pid``,
        shifting its timestamps by ``offset_ns`` at materialization."""
        with self._lock:
            self._foreign.append((pid, offset_ns, buffers))

    def dump(self) -> List[Any]:
        """Picklable/JSON-able snapshot of this recorder's own buffers:
        ``[[tid, dropped, [event, ...]], ...]``."""
        with self._lock:
            return [[b.tid, b.dropped, list(b.events)] for b in self._buffers]

    def collect(self) -> Trace:
        """Materialize everything recorded (own threads + ingested dumps)
        into a :class:`Trace`."""
        from .merge import materialize_dump

        with self._lock:
            own = [[b.tid, b.dropped, list(b.events)] for b in self._buffers]
            foreign = list(self._foreign)
        records: List[TraceRecord] = []
        dropped = 0
        seen_tracks: set = set()
        for pid, offset_ns, buffers in [(self.pid, 0, own)] + foreign:
            part, part_dropped = materialize_dump(
                pid, buffers, offset_ns=offset_ns, seen_tracks=seen_tracks
            )
            records.extend(part)
            dropped += part_dropped
        return Trace(records, dropped)


# ----------------------------------------------------------------------
# Recording API (module-level so sites need no recorder handle)
# ----------------------------------------------------------------------
def complete(
    name: str, cat: str, start_ns: int, args: Dict[str, Any] | None = None
) -> None:
    """Record a complete span begun at ``start_ns`` and ending now.

    Sites call ``t0 = trace.begin()`` (guarded by ``trace.enabled``), do
    the work, then ``trace.complete(...)`` — the span is allocated only at
    completion, so an enabled-flag flip mid-span loses one span instead of
    corrupting the buffer.
    """
    rec = _active
    if rec is None:
        return
    end = time.perf_counter_ns()
    rec.add(("X", name, cat, start_ns, end - start_ns, args))


def instant(name: str, cat: str = "", args: Dict[str, Any] | None = None) -> None:
    """Record a zero-duration instant event."""
    rec = _active
    if rec is None:
        return
    rec.add(("i", name, cat, time.perf_counter_ns(), 0, args))


def counter(name: str, values: Dict[str, Any]) -> None:
    """Record one sample of a counter track (absolute values)."""
    rec = _active
    if rec is None:
        return
    rec.add(("C", name, "", time.perf_counter_ns(), 0, dict(values)))


@contextlib.contextmanager
def span(
    name: str, cat: str = "", args: Dict[str, Any] | None = None
) -> Iterator[None]:
    """Context-manager convenience for cold paths (setup, CLI).  Hot
    paths use the explicit ``begin()``/``complete()`` pair behind an
    ``enabled`` check instead — a generator frame per event is exactly
    the allocation the disabled path must not pay."""
    if not enabled:
        yield
        return
    t0 = time.perf_counter_ns()
    try:
        yield
    finally:
        complete(name, cat, t0, args)


@contextlib.contextmanager
def capture(
    *,
    capacity_per_thread: int = DEFAULT_CAPACITY,
    pid: str = "main",
) -> Iterator[SpanRecorder]:
    """Enable span recording for the duration and yield the recorder.

    The recorder is installed as one of the run's sinks
    (:func:`repro.runtimes._common.observing`), so it composes with the
    schedule audit, the lockset sanitizer and the conformance capture.
    Nested or concurrent captures are not supported — one recorder per
    process.
    """
    global enabled, _active
    from ..runtimes._common import observing

    rec = SpanRecorder(capacity_per_thread=capacity_per_thread, pid=pid)
    with observing(rec):
        _active = rec
        enabled = True
        try:
            yield rec
        finally:
            enabled = False
            _active = None


def active() -> SpanRecorder | None:
    """The currently capturing recorder, or ``None``."""
    return _active


def ingest(pid: str, buffers: List[Any], *, offset_ns: int = 0) -> None:
    """Attach a worker/rank dump to the active capture (no-op when none)."""
    rec = _active
    if rec is not None:
        rec.ingest(pid, buffers, offset_ns)


# ----------------------------------------------------------------------
# Worker/rank lifecycle (fork-pool broadcast targets; must be picklable
# module-level functions)
# ----------------------------------------------------------------------
def worker_begin(capacity_per_thread: int = DEFAULT_CAPACITY) -> None:
    """Start a fresh recorder in a worker/rank process.

    Always *replaces* any active recorder: a forked child inherits the
    parent's ``enabled`` flag and a copy of its buffers, and draining that
    copy would duplicate the parent's history into the child's track.
    """
    global enabled, _active
    _active = SpanRecorder(capacity_per_thread=capacity_per_thread, pid="worker")
    enabled = True


def worker_drain() -> List[Any]:
    """Stop recording in a worker/rank and return its buffer dump (see
    :meth:`SpanRecorder.dump`); the parent ingests it under the worker's
    process label."""
    global enabled, _active
    rec = _active
    enabled = False
    _active = None
    return rec.dump() if rec is not None else []


def fork_reset() -> None:
    """Discard any recorder state inherited across ``fork()``.  Called at
    worker/rank entry so a child forked mid-capture never records into (or
    later drains) a copy of the parent's buffers."""
    global enabled, _active
    enabled = False
    _active = None


def trace_stats(trace: Trace) -> Tuple[int, int, int, int]:
    """(spans, instants, counter samples, dropped) — the summary tuple the
    CLI folds into :class:`repro.core.metrics.TraceStats`."""
    spans = instants = counters = 0
    for r in trace.records:
        if r.ph == "X":
            spans += 1
        elif r.ph == "i":
            instants += 1
        else:
            counters += 1
    return spans, instants, counters, trace.dropped


def _normalize_args(args: Any) -> Dict[str, Any]:
    """Normalize an event's args mapping after a serialization round trip
    (JSON turns task-key tuples into lists)."""
    if not args:
        return {}
    out = dict(args)
    for k in ("task", "source"):
        v = out.get(k)
        if isinstance(v, (list, tuple)):
            out[k] = tuple(v)
    return out


def materialize_event(
    pid: str, tid: str, ev: Sequence[Any], offset_ns: int
) -> Optional[TraceRecord]:
    """Build one :class:`TraceRecord` from a raw buffer event, shifting
    its timestamp by ``offset_ns``.  Malformed events (a truncated dump)
    return ``None`` rather than poisoning the whole trace."""
    try:
        ph, name, cat, ts, dur, args = ev
        return TraceRecord(
            ph=str(ph),
            pid=pid,
            tid=tid,
            name=str(name),
            cat=str(cat),
            ts_ns=int(ts) + offset_ns,
            dur_ns=int(dur),
            args=_normalize_args(args),
        )
    except (TypeError, ValueError):
        return None
