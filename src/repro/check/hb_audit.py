"""Happens-before audit of recorded executor schedules.

Bytewise validation (paper §2) proves the *values* flowing between tasks are
right, but a racy executor can deliver correct bytes by schedule luck while
still violating ordering — e.g. publishing an output before the kernel that
computes it has finished, or reading a buffer it never synchronized on.
This pass replays the event trace recorded by the hooks in
:mod:`repro.runtimes._common` through a vector-clock checker and a
graph-aware completeness check:

* **Vector clocks**: each thread is a process; ``publish`` stores the
  publisher's clock as a message, ``acquire`` joins the matching message
  clock into the consumer.  An input acquired whose producer's ``finish``
  is not in the consumer's causal past has no happens-before edge from its
  producer's completion (``hb-race``); an acquire with no preceding publish
  at all is a read of unsynchronized state (``hb-unpublished-read``); a
  publish ordered before its own task's finish exposes an incomplete
  output (``hb-early-publish``).
* **Graph-aware completeness**: every task must start and finish exactly
  once, acquire exactly its dependence-relation inputs
  (``hb-missing-acquire`` catches dropped edges, ``hb-extra-acquire``
  phantom ones), and publish when it has consumers.

Every real executor must audit clean; the seeded-bug fixtures in
``tests/buggy_executor.py`` must not.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.diagnostics import Diagnostic, error, findings, info
from ..core.executor_base import Executor
from ..core.metrics import RunResult
from ..core.task_graph import TaskGraph
from ..runtimes._common import (
    EV_ACQUIRE,
    EV_FINISH,
    EV_PUBLISH,
    EV_START,
    TaskKey,
    TraceEvent,
    TraceRecorder,
    tracing,
)


def _fmt(key: TaskKey) -> str:
    gi, t, i = key
    return f"graph {gi} (t={t}, i={i})"


# ----------------------------------------------------------------------
# Vector-clock machinery
# ----------------------------------------------------------------------
class _VectorClock:
    """Grow-on-demand integer vector clock."""

    __slots__ = ("v",)

    def __init__(self, width: int = 0) -> None:
        self.v: List[int] = [0] * width

    def tick(self, idx: int) -> None:
        if idx >= len(self.v):
            self.v.extend([0] * (idx + 1 - len(self.v)))
        self.v[idx] += 1

    def join(self, other: "_VectorClock") -> None:
        if len(other.v) > len(self.v):
            self.v.extend([0] * (len(other.v) - len(self.v)))
        for k, val in enumerate(other.v):
            if val > self.v[k]:
                self.v[k] = val

    def dominates(self, other: "_VectorClock") -> bool:
        """True when ``other <= self`` component-wise."""
        for k, val in enumerate(other.v):
            mine = self.v[k] if k < len(self.v) else 0
            if val > mine:
                return False
        return True

    def snapshot(self) -> "_VectorClock":
        c = _VectorClock()
        c.v = list(self.v)
        return c


@dataclass
class _TaskRecord:
    """Per-task event bookkeeping for the completeness check."""

    starts: int = 0
    finishes: int = 0
    finish_seq: int = -1
    acquires: List[Tuple[TaskKey, int]] = field(default_factory=list)
    publish_seqs: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def audit_trace(
    graphs: Sequence[TaskGraph], events: Sequence[TraceEvent]
) -> List[Diagnostic]:
    """Replay ``events`` and return every happens-before violation found."""
    out: List[Diagnostic] = []
    by_index = {g.graph_index: g for g in graphs}

    # -- pass 1: vector clocks over the linearized trace ----------------
    thread_idx: Dict[int, int] = {}
    clocks: List[_VectorClock] = []
    publishes: Dict[TaskKey, List[Tuple[int, _VectorClock]]] = {}
    finish_vc: Dict[TaskKey, _VectorClock] = {}
    records: Dict[TaskKey, _TaskRecord] = {}

    for ev in events:
        tid = thread_idx.setdefault(ev.thread, len(thread_idx))
        if tid == len(clocks):
            clocks.append(_VectorClock())
        vc = clocks[tid]
        vc.tick(tid)
        rec = records.setdefault(ev.task, _TaskRecord())
        if ev.kind == EV_START:
            rec.starts += 1
        elif ev.kind == EV_FINISH:
            rec.finishes += 1
            rec.finish_seq = ev.seq
            finish_vc[ev.task] = vc.snapshot()
        elif ev.kind == EV_PUBLISH:
            rec.publish_seqs.append(ev.seq)
            publishes.setdefault(ev.task, []).append((ev.seq, vc.snapshot()))
        elif ev.kind == EV_ACQUIRE:
            assert ev.source is not None
            rec.acquires.append((ev.source, ev.seq))
            sent = publishes.get(ev.source, [])
            pos = bisect.bisect_left([s for s, _ in sent], ev.seq)
            if pos == 0:
                out.append(
                    error(
                        "hb-unpublished-read",
                        f"acquired the output of {_fmt(ev.source)} before any "
                        "publish of it was recorded — the read races the "
                        "producer's write",
                        _fmt(ev.task),
                        "only hand a buffer to a consumer after the producer "
                        "publishes it through a synchronizing channel",
                    )
                )
                continue
            vc.join(sent[pos - 1][1])
            producer_finish = finish_vc.get(ev.source)
            if producer_finish is None or not vc.dominates(producer_finish):
                out.append(
                    error(
                        "hb-race",
                        f"acquired the output of {_fmt(ev.source)} with no "
                        "happens-before edge from the producer's completion "
                        "(the publish it synchronized on predates the "
                        "producer's finish)",
                        _fmt(ev.task),
                        "publish outputs only after the kernel completes",
                    )
                )

    # -- pass 2: graph-aware completeness -------------------------------
    for key, rec in records.items():
        gi = key[0]
        if gi not in by_index or not by_index[gi].contains_point(key[1], key[2]):
            out.append(
                error(
                    "hb-unknown-task",
                    "events recorded for a task outside the configured graphs",
                    _fmt(key),
                )
            )

    for g in graphs:
        for t, i in g.points():
            key = (g.graph_index, t, i)
            rec = records.get(key)
            if rec is None:
                out.append(
                    error(
                        "hb-missing-event",
                        "task never executed (no events recorded)",
                        _fmt(key),
                        "the executor must run every point of every graph",
                    )
                )
                continue
            if rec.starts != 1 or rec.finishes != 1:
                out.append(
                    error(
                        "hb-missing-event",
                        f"expected exactly one start and one finish, saw "
                        f"{rec.starts} start(s) and {rec.finishes} finish(es)",
                        _fmt(key),
                        "execute each task exactly once",
                    )
                )
                continue
            expected = {(g.graph_index, t - 1, j) for j in g.dependency_points(t, i)} if t else set()
            acquired = {src for src, _ in rec.acquires}
            for src in sorted(expected - acquired):
                out.append(
                    error(
                        "hb-missing-acquire",
                        f"never acquired its input from {_fmt(src)} — the "
                        "dependence edge was dropped by the scheduler",
                        _fmt(key),
                        "wait on every producer listed by dependency_points "
                        "before executing",
                    )
                )
            for src in sorted(acquired - expected):
                out.append(
                    error(
                        "hb-extra-acquire",
                        f"acquired an input from {_fmt(src)} that the "
                        "dependence relation does not declare",
                        _fmt(key),
                        "gather exactly the inputs of dependency_points",
                    )
                )
            for _, seq in rec.acquires:
                if seq > rec.finish_seq:
                    out.append(
                        error(
                            "hb-late-acquire",
                            "an input was acquired after the task finished",
                            _fmt(key),
                            "gather all inputs before running the kernel",
                        )
                    )
                    break
            if any(seq < rec.finish_seq for seq in rec.publish_seqs):
                out.append(
                    error(
                        "hb-early-publish",
                        "output was published before the task finished "
                        "computing it — consumers can observe an incomplete "
                        "buffer even if the bytes happen to validate",
                        _fmt(key),
                        "publish only after execute_point returns",
                    )
                )
            if g.consumer_count(t, i) > 0 and not rec.publish_seqs:
                out.append(
                    error(
                        "hb-missing-publish",
                        "task has consumers but its output was never published",
                        _fmt(key),
                        "route the output to every reverse dependency",
                    )
                )
    return out


# ----------------------------------------------------------------------
# Audited execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AuditResult:
    """Outcome of an audited run: the normal result plus the audit."""

    run: RunResult
    diagnostics: List[Diagnostic]
    num_events: int

    @property
    def ok(self) -> bool:
        """True when the schedule audit found no violations."""
        return not findings(self.diagnostics)

    def summary(self) -> str:
        """The audit summary line."""
        n = len(findings(self.diagnostics))
        status = "clean" if n == 0 else f"{n} violation(s)"
        return f"Audit {status} ({self.num_events} events)"

    def report(self) -> str:
        """The run report followed by the audit summary line."""
        return f"{self.run.report()}\n{self.summary()}"


def audited(
    run: Callable[[], RunResult], graphs: Sequence[TaskGraph], name: str
) -> AuditResult:
    """Call ``run`` — one run of ``graphs`` on the executor called ``name``
    — with a trace recorder installed, and audit the schedule it saw."""
    recorder = TraceRecorder()
    with tracing(recorder):
        result = run()
    diags = audit_trace(list(graphs), recorder.events)
    diags.append(
        info(
            "hb-trace",
            f"audited {len(recorder.events)} events from executor {name!r}",
            "audit",
        )
    )
    return AuditResult(run=result, diagnostics=diags, num_events=len(recorder.events))


def audit_run(
    executor: Executor, graphs: Sequence[TaskGraph], *, validate: bool = True
) -> AuditResult:
    """Execute ``graphs`` with tracing enabled and audit the schedule."""
    return audited(
        lambda: executor.run(graphs, validate=validate), graphs, executor.name
    )
