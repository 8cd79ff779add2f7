"""Tests for the happens-before schedule audit (repro.check.hb_audit)."""

import pytest

from repro.check import audit_run, audit_trace
from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.runtimes import available_runtimes, make_executor
from repro.runtimes._common import (
    EV_ACQUIRE,
    EV_FINISH,
    EV_PUBLISH,
    EV_START,
    TraceEvent,
    TraceRecorder,
    tracing,
)
from tests.buggy_executor import DroppedEdgeExecutor, EarlyPublishExecutor


def make_graphs():
    """A stencil plus a nearest-radix graph, the acceptance configuration."""
    kernel = Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2)
    return [
        TaskGraph(timesteps=8, max_width=4, dependence=DependenceType.STENCIL_1D,
                  kernel=kernel, output_bytes_per_task=16),
        TaskGraph(timesteps=6, max_width=5, dependence=DependenceType.NEAREST,
                  radix=3, kernel=kernel, output_bytes_per_task=16,
                  graph_index=1),
    ]


def codes(diags):
    return {d.code for d in diags}


# ----------------------------------------------------------------------
# Every real executor must audit clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime", available_runtimes())
def test_every_executor_audits_clean(runtime):
    res = audit_run(make_executor(runtime, workers=2), make_graphs())
    assert res.ok, res.report()
    assert res.num_events > 0
    assert res.run.validated
    assert "Audit clean" in res.report()


# ----------------------------------------------------------------------
# The seeded-bug fixtures must be flagged despite validating clean
# ----------------------------------------------------------------------
def test_dropped_edge_is_flagged_but_validates():
    ex = DroppedEdgeExecutor()
    res = audit_run(ex, make_graphs())
    assert res.run.validated  # lucky bytes: validation cannot see the bug
    assert not res.ok
    assert "hb-missing-acquire" in codes(res.diagnostics)
    gi, t, i = ex.victim
    flagged = [d for d in res.diagnostics if d.code == "hb-missing-acquire"]
    assert any(f"graph {gi} (t={t}, i={i})" == d.location for d in flagged)
    assert all("dependence edge was dropped" in d.message for d in flagged)


def test_early_publish_is_flagged_but_validates():
    res = audit_run(EarlyPublishExecutor(), make_graphs())
    assert res.run.validated
    assert not res.ok
    assert "hb-early-publish" in codes(res.diagnostics)


# ----------------------------------------------------------------------
# Synthetic traces: deterministic unit coverage of each violation class
# ----------------------------------------------------------------------
def chain_graph():
    """Two-task chain: (0,0) -> (1,0)."""
    return TaskGraph(timesteps=2, max_width=1,
                     dependence=DependenceType.STENCIL_1D)


def trace(*steps):
    """Build a trace from (thread, kind, task[, source]) tuples."""
    return [
        TraceEvent(seq, step[0], step[1], step[2],
                   step[3] if len(step) > 3 else None)
        for seq, step in enumerate(steps)
    ]


P, C = (0, 0, 0), (0, 1, 0)  # producer and consumer of the chain


def test_clean_trace_has_no_findings():
    events = trace(
        (1, EV_START, P), (1, EV_FINISH, P), (1, EV_PUBLISH, P),
        (2, EV_START, C), (2, EV_ACQUIRE, C, P), (2, EV_FINISH, C),
    )
    assert audit_trace([chain_graph()], events) == []


def test_unpublished_read_detected():
    events = trace(
        (1, EV_START, P), (1, EV_FINISH, P),
        (2, EV_START, C), (2, EV_ACQUIRE, C, P), (2, EV_FINISH, C),
    )
    found = codes(audit_trace([chain_graph()], events))
    assert "hb-unpublished-read" in found
    assert "hb-missing-publish" in found  # P has a consumer, never published


def test_race_detected_across_threads():
    """A publish ordered before the producer's finish gives the consumer no
    happens-before edge from the completed kernel."""
    events = trace(
        (1, EV_START, P), (1, EV_PUBLISH, P),
        (2, EV_START, C), (2, EV_ACQUIRE, C, P),
        (1, EV_FINISH, P),
        (2, EV_FINISH, C),
    )
    found = codes(audit_trace([chain_graph()], events))
    assert "hb-race" in found
    assert "hb-early-publish" in found


def test_missing_events_detected():
    found = codes(audit_trace([chain_graph()], []))
    assert found == {"hb-missing-event"}


def test_duplicate_execution_detected():
    events = trace(
        (1, EV_START, P), (1, EV_FINISH, P), (1, EV_PUBLISH, P),
        (1, EV_START, P), (1, EV_FINISH, P),  # executed twice
        (1, EV_START, C), (1, EV_ACQUIRE, C, P), (1, EV_FINISH, C),
    )
    assert "hb-missing-event" in codes(audit_trace([chain_graph()], events))


def test_extra_acquire_detected():
    g = TaskGraph(timesteps=2, max_width=2, dependence=DependenceType.NO_COMM)
    other = (0, 0, 1)
    events = trace(
        (1, EV_START, (0, 0, 0)), (1, EV_FINISH, (0, 0, 0)),
        (1, EV_START, other), (1, EV_FINISH, other), (1, EV_PUBLISH, other),
        (1, EV_START, (0, 1, 0)),
        (1, EV_ACQUIRE, (0, 1, 0), (0, 0, 0)),   # the declared edge
        (1, EV_ACQUIRE, (0, 1, 0), other),       # a phantom one
        (1, EV_FINISH, (0, 1, 0)),
        (1, EV_START, (0, 1, 1)),
        (1, EV_ACQUIRE, (0, 1, 1), other),
        (1, EV_FINISH, (0, 1, 1)),
    )
    # no_comm: each task depends only on its own column
    found = audit_trace([g], events)
    assert "hb-extra-acquire" in codes(found)
    # the declared self-column edge of (1,0) was never published
    assert "hb-unpublished-read" in codes(found)


def test_late_acquire_detected():
    events = trace(
        (1, EV_START, P), (1, EV_FINISH, P), (1, EV_PUBLISH, P),
        (2, EV_START, C), (2, EV_FINISH, C), (2, EV_ACQUIRE, C, P),
    )
    assert "hb-late-acquire" in codes(audit_trace([chain_graph()], events))


def test_unknown_task_detected():
    stray = (7, 0, 0)
    events = trace(
        (1, EV_START, P), (1, EV_FINISH, P), (1, EV_PUBLISH, P),
        (2, EV_START, C), (2, EV_ACQUIRE, C, P), (2, EV_FINISH, C),
        (1, EV_START, stray), (1, EV_FINISH, stray),
    )
    assert "hb-unknown-task" in codes(audit_trace([chain_graph()], events))


# ----------------------------------------------------------------------
# Recorder plumbing
# ----------------------------------------------------------------------
def test_tracing_rejects_nesting():
    with tracing(TraceRecorder()):
        with pytest.raises(RuntimeError, match="already installed"):
            with tracing(TraceRecorder()):
                pass


def test_tracing_uninstalls_on_exit():
    from repro.runtimes import _common

    rec = TraceRecorder()
    with tracing(rec):
        assert _common._sinks == (rec,)
    assert _common._sinks == ()


def test_untraced_run_records_nothing():
    rec = TraceRecorder()
    make_executor("serial").run(make_graphs())
    assert len(rec) == 0
