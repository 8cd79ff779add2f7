"""Differential executor-conformance suite.

Every registered executor must produce *bytewise identical* task outputs to
the serial executor for the same graphs — the strongest statement the repo
can make that the fourteen scheduling strategies implement one semantics.
Outputs are snapshotted at publish time via
:func:`repro.runtimes._common.capturing_outputs`, so pooled/zero-copy data
planes are checked at exactly the moment consumers could observe them.

The compared domain is every task with at least one consumer (tasks whose
output crosses an edge); final-frontier outputs are dropped by all
executors symmetrically and their correctness is covered by input
validation of the runs themselves, which stays enabled throughout.

A second axis runs each executor under the happens-before audit
(``repro.check.audit_run``) and requires a diagnostic-free schedule.

Marked ``conformance``: the suite is tier-1, and CI additionally runs it as
its own parallel leg.

Setting ``TASKBENCH_SANITIZE=1`` additionally runs every captured run under
the lockset sanitizer (:mod:`repro.check.concurrency`) and fails on any
race finding — CI runs the threads/dataflow subset this way, so the
same-address-space schedulers are continuously checked against lock-free
publish paths, not just against bytewise output equality.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.check import audit_run
from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.core.diagnostics import Severity
from repro.runtimes import available_runtimes, make_executor
from repro.runtimes._common import (
    EV_ACQUIRE,
    EV_FINISH,
    EV_PUBLISH,
    EV_START,
    TraceRecorder,
    capturing_outputs,
    tracing,
)

pytestmark = pytest.mark.conformance

ALL_RUNTIMES = available_runtimes()
#: Same-address-space executors: cheap to run, get the full matrix.
THREAD_SIDE = [
    r for r in ALL_RUNTIMES
    if r not in ("serial", "processes", "shm_processes")
    and not r.startswith("cluster_")
]
#: Cross-process executors fork a pool per instance; they get a reduced
#: but still heterogeneous slice of the matrix.
PROCESS_SIDE = ["processes", "shm_processes"]
#: Distributed executors fork a rank mesh per instance and move every
#: cross-rank payload over a real socket; same reduced slice.
CLUSTER_SIDE = ["cluster_tcp", "cluster_uds"]

DEP_TYPES = [
    DependenceType.TRIVIAL,
    DependenceType.NO_COMM,
    DependenceType.STENCIL_1D,
    DependenceType.STENCIL_1D_PERIODIC,
    DependenceType.FFT,
    DependenceType.TREE,
    DependenceType.RANDOM_NEAREST,
]

KERNELS = {
    "empty": dict(kernel=Kernel(kernel_type=KernelType.EMPTY)),
    "compute_bound": dict(
        kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=4)
    ),
    "memory_bound": dict(
        kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=2),
        scratch_bytes_per_task=4096,
    ),
}


def _graph(dep=DependenceType.STENCIL_1D, nbytes=4096, **kw) -> TaskGraph:
    kw.setdefault("timesteps", 6)
    kw.setdefault("max_width", 8)
    return TaskGraph(dependence=dep, output_bytes_per_task=nbytes, **kw)


#: Heterogeneous multi-graph workloads: mixed patterns, widths, payload
#: sizes, and kernels running concurrently under one executor.
HETEROGENEOUS = {
    "mixed_patterns": lambda: [
        _graph(DependenceType.STENCIL_1D, nbytes=256, graph_index=0),
        _graph(DependenceType.FFT, nbytes=4096, max_width=4, graph_index=1),
        _graph(DependenceType.TREE, nbytes=16, timesteps=4, graph_index=2),
    ],
    "mixed_kernels": lambda: [
        _graph(
            DependenceType.STENCIL_1D_PERIODIC,
            nbytes=1024,
            graph_index=0,
            **KERNELS["compute_bound"],
        ),
        _graph(
            DependenceType.RANDOM_NEAREST,
            nbytes=64,
            timesteps=5,
            graph_index=1,
            **KERNELS["memory_bound"],
        ),
    ],
}


def _communicated(graphs) -> set:
    """Keys of all tasks whose output feeds at least one consumer."""
    keys = set()
    for g in graphs:
        for t, i in g.points():
            if g.consumer_count(t, i) > 0:
                keys.add((g.graph_index, t, i))
    return keys


#: Opt-in: run every captured run under the lockset sanitizer.
_SANITIZE = bool(os.environ.get("TASKBENCH_SANITIZE", "").strip())


@contextlib.contextmanager
def _maybe_sanitized():
    """Instrumented locks + race check when TASKBENCH_SANITIZE is set.

    The executor must be constructed *inside* this context so its locks
    are sanitized (see :func:`repro.check.concurrency.instrument`)."""
    if not _SANITIZE:
        yield None
        return
    from repro.check import instrument

    with instrument() as sanitizer:
        yield sanitizer


def _run_captured(runtime: str, graphs) -> dict:
    """Outputs published by one run, restricted to communicated tasks."""
    with _maybe_sanitized() as sanitizer:
        ex = make_executor(runtime, workers=2)
        try:
            with capturing_outputs() as sink:
                result = ex.run(graphs)
        finally:
            if hasattr(ex, "close"):
                ex.close()
    if sanitizer is not None:
        assert not sanitizer.diagnostics, [
            d.render() for d in sanitizer.diagnostics
        ]
    assert result.total_tasks == sum(g.total_tasks() for g in graphs)
    # Exactly the communicated tasks: nothing missing, and no snapshot of
    # an output nobody reads.
    assert sink.keys() == _communicated(graphs)
    return sink


class _SerialReference:
    """Memoized serial-executor output maps, keyed by scenario id (the
    graphs are rebuilt per use, so executors never share instances)."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def __call__(self, scenario_id: str, graph_factory) -> dict:
        if scenario_id not in self._cache:
            self._cache[scenario_id] = _run_captured("serial", graph_factory())
        return self._cache[scenario_id]


@pytest.fixture(scope="module")
def serial_reference():
    return _SerialReference()


@pytest.mark.parametrize("dep", DEP_TYPES, ids=lambda d: d.value)
@pytest.mark.parametrize("runtime", THREAD_SIDE)
@pytest.mark.parametrize("nbytes", [16, 4096])
def test_thread_side_matches_serial(runtime, dep, nbytes, serial_reference):
    factory = lambda: [_graph(dep, nbytes=nbytes)]  # noqa: E731
    reference = serial_reference(f"dep-{dep.value}-{nbytes}", factory)
    assert _run_captured(runtime, factory()) == reference


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=str)
@pytest.mark.parametrize("runtime", THREAD_SIDE)
def test_thread_side_kernels_match_serial(runtime, kernel, serial_reference):
    factory = lambda: [_graph(**KERNELS[kernel])]  # noqa: E731
    reference = serial_reference(f"kernel-{kernel}", factory)
    assert _run_captured(runtime, factory()) == reference


@pytest.mark.parametrize(
    "dep",
    [DependenceType.STENCIL_1D, DependenceType.FFT, DependenceType.RANDOM_NEAREST],
    ids=lambda d: d.value,
)
@pytest.mark.parametrize("runtime", PROCESS_SIDE)
@pytest.mark.parametrize("nbytes", [16, 4096])
def test_process_side_matches_serial(runtime, dep, nbytes, serial_reference):
    factory = lambda: [_graph(dep, nbytes=nbytes)]  # noqa: E731
    reference = serial_reference(f"dep-{dep.value}-{nbytes}", factory)
    assert _run_captured(runtime, factory()) == reference


@pytest.mark.parametrize(
    "dep",
    [DependenceType.STENCIL_1D, DependenceType.FFT, DependenceType.RANDOM_NEAREST],
    ids=lambda d: d.value,
)
@pytest.mark.parametrize("runtime", CLUSTER_SIDE)
@pytest.mark.parametrize("nbytes", [16, 4096])
def test_cluster_side_matches_serial(runtime, dep, nbytes, serial_reference):
    """Bytewise conformance across a process *and* a wire boundary: what
    the ranks serialize, send, and reconstruct must equal what the serial
    executor computes in place."""
    factory = lambda: [_graph(dep, nbytes=nbytes)]  # noqa: E731
    reference = serial_reference(f"dep-{dep.value}-{nbytes}", factory)
    assert _run_captured(runtime, factory()) == reference


@pytest.mark.parametrize("runtime", ["threads", "cluster_uds"])
def test_tall_random_graph_matches_serial(runtime, serial_reference):
    """1,500 rows that never repeat — taller than one batch of compiled
    rows, and than the 1,024 entries the table once stopped at: a
    task-by-task executor (per-task views derived from the plans) and a
    block owner (sub-row blocks of them) against the whole-row serial."""
    factory = lambda: [TaskGraph(  # noqa: E731
        timesteps=1500, max_width=8, dependence=DependenceType.RANDOM_NEAREST,
        radix=7, fraction_connected=0.75, output_bytes_per_task=16)]
    reference = serial_reference("tall-dense-random", factory)
    assert _run_captured(runtime, factory()) == reference


@pytest.mark.parametrize("scenario", sorted(HETEROGENEOUS), ids=str)
@pytest.mark.parametrize("runtime", THREAD_SIDE + PROCESS_SIDE + CLUSTER_SIDE)
def test_heterogeneous_graphs_match_serial(runtime, scenario, serial_reference):
    factory = HETEROGENEOUS[scenario]
    reference = serial_reference(f"hetero-{scenario}", factory)
    assert _run_captured(runtime, factory()) == reference


@pytest.mark.parametrize("runtime", ALL_RUNTIMES)
def test_audit_clean_schedule(runtime):
    """Every executor's event trace passes the happens-before audit on a
    communication-bearing pattern."""
    ex = make_executor(runtime, workers=2)
    try:
        result = audit_run(ex, [_graph(DependenceType.STENCIL_1D, nbytes=256)])
    finally:
        if hasattr(ex, "close"):
            ex.close()
    problems = [d for d in result.diagnostics if d.severity > Severity.INFO]
    assert not problems, problems


@pytest.mark.parametrize(
    "dep", [DependenceType.STENCIL_1D, DependenceType.TREE], ids=lambda d: d.value
)
@pytest.mark.parametrize("runtime", ALL_RUNTIMES)
def test_one_publish_per_communicated_task_and_one_event_order(runtime, dep):
    """Every executor tells the same story about a task: ``start``, one
    ``acquire`` per input in canonical order, ``finish``, and — exactly
    when somebody reads the output — one ``publish``."""
    g = _graph(dep, nbytes=16)
    ex = make_executor(runtime, workers=3)
    try:
        with tracing(TraceRecorder()) as rec:
            ex.run([g])
    finally:
        if hasattr(ex, "close"):
            ex.close()
    per_task: dict = {}
    for ev in rec.events:
        per_task.setdefault(ev.task, []).append((ev.kind, ev.source))
    published = [ev.task for ev in rec.events if ev.kind == EV_PUBLISH]
    assert sorted(published) == sorted(_communicated([g]))
    assert per_task.keys() == {(0, t, i) for t, i in g.points()}
    for (gi, t, i), events in per_task.items():
        expected = [(EV_START, None)]
        expected += [
            (EV_ACQUIRE, (gi, t - 1, j)) for j in g.dependency_points(t, i)
        ] if t else []
        expected.append((EV_FINISH, None))
        if g.consumer_count(t, i) > 0:
            expected.append((EV_PUBLISH, None))
        assert events == expected, (runtime, (gi, t, i))


# ---------------------------------------------------------------------------
# Trace conformance (tier: traceconf)
# ---------------------------------------------------------------------------
#
# Every registered executor runs a small communication-bearing graph under
# the span recorder; the merged trace must be well-formed — no negative
# durations, spans properly nested per thread track, per-buffer timestamps
# monotone after rank clock alignment, and exactly one kernel span per
# task.  This is the wall-clock complement of the bytewise tier above:
# same graphs, same executors, but checking *when* instead of *what*.

@pytest.mark.traceconf
@pytest.mark.parametrize("runtime", ALL_RUNTIMES)
def test_trace_well_formed(runtime):
    from repro.trace import recorder as trace
    from repro.trace.conformance import check_trace

    graphs = [_graph(DependenceType.STENCIL_1D, nbytes=256)]
    ex = make_executor(runtime, workers=2)
    try:
        with trace.capture() as rec:
            ex.run(graphs)
            tr = rec.collect()
    finally:
        if hasattr(ex, "close"):
            ex.close()
    assert tr.dropped == 0
    problems = check_trace(tr, graphs)
    assert not problems, problems


@pytest.mark.traceconf
@pytest.mark.parametrize("runtime", ["threads", "processes", "cluster_uds"])
def test_trace_heterogeneous_well_formed(runtime):
    """Multi-graph workloads trace cleanly across isolation levels: one
    kernel span per task even when several graphs interleave on the same
    worker tracks."""
    from repro.trace import recorder as trace
    from repro.trace.conformance import check_trace

    graphs = HETEROGENEOUS["mixed_patterns"]()
    ex = make_executor(runtime, workers=2)
    try:
        with trace.capture() as rec:
            ex.run(graphs)
            tr = rec.collect()
    finally:
        if hasattr(ex, "close"):
            ex.close()
    assert not check_trace(tr, graphs), check_trace(tr, graphs)


@pytest.mark.traceconf
@pytest.mark.parametrize("runtime", ["threads", "shm_processes", "cluster_uds"])
def test_trace_export_round_trip(runtime, tmp_path):
    """The Chrome export of a real traced run is schema-valid and loads
    back with every kernel span intact."""
    import json

    from repro.trace import recorder as trace
    from repro.trace.export import load_chrome, validate_chrome, write_chrome

    graphs = [_graph(DependenceType.STENCIL_1D, nbytes=256)]
    ex = make_executor(runtime, workers=2)
    try:
        with trace.capture() as rec:
            ex.run(graphs)
            tr = rec.collect()
    finally:
        if hasattr(ex, "close"):
            ex.close()
    path = tmp_path / "trace.json"
    write_chrome(tr, str(path))
    with open(path, encoding="utf-8") as fh:
        assert validate_chrome(json.load(fh)) == []
    loaded = load_chrome(str(path))
    assert len(loaded.kernel_spans()) == len(tr.kernel_spans())
    assert len(tr.kernel_spans()) == sum(g.total_tasks() for g in graphs)
