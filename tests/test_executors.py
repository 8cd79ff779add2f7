"""Integration tests: every executor x every dependence pattern x validation.

These are the repository's end-to-end correctness net: the core library
validates every input of every task, so a passing run proves the executor
scheduled and routed every buffer exactly per the graph specification
(paper §2: "every execution of Task Bench, if it completes successfully, is
correct").
"""

import threading

import pytest

from repro.core import (
    DependenceType,
    Kernel,
    KernelType,
    TaskGraph,
    ValidationError,
)
from repro.core import validation
from repro.core.fastpath import DependenceTable
from repro.runtimes import available_runtimes, make_executor
from repro.runtimes._common import capturing_outputs

ALL_RUNTIMES = available_runtimes()
ALL_PATTERNS = list(DependenceType)

# 'processes' forks a pool per run and the 'cluster_*' executors fork a
# whole rank mesh; exercise those in their dedicated tests (and the
# conformance suite) rather than in every grid cell to keep the suite fast.
THREADED_RUNTIMES = [
    r for r in ALL_RUNTIMES
    if r != "processes" and not r.startswith("cluster_")
]


def make_graph(pattern, **kw):
    base = dict(
        timesteps=8,
        max_width=5,
        dependence=pattern,
        radix=3,
        fraction_connected=0.5,
        kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2),
        output_bytes_per_task=16,
    )
    base.update(kw)
    return TaskGraph(**base)


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
@pytest.mark.parametrize("pattern", ALL_PATTERNS)
def test_every_pattern_validates(runtime, pattern):
    g = make_graph(pattern)
    r = make_executor(runtime, workers=2).run([g])
    assert r.total_tasks == g.total_tasks()
    assert r.validated


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_multiple_heterogeneous_graphs(runtime):
    graphs = [
        make_graph(DependenceType.STENCIL_1D, graph_index=0),
        make_graph(DependenceType.FFT, timesteps=5, max_width=8, graph_index=1),
        make_graph(DependenceType.TREE, timesteps=4, graph_index=2),
    ]
    r = make_executor(runtime, workers=3).run(graphs)
    assert r.total_tasks == sum(g.total_tasks() for g in graphs)


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_memory_kernel_with_scratch(runtime):
    g = make_graph(
        DependenceType.STENCIL_1D,
        kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=2, span_bytes=16),
        scratch_bytes_per_task=128,
    )
    r = make_executor(runtime, workers=2).run([g])
    assert r.total_bytes == g.total_bytes() > 0


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_load_imbalance_kernel(runtime):
    g = make_graph(
        DependenceType.NEAREST,
        radix=5,
        kernel=Kernel(
            kernel_type=KernelType.LOAD_IMBALANCE, iterations=20, imbalance=1.0
        ),
    )
    r = make_executor(runtime, workers=2).run([g])
    assert 0 < r.total_flops < g.total_tasks() * 20 * 128


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_single_column_graph(runtime):
    g = make_graph(DependenceType.NO_COMM, max_width=1, timesteps=10)
    r = make_executor(runtime, workers=2).run([g])
    assert r.total_tasks == 10


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_single_timestep_graph(runtime):
    g = make_graph(DependenceType.STENCIL_1D, timesteps=1)
    r = make_executor(runtime, workers=2).run([g])
    assert r.total_tasks == 5


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_more_workers_than_columns(runtime):
    g = make_graph(DependenceType.STENCIL_1D, max_width=2)
    make_executor(runtime, workers=6).run([g])


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_validation_detects_corrupted_producer(runtime, monkeypatch):
    """Corrupt the output of one mid-graph producer: every executor must
    surface the ValidationError raised by its consumers.

    The corruption goes in at ``validation.task_outputs``, the one output
    writer behind ``execute_point`` and ``execute_row``, so it reaches the
    task-by-task executors and the row-block ones (serial, fork workers)
    alike; fork pools start inside the run and inherit the patch."""
    real = validation.task_outputs

    def corrupting(graph, t, lo, hi, out=None):
        outputs = real(graph, t, lo, hi, out)
        if t == 3 and lo <= 2 < hi and graph.output_bytes_per_task:
            outputs[2 - lo][0] ^= 0xFF  # fresh array or pooled slot alike
        return outputs

    monkeypatch.setattr(validation, "task_outputs", corrupting)
    g = make_graph(DependenceType.STENCIL_1D)
    with pytest.raises(ValidationError, match=r"output of \(t=3, i=2\)"):
        make_executor(runtime, workers=2).run([g])


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_kernel_exception_propagates(runtime, monkeypatch):
    """A kernel crash inside a worker must propagate to the caller, not hang
    the executor."""

    def boom(self, t=0, i=0, scratch=None, seed=0):
        if (t, i) == (2, 1):
            raise RuntimeError("injected kernel failure")

    monkeypatch.setattr(Kernel, "execute", boom)
    g = make_graph(DependenceType.STENCIL_1D)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        make_executor(runtime, workers=2).run([g])


def test_serial_detects_undrained_row(monkeypatch):
    """The serial executor keeps no reference-counted store: what
    ``OutputStore.assert_drained`` guaranteed is checked on the row plans.
    A plan whose reads disagree with the consumer counts the previous row
    was published with — an output leaked, or read once too often — must
    fail the run, and so must a last row that still promises readers."""
    real = DependenceTable.row_plan

    class Tampered:
        """A row plan with column 1 claiming one consumer more."""

        def __init__(self, plan):
            self._plan = plan
            self.consumers = list(plan.consumers)
            self.consumers[1] += 1

        def __getattr__(self, name):
            return getattr(self._plan, name)

    for bad_t in (2, 7):  # a middle row; the last row
        monkeypatch.setattr(
            DependenceTable, "row_plan",
            lambda self, t, bad_t=bad_t: (
                Tampered(real(self, t)) if t == bad_t else real(self, t)),
        )
        g = make_graph(DependenceType.STENCIL_1D)
        with pytest.raises(RuntimeError, match="never consumed"):
            make_executor("serial").execute_graphs([g])


def test_serial_multigraph_uneven_heights():
    """Graphs of different heights and widths interleave row by row; each
    keeps its own previous row, and the short ones drop out early.  Bytes
    are compared with the task-by-task reference walk."""
    graphs = [
        make_graph(DependenceType.STENCIL_1D, timesteps=9, graph_index=0),
        make_graph(DependenceType.TREE, timesteps=3, max_width=8, graph_index=1),
        make_graph(DependenceType.FFT, timesteps=1, max_width=4, graph_index=2),
        make_graph(DependenceType.SPREAD, timesteps=6, max_width=7,
                   graph_index=3, output_bytes_per_task=40),
    ]
    with capturing_outputs() as got:
        r = make_executor("serial").run(graphs)
    assert r.total_tasks == sum(g.total_tasks() for g in graphs)
    want = {}
    for g in graphs:
        for t, i in g.points():
            out = g.execute_point(t, i, validation.expected_inputs(g, t, i))
            if g.consumer_count(t, i) > 0:
                want[(g.graph_index, t, i)] = out.tobytes()
    assert got == want


def _fail_at_timestep_two(monkeypatch):
    def boom(self, t=0, i=0, scratch=None, seed=0):
        if t == 2:
            raise RuntimeError("injected kernel failure")

    monkeypatch.setattr(Kernel, "execute", boom)


def _worker_threads():
    from tests.conftest import WORKER_THREAD_PREFIXES

    return [th.name for th in threading.enumerate()
            if th.name.startswith(WORKER_THREAD_PREFIXES)]


def test_threads_failure_wakes_blocked_workers(monkeypatch):
    """Regression: the ready pool's wait is purely event-driven, so a
    worker failure must broadcast on its condition for blocked idle workers
    to wake and exit — here three of four workers are parked on an empty
    ready queue (width-1 chain) when the fourth one's kernel raises.
    ``run()`` joins its workers before it raises, so the check needs no
    clock: a worker that was not woken would hang the join."""
    _fail_at_timestep_two(monkeypatch)
    g = make_graph(DependenceType.STENCIL_1D, max_width=1)
    with pytest.raises(RuntimeError, match="injected kernel failure"):
        make_executor("threads", workers=4).run([g])
    assert _worker_threads() == []


@pytest.mark.parametrize("runtime", [
    "threads", "ptg", "dataflow", "actors", "centralized", "p2p", "futures",
    "asyncio", "bulk_sync",
])
def test_failure_propagates_and_joins_every_worker(runtime, monkeypatch):
    """Every same-address-space executor surfaces the original exception of
    a failing kernel and has joined all of its worker threads by the time
    ``run()`` raises."""
    _fail_at_timestep_two(monkeypatch)
    g = make_graph(DependenceType.STENCIL_1D, max_width=1)
    with pytest.raises(RuntimeError, match="^injected kernel failure$"):
        make_executor(runtime, workers=4).run([g])
    assert _worker_threads() == []


@pytest.mark.parametrize("runtime", ALL_RUNTIMES)
def test_run_result_fields(runtime):
    g = make_graph(DependenceType.STENCIL_1D, timesteps=4)
    ex = make_executor(runtime, workers=2)
    try:
        r = ex.run([g])
        assert r.executor == runtime
        assert r.elapsed_seconds > 0
        assert r.cores == ex.cores >= 1
        assert r.total_dependencies == g.total_dependencies()
        assert r.task_granularity_seconds > 0
    finally:
        if hasattr(ex, "close"):
            ex.close()


def test_processes_executor_patterns():
    """Exercise the fork-pool executor once across a few patterns."""
    graphs = [
        make_graph(DependenceType.STENCIL_1D, graph_index=0),
        make_graph(DependenceType.SPREAD, graph_index=1),
    ]
    r = make_executor("processes", workers=2).run(graphs)
    assert r.total_tasks == sum(g.total_tasks() for g in graphs)


def test_processes_memory_kernel():
    g = make_graph(
        DependenceType.STENCIL_1D,
        timesteps=3,
        kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1, span_bytes=8),
        scratch_bytes_per_task=64,
    )
    make_executor("processes", workers=2).run([g])


@pytest.mark.parametrize("runtime", THREADED_RUNTIMES)
def test_validate_flag_skips_checks(runtime):
    g = make_graph(DependenceType.STENCIL_1D)
    r = make_executor(runtime, workers=2).run([g], validate=False)
    assert not r.validated


def test_graph_index_mismatch_rejected():
    g = make_graph(DependenceType.TRIVIAL, graph_index=1)
    with pytest.raises(ValueError, match="graph_index"):
        make_executor("serial").run([g])


def test_empty_graph_list_rejected():
    with pytest.raises(ValueError):
        make_executor("serial").run([])


class TestRegistry:
    def test_all_names_resolve(self):
        for name in available_runtimes():
            ex = make_executor(name, workers=2)
            assert ex.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            make_executor("slurm")

    def test_expected_runtime_set(self):
        assert set(available_runtimes()) == {
            "serial", "bulk_sync", "p2p", "threads", "processes",
            "shm_processes", "dataflow", "ptg", "actors", "centralized",
            "futures", "asyncio", "cluster_tcp", "cluster_uds",
        }

    def test_kwargs_forwarded(self):
        ex = make_executor("dataflow", workers=2, nb_fields=3)
        assert ex.nb_fields == 3
        ex = make_executor("centralized", workers=2, dispatch_overhead_us=5.0)
        assert ex.dispatch_overhead_us == 5.0

    def test_invalid_worker_counts(self):
        for name in available_runtimes():
            with pytest.raises(ValueError, match="workers must be >= 1"):
                make_executor(name, workers=0)

    @pytest.mark.parametrize("name", available_runtimes())
    def test_unknown_option_rejected(self, name):
        """A misspelt or misplaced option is an error naming the runtime
        and what it accepts, not a silently different experiment."""
        with pytest.raises(ValueError, match=f"{name!r} does not accept") as e:
            make_executor(name, workers=2, wrokers_typo=1)
        assert "accepted options: workers" in str(e.value)
        if name != "dataflow":
            with pytest.raises(ValueError, match="nb_fields"):
                make_executor(name, workers=2, nb_fields=3)
        if name != "centralized":
            with pytest.raises(ValueError, match="dispatch_overhead_us"):
                make_executor(name, workers=2, dispatch_overhead_us=1.0)

    @pytest.mark.parametrize("name", available_runtimes())
    def test_timeout_and_fault_accepted_everywhere(self, name):
        """CLI, suite and serve pass these uniformly; the supervised
        runtimes honour them, the rest have nothing to supervise."""
        ex = make_executor(name, workers=2, timeout=7.5, fault=None)
        assert getattr(ex, "timeout", 7.5) == 7.5
        assert hasattr(ex, "timeout") == (
            ex.isolation in ("processes", "cluster")
        )
