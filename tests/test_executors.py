"""Integration tests: every executor x every dependence pattern x validation.

These are the repository's end-to-end correctness net: the core library
validates every input of every task, so a passing run proves the executor
scheduled and routed every buffer exactly per the graph specification
(paper §2: "every execution of Task Bench, if it completes successfully, is
correct").
"""

import functools
import threading

import numpy as np
import pytest

from repro.core import (
    DependenceType,
    Kernel,
    KernelType,
    TaskGraph,
    ValidationError,
)
from repro.core import fastpath, validation
from repro.core.bufpool import as_array
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

    The corruption goes in at ``execute_point``, ``execute_row`` and the
    output block ``execute_tile`` copies, the three entry points every
    executor runs tasks through, so it reaches the task-by-task executors,
    the row-block ones (fork workers) and the tiled one (serial) alike; fork
    pools start inside the run and inherit the patch."""
    real_point, real_row = TaskGraph.execute_point, TaskGraph.execute_row
    real_block = validation.tile_block

    def corrupted(graph, t, lo, hi, outputs):
        if t == 3 and lo <= 2 < hi and graph.output_bytes_per_task:
            # A fresh array, a row of a block or a pooled slot's handle alike.
            as_array(outputs[2 - lo])[0] ^= 0xFF
        return outputs

    def point(graph, t, i, *args, **kwargs):
        out = real_point(graph, t, i, *args, **kwargs)
        return corrupted(graph, t, i, i + 1, [out])[0]

    def row(graph, t, lo, hi, *args, **kwargs):
        out = real_row(graph, t, lo, hi, *args, **kwargs)
        return corrupted(graph, t, lo, hi, out)

    def block(graph, tile):
        out = real_block(graph, tile).copy()
        for t, lo, hi, a, b in tile.rows():  # (a, b) counts the row before
            corrupted(graph, t, lo, hi, out[a - tile.at[1]:b - tile.at[1]])
        return out

    monkeypatch.setattr(TaskGraph, "execute_point", point)
    monkeypatch.setattr(TaskGraph, "execute_row", row)
    monkeypatch.setattr(validation, "tile_block", block)
    # Fresh: a memoised tile block is copied without asking tile_block.
    monkeypatch.setattr(validation, "_memo", fastpath.Bounded(1 << 21))
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


_ROW_PLAN = DependenceTable.row_plan


def _tamper_with_consumers(monkeypatch, bad_t, by, real=_ROW_PLAN):
    """Row ``bad_t``'s plan claims ``by`` more consumers of column 1 — to
    tables made from here on: a tile compiled from it keeps what it claims."""

    class Tampered:
        def __init__(self, plan):
            self._plan = plan
            self.consumers = list(plan.consumers)
            self.consumers[1] += by

        def __getattr__(self, name):
            return getattr(self._plan, name)

    monkeypatch.setattr(
        DependenceTable, "row_plan",
        lambda self, t: Tampered(real(self, t)) if t == bad_t else real(self, t),
    )
    monkeypatch.setattr(fastpath, "_table_cached", functools.lru_cache(
        maxsize=256)(fastpath._table_cached.__wrapped__))


def test_serial_detects_undrained_row(monkeypatch):
    """The serial executor keeps no reference-counted store: what
    ``OutputStore.assert_drained`` guaranteed is checked on the row plans.
    A plan whose reads disagree with the consumer counts the previous row
    was published with — an output leaked, or read once too often — must
    fail the run, and so must a last row that still promises readers."""
    for bad_t in (2, 7):  # a middle row; the last row
        _tamper_with_consumers(monkeypatch, bad_t, +1)
        g = make_graph(DependenceType.STENCIL_1D)
        with pytest.raises(RuntimeError, match="never consumed"):
            make_executor("serial").execute_graphs([g])


def test_processes_detects_undrained_row_in_serials_words(monkeypatch):
    """``processes`` keeps rows as ``serial`` does, and no store either: an
    undrained row (one read promised too many), an over-read one (one too
    few) and a last row still owed a read fail it with ``serial``'s text."""
    g = make_graph(DependenceType.STENCIL_1D)
    for bad_t, by in ((2, +1), (2, -1), (7, +1)):
        _tamper_with_consumers(monkeypatch, bad_t, by)
        said = []
        for runtime in ("serial", "processes"):
            with make_executor(runtime, workers=2) as ex:
                with pytest.raises(RuntimeError, match="never consumed") as exc:
                    ex.execute_graphs([g])
            said.append(str(exc.value))
        assert said[0] == said[1]
        assert f"outputs of timestep {bad_t} were published" in said[0]


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


def _pipe_traffic(monkeypatch):
    """Spy on the fork pool's pipes: every chunk's inputs as the parent
    sends them and every chunk's outputs as they come back."""
    from repro.runtimes._procpool import ForkWorkerPool

    sent, received = [], []
    send, recv = ForkWorkerPool._send, ForkWorkerPool._recv

    def spy_send(self, targets, messages):
        for w in targets:
            if isinstance(messages[w], list):  # a round's chunks, not a broadcast
                sent.extend(chunk[4] for chunk in messages[w])
        return send(self, targets, messages)

    def spy_recv(self, w, deadline):
        reply = recv(self, w, deadline)
        if reply[0] == "ok" and isinstance(reply[1], list):
            received.extend(reply[1])
        return reply

    monkeypatch.setattr(ForkWorkerPool, "_send", spy_send)
    monkeypatch.setattr(ForkWorkerPool, "_recv", spy_recv)
    return sent, received


#: Heights 9 / 3 / 6 / 4 / 5, two windows that change width (tree, fft), a
#: row of 64 KiB + 8 B that stays a list, and one three wide, whose chunks
#: at two workers are a block of two and a list of one.
ROW_GRAPHS = [
    dict(pattern=DependenceType.STENCIL_1D, timesteps=9),
    dict(pattern=DependenceType.TREE, timesteps=3, max_width=8),
    dict(pattern=DependenceType.FFT, timesteps=6, max_width=8,
         output_bytes_per_task=40),
    dict(pattern=DependenceType.STENCIL_1D, timesteps=4, max_width=8,
         output_bytes_per_task=validation._BULK_BYTES // 8 + 1),
    dict(pattern=DependenceType.NEAREST, timesteps=5, max_width=3),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_processes_rows_are_bytewise_serials(workers, monkeypatch):
    """Under the conformance capture ``processes`` publishes what ``serial``
    does, on graphs of different heights and on rows whose width changes;
    a chunk crosses the pipe as one array each way wherever ``execute_row``
    makes one, and the data plane counts every payload it always did."""
    graphs = [make_graph(graph_index=n, **kw) for n, kw in enumerate(ROW_GRAPHS)]
    with capturing_outputs() as want:
        make_executor("serial").run(graphs)
    sent, received = _pipe_traffic(monkeypatch)
    with make_executor("processes", workers=workers) as ex:
        with capturing_outputs() as got:
            r = ex.run(graphs)
    assert got == want
    chunks = sum(min(workers, g.width_at_timestep(t))
                 for g in graphs for t in range(g.timesteps))
    assert len(sent) == len(received) == chunks
    # An output block: several tasks, at most _BULK_BYTES.  An input block:
    # a gather from a row that came back (or was joined) as one.
    blocks = [x for x in received if type(x) is np.ndarray]
    assert blocks and all(x.ndim == 2 and len(x) > 1 for x in blocks)
    assert all(type(x) is np.ndarray or len(x) == 1
               or len(x) * x[0].nbytes > validation._BULK_BYTES
               for x in received)
    assert all(type(x) in (list, np.ndarray) for x in sent)
    assert sum(type(x) is np.ndarray for x in sent) >= len(blocks) // 2
    payloads = sum(g.total_tasks() + g.total_dependencies() for g in graphs)
    assert r.data_plane.payloads_copied == payloads
    assert sum(map(len, sent)) + sum(map(len, received)) == payloads
    assert r.data_plane.bytes_copied == sum(
        (g.total_tasks() + g.total_dependencies()) * g.output_bytes_per_task
        for g in graphs)


def test_processes_ships_one_array_per_chunk_each_way(monkeypatch):
    """The ``fine_stencil`` shape at one and two workers: besides the first
    row's empty gathers, everything on the pipe is one array per chunk."""
    g = make_graph(DependenceType.STENCIL_1D, timesteps=12, max_width=8,
                   kernel=Kernel(kernel_type=KernelType.EMPTY))
    sent, received = _pipe_traffic(monkeypatch)
    for workers in (1, 2):
        del sent[:], received[:]
        with make_executor("processes", workers=workers) as ex:
            r = ex.run([g])
        assert len(sent) == len(received) == 12 * workers
        assert sent[:workers] == [[]] * workers
        assert all(type(x) is np.ndarray and x.shape[1:] == (16,)
                   and x.flags.c_contiguous for x in sent[workers:] + received)
        assert r.data_plane.payloads_copied == (
            g.total_tasks() + g.total_dependencies())
        assert r.data_plane.bytes_copied == 16 * r.data_plane.payloads_copied


def test_processes_rejects_a_chunk_short_of_outputs(monkeypatch):
    """A worker answering with fewer outputs than its block has tasks fails
    the round it answers in — the last row too, which nothing reads."""
    from repro.runtimes import processes

    real = processes._worker_chunk
    for bad_t in (3, 7):
        monkeypatch.setattr(
            processes.ProcessPoolExecutor, "chunk_fn", staticmethod(
                lambda args, bad_t=bad_t:
                    real(args)[:-1] if args[1] == bad_t else real(args)))
        g = make_graph(DependenceType.STENCIL_1D)
        with make_executor("processes", workers=2) as ex:
            with pytest.raises(RuntimeError, match=(
                    rf"row {bad_t} block \[0, 3\) retired with 2 outputs "
                    "for 3 tasks")):
                ex.run([g])


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
