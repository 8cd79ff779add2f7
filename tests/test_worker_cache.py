"""Regression tests for cross-run worker-cache coherence.

The process executors keep their fork-worker pool alive across runs of one
executor instance.  Workers cache graphs by ``graph_index``; historically a
later run reusing an index for a *different* graph silently executed the
stale cached graph (wrong kernel, wrong payload size, wrong dependence
pattern).  These tests pin the fix at both layers:

* worker-side: :func:`repro.runtimes.processes.worker_graph` evicts a
  mismatched cache entry (and its scratch buffer) by equality;
* parent-side: ``_sync_workers`` broadcasts changed graphs to *every*
  worker before any chunk of the new run is dispatched.

Plus direct coverage of the :class:`ForkWorkerPool` primitive the
executors are built on.
"""

from __future__ import annotations

import os

import pytest

from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.runtimes import make_executor
from repro.runtimes._common import capturing_outputs
from repro.runtimes._procpool import ForkWorkerPool
from repro.runtimes.processes import (
    _WORKER_GRAPHS,
    _WORKER_SCRATCH,
    _worker_init,
    worker_graph,
    worker_scratch,
)

PROCESS_RUNTIMES = ["processes", "shm_processes"]


def _graph(dep=DependenceType.STENCIL_1D, nbytes=256, **kw) -> TaskGraph:
    kw.setdefault("timesteps", 5)
    kw.setdefault("max_width", 6)
    return TaskGraph(dependence=dep, output_bytes_per_task=nbytes, **kw)


# ----------------------------------------------------------------------
# Worker-side cache eviction
# ----------------------------------------------------------------------
@pytest.fixture
def clean_worker_caches():
    _WORKER_GRAPHS.clear()
    _WORKER_SCRATCH.clear()
    yield
    _WORKER_GRAPHS.clear()
    _WORKER_SCRATCH.clear()


def test_worker_graph_evicts_stale_entry(clean_worker_caches):
    """A different graph under a reused index replaces the cached one and
    drops its scratch buffer; an equal graph keeps the warm entry."""
    a = _graph(
        kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1),
        scratch_bytes_per_task=1024,
        graph_index=0,
    )
    _worker_init([a])
    assert worker_scratch(a) is not None
    assert 0 in _WORKER_SCRATCH

    # Same index, different graph: the stale entry and scratch must go.
    b = _graph(DependenceType.FFT, nbytes=64, graph_index=0)
    installed = worker_graph(b)
    assert installed is b
    assert _WORKER_GRAPHS[0] == b
    assert 0 not in _WORKER_SCRATCH

    # Equal graph: the cached instance (warm dependence tables) survives.
    b2 = _graph(DependenceType.FFT, nbytes=64, graph_index=0)
    assert worker_graph(b2) is b


def test_worker_scratch_tracks_size(clean_worker_caches):
    g = _graph(scratch_bytes_per_task=512, graph_index=3)
    _worker_init([g])
    first = worker_scratch(g)
    assert first is not None and first.nbytes == 512
    assert worker_scratch(g) is first  # stable across calls

    bigger = _graph(scratch_bytes_per_task=2048, graph_index=3)
    second = worker_scratch(bigger)
    assert second is not None and second.nbytes == 2048


# ----------------------------------------------------------------------
# End-to-end: one executor, back-to-back runs, conflicting graph_index
# ----------------------------------------------------------------------
def _captured_outputs(runtime: str, graphs, executor=None):
    ex = executor or make_executor(runtime, workers=2)
    try:
        with capturing_outputs() as sink:
            ex.run(graphs)
        expected = {
            (g.graph_index, t, i)
            for g in graphs
            for t, i in g.points()
            if g.consumer_count(t, i) > 0
        }
        return {k: sink[k] for k in expected}
    finally:
        if executor is None and hasattr(ex, "close"):
            ex.close()


@pytest.mark.parametrize("runtime", PROCESS_RUNTIMES)
def test_graph_index_reuse_across_runs(runtime):
    """Re-running one executor with a *different* graph under the same
    ``graph_index`` must execute the new graph, not the workers' cached
    one.  Validation stays on, so a stale graph (different pattern,
    payload size, and kernel) fails loudly rather than flakily."""
    ex = make_executor(runtime, workers=2)
    try:
        first = _graph(DependenceType.STENCIL_1D, nbytes=64, graph_index=0)
        ex.run([first])

        second = _graph(
            DependenceType.FFT,
            nbytes=1024,
            graph_index=0,
            kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2),
        )
        got = _captured_outputs(runtime, [second], executor=ex)
        want = _captured_outputs("serial", [_graph(
            DependenceType.FFT,
            nbytes=1024,
            graph_index=0,
            kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2),
        )])
        assert got == want
    finally:
        ex.close()


@pytest.mark.parametrize("runtime", PROCESS_RUNTIMES)
def test_scratch_size_change_across_runs(runtime):
    """A reused index whose scratch requirement changed must not leave
    workers holding the old buffer size."""
    ex = make_executor(runtime, workers=2)
    try:
        ex.run([_graph(
            kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1),
            scratch_bytes_per_task=1024,
            graph_index=0,
        )])
        ex.run([_graph(
            kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1),
            scratch_bytes_per_task=4096,
            graph_index=0,
        )])
    finally:
        ex.close()


@pytest.mark.parametrize("runtime", PROCESS_RUNTIMES)
def test_unchanged_graphs_reuse_pool(runtime):
    """Equal graphs across runs must not re-fork the pool (METG sweeps
    re-run one executor dozens of times)."""
    ex = make_executor(runtime, workers=2)
    try:
        g = _graph(graph_index=0)
        ex.run([g])
        pool = ex._procs
        assert pool is not None
        ex.run([_graph(graph_index=0)])
        assert ex._procs is pool
    finally:
        ex.close()


# ----------------------------------------------------------------------
# ForkWorkerPool primitive
# ----------------------------------------------------------------------
_PROBE_STATE: dict = {}


def _probe_set(key, value):
    _PROBE_STATE[key] = value


def _probe_chunk(arg):
    if arg == "boom":
        raise ValueError("boom")
    return (os.getpid(), _PROBE_STATE.get("k"), arg)


def test_pool_round_robin_and_order():
    pool = ForkWorkerPool(_probe_chunk, 2)
    try:
        results = pool.run_round(list(range(5)))
        assert [r[2] for r in results] == list(range(5))
        assert len({r[0] for r in results}) == 2  # both workers ran chunks
        assert all(pid != os.getpid() for pid, _, _ in results)
    finally:
        pool.close()


def test_pool_broadcast_reaches_every_worker():
    pool = ForkWorkerPool(_probe_chunk, 2)
    try:
        pool.broadcast(_probe_set, "k", 7)
        results = pool.run_round(list(range(4)))
        assert len({r[0] for r in results}) == 2  # chunks landed on both
        assert all(r[1] == 7 for r in results)  # ...and both saw the broadcast
    finally:
        pool.close()


def test_pool_survives_worker_error():
    """An error reply is drained cleanly: the pipes stay in protocol sync
    and the same pool serves the next round."""
    pool = ForkWorkerPool(_probe_chunk, 2)
    try:
        with pytest.raises(ValueError, match="boom") as excinfo:
            pool.run_round([0, "boom", 2])
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("worker" in n for n in notes)  # remote traceback attached
        results = pool.run_round([10, 11])
        assert [r[2] for r in results] == [10, 11]
    finally:
        pool.close()


@pytest.mark.parametrize("runtime", PROCESS_RUNTIMES)
def test_failed_run_drops_pool(runtime, monkeypatch):
    """After a failed run the executor discards its pool so the next run
    re-forks from a coherent state."""
    ex = make_executor(runtime, workers=2)
    try:
        g = _graph(graph_index=0)
        ex.run([g])
        assert ex._procs is not None

        def boom(graphs, validate):
            raise RuntimeError("induced mid-run failure")

        monkeypatch.setattr(ex, "_execute", boom)
        with pytest.raises(RuntimeError, match="induced"):
            ex.run([g])
        assert ex._procs is None  # failure policy: re-fork next time

        monkeypatch.undo()
        ex.run([_graph(graph_index=0)])  # recovers with a fresh pool
        assert ex._procs is not None
    finally:
        ex.close()
