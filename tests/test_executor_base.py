"""Unit tests for the Executor base class contract."""

import pytest

from repro.core import DependenceType, Executor, Kernel, KernelType, TaskGraph


class CountingExecutor(Executor):
    """Minimal conforming executor for contract tests."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    @property
    def cores(self):
        return 2

    def execute_graphs(self, graphs, *, validate=True):
        from repro.runtimes._common import OutputStore, ScratchPool, run_point, task_keys

        self.calls += 1
        by_index = {g.graph_index: g for g in graphs}
        store, scratch = OutputStore(), ScratchPool(graphs)
        for gi, t, i in task_keys(graphs):
            run_point(store, scratch, by_index[gi], t, i, validate=validate)


def graph(**kw):
    base = dict(
        timesteps=4, max_width=3, dependence=DependenceType.STENCIL_1D,
        kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2),
    )
    base.update(kw)
    return TaskGraph(**base)


class TestRunContract:
    def test_run_invokes_execute_graphs_once(self):
        ex = CountingExecutor()
        ex.run([graph()])
        assert ex.calls == 1

    def test_result_carries_executor_name_and_cores(self):
        r = CountingExecutor().run([graph()])
        assert r.executor == "counting"
        assert r.cores == 2

    def test_accounting_from_graphs(self):
        g = graph()
        r = CountingExecutor().run([g])
        assert r.total_tasks == g.total_tasks()
        assert r.total_flops == g.total_flops()

    def test_graph_index_positions_enforced(self):
        gs = [graph(graph_index=0), graph(graph_index=0)]
        with pytest.raises(ValueError, match="graph_index"):
            CountingExecutor().run(gs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CountingExecutor().run([])

    def test_validate_flag_recorded(self):
        r = CountingExecutor().run([graph()], validate=False)
        assert r.validated is False

    def test_repr(self):
        assert "counting" in repr(CountingExecutor())

    def test_elapsed_positive(self):
        r = CountingExecutor().run([graph()])
        assert r.elapsed_seconds > 0

    def test_abstract_base_unusable(self):
        with pytest.raises(TypeError):
            Executor()

    def test_close_is_part_of_the_contract(self):
        """Every executor can be closed, twice, and used as a context
        manager — also one that holds nothing to release."""
        from repro.runtimes import available_runtimes, make_executor

        ex = CountingExecutor()
        with ex as entered:
            assert entered is ex and ex.run([graph()]).validated
        ex.close()
        for name in available_runtimes():
            with make_executor(name, workers=2) as ex:
                pass  # never ran: nothing was launched, nothing may raise
            ex.close()
