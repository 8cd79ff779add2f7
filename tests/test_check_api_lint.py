"""Tests for the executor-contract lint (repro.check.api_lint)."""

import textwrap

from repro.check import lint_executor_api, lint_runtime_sources
from repro.core.diagnostics import findings


def lint(source):
    return lint_executor_api(textwrap.dedent(source), "fake.py")


def codes(diags):
    return {d.code for d in diags}


CLEAN = """
    from repro.core.executor_base import Executor

    class GoodExecutor(Executor):
        name = "good"
        cores = 1

        def execute_graphs(self, graphs, *, validate=True):
            for g in graphs:
                pass
"""


def test_clean_executor_passes():
    assert lint(CLEAN) == []


def test_missing_members_reported():
    diags = lint("""
        class BareExecutor(Executor):
            def execute_graphs(self, graphs, *, validate=True):
                pass
    """)
    assert codes(diags) == {"api-missing-member"}
    missing = {d.message.split("'")[1] for d in diags}
    assert missing == {"name"}  # cores defaults to workers in the base class


def test_cores_as_property_counts():
    diags = lint("""
        class PropExecutor(Executor):
            name = "prop"

            @property
            def cores(self):
                return 1

            def execute_graphs(self, graphs, *, validate=True):
                pass
    """)
    assert diags == []


def test_kernel_bypass_function_reported():
    diags = lint("""
        class SneakyExecutor(Executor):
            name = "sneaky"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                execute_kernel_compute(100)
    """)
    assert "api-kernel-bypass" in codes(diags)


def test_kernel_bypass_method_reported():
    diags = lint("""
        class SneakyExecutor(Executor):
            name = "sneaky"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                for g in graphs:
                    g.kernel.execute(t=0, i=0)
    """)
    assert "api-kernel-bypass" in codes(diags)


def test_kernel_bypass_names_every_entry_point():
    diags = [d for d in lint("""
        class SneakyExecutor(Executor):
            name = "sneaky"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                graphs[0].kernel.execute(t=0, i=0)
                execute_kernel_compute(100)
    """) if d.code == "api-kernel-bypass"]
    assert len(diags) == 2
    for d in diags:
        assert "run_task/run_point/execute_point/execute_row" in d.message
        assert "_common.run_task" in d.hint
        assert "graph.execute_row" in d.hint


def test_execute_row_is_an_entry_point_not_a_bypass():
    diags = lint("""
        class RowExecutor(Executor):
            name = "row"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                for g in graphs:
                    plan = g.row_plan(0)
                    g.execute_row(0, plan.off, plan.off + plan.width, [],
                                  scratch=None, validate=validate)
    """)
    assert diags == []


def test_buggy_executor_fixture_kernel_bypass_flagged():
    """``tests/buggy_executor.py`` publishes the right bytes without
    validating anything; the lint flags its one direct kernel call."""
    import inspect

    from tests import buggy_executor

    source = inspect.getsource(buggy_executor)
    bypass = [d for d in lint_executor_api(source, "buggy_executor.py")
              if d.code == "api-kernel-bypass"]
    assert len(bypass) == 1
    line = int(bypass[0].location.rsplit(":", 1)[1])
    assert "g.kernel.execute(t, i, seed=g.seed)" in source.splitlines()[line - 1]

    from repro.core import DependenceType, TaskGraph
    from repro.runtimes import make_executor
    from repro.runtimes._common import capturing_outputs

    g = TaskGraph(timesteps=5, max_width=4,
                  dependence=DependenceType.STENCIL_1D)
    with capturing_outputs() as got:
        buggy_executor.KernelBypassExecutor().run([g])
    with capturing_outputs() as want:
        make_executor("serial").run([g])
    assert got == want  # bytes alone cannot tell the two apart


def test_unrelated_execute_call_not_flagged():
    diags = lint("""
        class FineExecutor(Executor):
            name = "fine"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                pool.execute(job)
    """)
    assert "api-kernel-bypass" not in codes(diags)


def test_timing_call_reported():
    diags = lint("""
        import time

        class TimedExecutor(Executor):
            name = "timed"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                t0 = time.perf_counter()
    """)
    assert "api-timing" in codes(diags)


def test_timing_waiver_honored():
    diags = lint("""
        import time

        class OverheadExecutor(Executor):
            name = "overhead"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                t0 = time.perf_counter()  # check: allow[timing]
    """)
    assert "api-timing" not in codes(diags)


def test_timing_outside_executor_not_flagged():
    diags = lint("""
        import time

        def helper():
            return time.perf_counter()
    """)
    assert diags == []


def test_unlocked_shared_mutation_reported():
    diags = lint("""
        class RacyExecutor(Executor):
            name = "racy"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                ready = []

                def worker():
                    ready.append(1)
    """)
    bad = [d for d in diags if d.code == "api-unlocked-mutation"]
    assert bad and "'ready'" in bad[0].message


def test_locked_shared_mutation_passes():
    diags = lint("""
        import threading

        class SafeExecutor(Executor):
            name = "safe"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                lock = threading.Lock()
                ready = []

                def worker():
                    with lock:
                        ready.append(1)
    """)
    assert "api-unlocked-mutation" not in codes(diags)


def test_local_container_mutation_passes():
    diags = lint("""
        class LocalExecutor(Executor):
            name = "local"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                def worker():
                    mine = []
                    mine.append(1)
    """)
    assert "api-unlocked-mutation" not in codes(diags)


def test_shared_mutation_waiver_honored():
    diags = lint("""
        class WaivedExecutor(Executor):
            name = "waived"
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                ready = []

                def worker():
                    ready.append(1)  # check: allow[shared-mutation]
    """)
    assert "api-unlocked-mutation" not in codes(diags)


def test_private_base_is_abstract():
    """A ``_``-prefixed executor base need not be complete; its public
    subclass inherits the base's members toward the contract."""
    diags = lint("""
        class _SharedMachinery(Executor):
            @property
            def cores(self):
                return 1

            def execute_graphs(self, graphs, *, validate=True):
                pass

        class RealExecutor(_SharedMachinery):
            name = "real"
    """)
    assert "api-missing-member" not in codes(diags)


def test_incomplete_subclass_of_private_base_reported():
    diags = lint("""
        class _SharedMachinery(Executor):
            def execute_graphs(self, graphs, *, validate=True):
                pass

        class RealExecutor(_SharedMachinery):
            cores = 1
    """)
    bad = [d for d in diags if d.code == "api-missing-member"]
    assert len(bad) == 1 and "'name'" in bad[0].message
    assert "RealExecutor" in bad[0].message


def test_transitive_subclass_is_linted():
    """Contract rules reach executors that subclass another executor in
    the module, not just direct ``Executor`` subclasses."""
    diags = lint("""
        import time

        class _Base(Executor):
            cores = 1

            def execute_graphs(self, graphs, *, validate=True):
                pass

        class Timed(_Base):
            name = "timed"

            def helper(self):
                return time.perf_counter()
    """)
    assert "api-timing" in codes(diags)


def test_raw_shm_reported():
    diags = lint("""
        from multiprocessing import shared_memory

        def make_segment():
            return shared_memory.SharedMemory(create=True, size=4096)
    """)
    assert "api-raw-shm" in codes(diags)


def test_raw_shm_waiver_honored():
    diags = lint("""
        from multiprocessing import shared_memory

        def make_segment():
            return shared_memory.SharedMemory(create=True, size=4096)  # check: allow[raw-shm]
    """)
    assert "api-raw-shm" not in codes(diags)


def test_ref_leak_reported():
    diags = lint("""
        def run(pool):
            ref = pool.acquire(4096, refs=2)
            return ref
    """)
    bad = [d for d in diags if d.code == "api-ref-leak"]
    assert len(bad) == 1


def test_ref_leak_balanced_passes():
    diags = lint("""
        def run(pool):
            refs = pool.acquire_batch(4096, [1, 1])
            pool.decref_batch(refs)
    """)
    assert "api-ref-leak" not in codes(diags)


def test_ref_leak_close_counts_as_release():
    diags = lint("""
        def run(pool):
            ref = pool.acquire(4096)
            pool.close()
    """)
    assert "api-ref-leak" not in codes(diags)


def test_lock_acquire_not_a_pool_acquisition():
    diags = lint("""
        def run(lock):
            lock.acquire()
    """)
    assert "api-ref-leak" not in codes(diags)


def test_syntax_error_reported():
    diags = lint_executor_api("def broken(:\n", "fake.py")
    assert codes(diags) == {"api-syntax"}
    assert diags[0].location.startswith("fake.py:")


def test_locations_carry_file_and_line():
    diags = lint("""
        class BareExecutor(Executor):
            def execute_graphs(self, graphs, *, validate=True):
                pass
    """)
    assert all(d.location.startswith("fake.py:") for d in diags)


def test_repo_runtimes_pass_clean():
    """The CI gate: this repo's own executors honor their contract."""
    assert findings(lint_runtime_sources()) == []
