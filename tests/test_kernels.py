"""Unit tests for task kernels (paper §2, Listing 1)."""

import time
import warnings

import numpy as np
import pytest

from repro.core import (
    FLOPS_PER_ITERATION,
    KERNEL_VECTOR_WIDTH,
    DependenceType,
    Kernel,
    KernelType,
    TaskGraph,
)
from repro.core.kernels import (
    KernelTimeModel,
    execute_kernel_busy_wait,
    execute_kernel_compute,
    execute_kernel_compute2,
    execute_kernel_memory,
    saturating,
)


class TestComputeKernel:
    def test_vector_width_matches_listing1(self):
        assert KERNEL_VECTOR_WIDTH == 64

    def test_zero_iterations_initial_value(self):
        a = execute_kernel_compute(0)
        assert a.shape == (64,)
        assert np.all(a == 1.2345)

    def test_one_iteration_exact(self):
        a = execute_kernel_compute(1)
        expected = 1.2345 * 1.2345 + 1.2345
        assert np.allclose(a, expected)

    def test_values_saturate_without_nan(self):
        """The dependent chain overflows to inf (like the C kernel) but must
        never produce NaN, which would poison FLOP accounting."""
        a = execute_kernel_compute(64)
        assert np.all(np.isinf(a))
        assert not np.any(np.isnan(a))

    def test_compute2_equivalent_length(self):
        a = execute_kernel_compute2(3)
        assert a.shape == (64,)

    def test_flops_accounting(self):
        k = Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=10)
        assert k.flops_per_task() == 10 * FLOPS_PER_ITERATION
        assert FLOPS_PER_ITERATION == 2 * 64

    def test_duration_scales_with_iterations(self):
        def t(n):
            start = time.perf_counter()
            for _ in range(5):
                execute_kernel_compute(n)
            return time.perf_counter() - start

        t(64)  # warm up
        assert t(512) > t(32)


class TestSaturating:
    """Overflow is ignored once per row or tile, not once per kernel call,
    and only while the row or tile runs."""

    def test_a_run_of_kernels_ignores_overflow_and_restores_the_state(self):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with saturating():
                assert np.geterr()["over"] == "ignore"
                with saturating():  # nested: no second state, no early reset
                    assert np.all(np.isinf(execute_kernel_compute(64)))
                assert np.geterr()["over"] == "ignore"
                assert np.all(np.isinf(execute_kernel_compute2(64)))
            assert np.geterr() == before
            # Outside one, each call still ignores overflow on its own.
            assert np.all(np.isinf(execute_kernel_compute(64)))
        assert np.geterr() == before

    @pytest.mark.parametrize("kind", [KernelType.COMPUTE_BOUND,
                                      KernelType.COMPUTE_BOUND2])
    def test_a_row_or_a_tile_enters_errstate_once(self, kind, monkeypatch):
        errstate, entered = np.errstate, []
        monkeypatch.setattr(np, "errstate", lambda **kw: (
            entered.append(kw) or errstate(**kw)))
        g = TaskGraph(timesteps=4, max_width=4, output_bytes_per_task=16,
                      dependence=DependenceType.STENCIL_1D,
                      kernel=Kernel(kernel_type=kind, iterations=64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow would raise here
            g.execute_row(0, 0, 4, [], scratch=None, validate=True)
            assert entered == [{"over": "ignore"}]  # a row of four tasks
            g.execute_tile(g.tile_plan(0), np.empty((0, 16), np.uint8),
                           scratch=None, validate=True)
        assert entered == [{"over": "ignore"}] * 2  # and a tile of sixteen
        assert g.tile_plan(0).t1 == 4


class TestMemoryKernel:
    def test_copies_src_to_dst(self):
        scratch = np.zeros(64, dtype=np.uint8)
        scratch[:32] = np.arange(32, dtype=np.uint8)
        execute_kernel_memory(scratch, iterations=1, span_bytes=32)
        assert np.array_equal(scratch[32:], scratch[:32])

    def test_wraps_around_working_set(self):
        scratch = np.zeros(20, dtype=np.uint8)
        scratch[:10] = np.arange(1, 11, dtype=np.uint8)
        # 4 iterations x 6-byte span = 24 bytes > 10-byte half: must wrap
        execute_kernel_memory(scratch, iterations=4, span_bytes=6)
        assert np.array_equal(scratch[10:], scratch[:10])

    def test_constant_working_set(self):
        """Bytes touched per call spans the whole buffer even for few
        iterations (the paper's anti-cache-effect design)."""
        scratch = np.zeros(40, dtype=np.uint8)
        scratch[:20] = 7
        execute_kernel_memory(scratch, iterations=2, span_bytes=10)
        assert np.count_nonzero(scratch[20:]) == 20

    def test_span_larger_than_half_clipped(self):
        scratch = np.zeros(16, dtype=np.uint8)
        scratch[:8] = 3
        execute_kernel_memory(scratch, iterations=1, span_bytes=100)
        assert np.all(scratch[8:] == 3)

    def test_requires_uint8(self):
        with pytest.raises(ValueError, match="uint8"):
            execute_kernel_memory(np.zeros(8, dtype=np.float64), 1, 4)

    def test_zero_sized_buffer_noop(self):
        execute_kernel_memory(np.zeros(0, dtype=np.uint8), 5, 4)
        execute_kernel_memory(np.zeros(1, dtype=np.uint8), 5, 4)

    def test_bytes_accounting(self):
        k = Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=5, span_bytes=100)
        assert k.bytes_per_task() == 2 * 5 * 100


class TestBusyWaitKernel:
    def test_waits_at_least_requested(self):
        start = time.perf_counter()
        execute_kernel_busy_wait(2000)  # 2 ms
        assert time.perf_counter() - start >= 0.002

    def test_zero_wait_returns(self):
        execute_kernel_busy_wait(0)


class TestLoadImbalance:
    def test_multiplier_deterministic(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=100, imbalance=1.0)
        assert k.duration_multiplier(3, 4, seed=1) == k.duration_multiplier(3, 4, seed=1)

    def test_multiplier_range(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=100, imbalance=1.0)
        ms = [k.duration_multiplier(t, i, seed=5) for t in range(20) for i in range(20)]
        assert all(0.0 < m <= 1.0 for m in ms)
        assert min(ms) < 0.2 and max(ms) > 0.8  # actually spreads out

    def test_multiplier_uniformish(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=100, imbalance=1.0)
        ms = [k.duration_multiplier(t, i, seed=5) for t in range(50) for i in range(50)]
        assert abs(np.mean(ms) - 0.5) < 0.05

    def test_imbalance_zero_is_constant(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=100, imbalance=0.0)
        assert k.effective_iterations(7, 9) == 100

    def test_effective_iterations_scaled(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=1000, imbalance=1.0)
        effs = {k.effective_iterations(t, i, seed=2) for t in range(10) for i in range(10)}
        assert len(effs) > 50
        assert all(0 <= e <= 1000 for e in effs)

    def test_partial_imbalance_bounds(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=100, imbalance=0.5)
        ms = [k.duration_multiplier(t, i) for t in range(30) for i in range(30)]
        assert all(0.5 < m <= 1.0 for m in ms)

    def test_flops_accounting_uses_effective(self):
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=100, imbalance=1.0)
        assert k.flops_per_task(1, 2, 3) == k.effective_iterations(1, 2, 3) * FLOPS_PER_ITERATION


class TestKernelExecuteDispatch:
    def test_empty_runs(self):
        Kernel(kernel_type=KernelType.EMPTY).execute(0, 0)

    def test_compute_runs(self):
        Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2).execute(0, 0)

    def test_compute2_runs(self):
        Kernel(kernel_type=KernelType.COMPUTE_BOUND2, iterations=2).execute(0, 0)

    def test_memory_requires_scratch(self):
        k = Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1, span_bytes=4)
        with pytest.raises(ValueError, match="scratch"):
            k.execute(0, 0, scratch=None)

    def test_memory_runs_with_scratch(self):
        k = Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1, span_bytes=4)
        k.execute(0, 0, scratch=np.zeros(16, dtype=np.uint8))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Kernel(iterations=-1)
        with pytest.raises(ValueError):
            Kernel(span_bytes=-1)
        with pytest.raises(ValueError):
            Kernel(imbalance=2.0)
        with pytest.raises(ValueError):
            Kernel(wait_us=-1.0)

    def test_parse_kernel_type(self):
        assert KernelType.parse("COMPUTE_BOUND") is KernelType.COMPUTE_BOUND
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelType.parse("nope")


class TestKernelTimeModel:
    def test_compute_time_linear(self):
        m = KernelTimeModel(seconds_per_iteration=1e-8)
        k = Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=1000)
        assert m.task_seconds(k) == pytest.approx(1e-5)

    def test_empty_time_is_base(self):
        m = KernelTimeModel(base_seconds=2e-9)
        assert m.task_seconds(Kernel()) == pytest.approx(2e-9)

    def test_busy_wait_time(self):
        m = KernelTimeModel()
        k = Kernel(kernel_type=KernelType.BUSY_WAIT, wait_us=50)
        assert m.task_seconds(k) == pytest.approx(50e-6)

    def test_memory_time_from_bandwidth(self):
        m = KernelTimeModel(bytes_per_second=1e9)
        k = Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=10, span_bytes=500)
        assert m.task_seconds(k) == pytest.approx(10 * 2 * 500 / 1e9)

    def test_imbalance_time_varies(self):
        m = KernelTimeModel(seconds_per_iteration=1e-8)
        k = Kernel(kernel_type=KernelType.LOAD_IMBALANCE, iterations=10000, imbalance=1.0)
        times = {m.task_seconds(k, t, i, seed=3) for t in range(10) for i in range(10)}
        assert len(times) > 50


class TestIOKernel:
    def test_runs_and_cleans_up(self, tmp_path, monkeypatch):
        import glob
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        from repro.core import execute_kernel_io

        execute_kernel_io(3, 4096)
        assert glob.glob(str(tmp_path / "taskbench-io-*")) == []

    def test_zero_iterations_noop(self):
        from repro.core import execute_kernel_io

        execute_kernel_io(0, 4096)
        execute_kernel_io(3, 0)

    def test_kernel_dispatch(self):
        Kernel(kernel_type=KernelType.IO_BOUND, iterations=1, span_bytes=64).execute(0, 0)

    def test_bytes_accounting(self):
        k = Kernel(kernel_type=KernelType.IO_BOUND, iterations=5, span_bytes=100)
        assert k.bytes_per_task() == 1000

    def test_time_model_uses_io_bandwidth(self):
        m = KernelTimeModel(io_bytes_per_second=1e6)
        k = Kernel(kernel_type=KernelType.IO_BOUND, iterations=10, span_bytes=500)
        import pytest as _pytest

        assert m.task_seconds(k) == _pytest.approx(10 * 2 * 500 / 1e6)

    def test_parse(self):
        assert KernelType.parse("io_bound") is KernelType.IO_BOUND

    def test_executor_end_to_end(self):
        from repro.core import DependenceType, TaskGraph
        from repro.runtimes import make_executor

        g = TaskGraph(
            timesteps=3,
            max_width=2,
            dependence=DependenceType.STENCIL_1D,
            kernel=Kernel(kernel_type=KernelType.IO_BOUND, iterations=1,
                          span_bytes=256),
        )
        r = make_executor("serial").run([g])
        assert r.total_bytes == 6 * 2 * 256
