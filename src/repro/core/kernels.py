"""Task kernels: the work executed by each task (paper §2).

The original core library provides hand-written AVX2 kernels; this
reproduction provides NumPy equivalents with the same *semantics*:

* ``compute_bound``: a tight dependent FMA loop ``A = A * A + A`` over a
  64-wide vector, repeated ``iterations`` times.  Duration is proportional to
  ``iterations`` and the achieved FLOP rate is constant, which is all the
  METG methodology requires (absolute peak is calibrated empirically, just as
  the paper calibrates Cori's 1.26 TFLOP/s).
* ``memory_bound``: sequential copies over a scratch buffer.  The *working
  set* (the scratch buffer) stays constant as ``iterations`` shrinks, so
  small problem sizes do not enjoy spurious cache speedups (paper §2).
* ``busy_wait``: spins on the clock; useful for calibration-independent task
  durations.
* ``load_imbalance``: the compute kernel with its duration multiplied by a
  deterministic pseudo-random value in ``[0, 1)`` keyed on
  ``(seed, timestep, column)``, so all runtime systems observe identical
  per-task durations (paper §5.7).
* ``io_bound``: sequential writes and read-back against a temporary file,
  ``span_bytes`` per iteration (the official core's IO kernel).
* ``empty``: no work; measures pure runtime overhead.
"""

from __future__ import annotations

import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dependence import _splitmix64
from .types import KernelType

#: Width of the compute kernel's vector, matching the original AVX2 kernel
#: (Listing 1 of the paper uses ``double A[64]``).
KERNEL_VECTOR_WIDTH = 64

#: FLOPs per compute-kernel iteration: one multiply + one add per element.
FLOPS_PER_ITERATION = 2 * KERNEL_VECTOR_WIDTH


@dataclass(frozen=True)
class Kernel:
    """Configuration of the work performed by each task (Table 1).

    Attributes
    ----------
    kernel_type:
        Which kernel to run.
    iterations:
        Task duration dial / problem size (compute and memory kernels).
    span_bytes:
        Bytes read + written per iteration of the memory kernel.
    imbalance:
        Degree of load imbalance in ``[0, 1]`` for the load-imbalance
        kernel: the per-task multiplier is ``1 - imbalance * u`` with
        ``u ~ U[0, 1)``, so ``imbalance=1`` reproduces the paper's
        "duration multiplied by a uniform random variable between [0, 1)".
    wait_us:
        Busy-wait duration in microseconds (busy-wait kernel only).
    persistent:
        Imbalance persistence.  ``False`` (the paper's §5.7 setup) draws a
        fresh multiplier per (timestep, column): "timestep t is
        uncorrelated with timestep t+1".  ``True`` draws one multiplier
        per *column*, so the same tasks are slow every timestep — the
        persistent-imbalance regime the paper leaves to future work, where
        asynchrony alone no longer mitigates and migration/stealing is
        required.
    samples:
        Number of distinct pseudo-random streams for imbalance draws;
        kept for CLI compatibility, unused otherwise.
    """

    kernel_type: KernelType = KernelType.EMPTY
    iterations: int = 0
    span_bytes: int = 0
    imbalance: float = 0.0
    wait_us: float = 0.0
    persistent: bool = False
    samples: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.span_bytes < 0:
            raise ValueError(f"span_bytes must be >= 0, got {self.span_bytes}")
        if not 0.0 <= self.imbalance <= 1.0:
            raise ValueError(f"imbalance must be in [0, 1], got {self.imbalance}")
        if self.wait_us < 0:
            raise ValueError(f"wait_us must be >= 0, got {self.wait_us}")

    # ------------------------------------------------------------------
    # Work accounting (used for FLOP/s and B/s efficiency metrics)
    # ------------------------------------------------------------------
    def flops_per_task(self, t: int = 0, i: int = 0, seed: int = 0) -> int:
        """Useful floating-point operations performed by task ``(t, i)``."""
        if self.kernel_type in (KernelType.COMPUTE_BOUND, KernelType.COMPUTE_BOUND2):
            return self.iterations * FLOPS_PER_ITERATION
        if self.kernel_type is KernelType.LOAD_IMBALANCE:
            return self.effective_iterations(t, i, seed) * FLOPS_PER_ITERATION
        return 0

    def bytes_per_task(self) -> int:
        """Bytes moved (read + write) by the memory or IO kernel per task."""
        if self.kernel_type in (KernelType.MEMORY_BOUND, KernelType.IO_BOUND):
            return 2 * self.iterations * self.span_bytes
        return 0

    def effective_iterations(self, t: int, i: int, seed: int = 0) -> int:
        """Iterations actually executed by task ``(t, i)``.

        Equal to ``iterations`` for all kernels except ``load_imbalance``,
        where the count is scaled by the deterministic multiplier.
        """
        if self.kernel_type is not KernelType.LOAD_IMBALANCE:
            return self.iterations
        return int(self.iterations * self.duration_multiplier(t, i, seed))

    def duration_multiplier(self, t: int, i: int, seed: int = 0) -> float:
        """Deterministic per-task duration multiplier in ``(0, 1]``.

        Identical for every runtime system given the same seed, mirroring the
        paper's consistent-seed PRNG (§5.7).
        """
        if self.kernel_type is not KernelType.LOAD_IMBALANCE or self.imbalance == 0.0:
            return 1.0
        h = _splitmix64(seed ^ 0xC0FFEE)
        if not self.persistent:
            h = _splitmix64(h ^ t)
        h = _splitmix64(h ^ i)
        u = h / 2.0**64
        return 1.0 - self.imbalance * u

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        t: int = 0,
        i: int = 0,
        scratch: np.ndarray | None = None,
        seed: int = 0,
    ) -> None:
        """Run the kernel for task ``(t, i)``.

        ``scratch`` must be a ``uint8`` array of the graph's
        ``scratch_bytes_per_task`` for the memory-bound kernel; other kernels
        ignore it.
        """
        kt = self.kernel_type
        if kt is KernelType.EMPTY:
            return
        if kt is KernelType.BUSY_WAIT:
            execute_kernel_busy_wait(self.wait_us)
            return
        if kt is KernelType.COMPUTE_BOUND:
            execute_kernel_compute(self.iterations)
            return
        if kt is KernelType.COMPUTE_BOUND2:
            execute_kernel_compute2(self.iterations)
            return
        if kt is KernelType.MEMORY_BOUND:
            if scratch is None:
                raise ValueError("memory_bound kernel requires a scratch buffer")
            execute_kernel_memory(scratch, self.iterations, self.span_bytes)
            return
        if kt is KernelType.LOAD_IMBALANCE:
            execute_kernel_compute(self.effective_iterations(t, i, seed))
            return
        if kt is KernelType.IO_BOUND:
            execute_kernel_io(self.iterations, self.span_bytes)
            return
        raise AssertionError(f"unhandled kernel type {kt}")  # pragma: no cover


class _PerThread(threading.local):
    """What the compute kernels keep per thread.

    ``bufs``: reusable accumulator/temporary vectors.  The kernels
    historically allocated three fresh 64-wide arrays *per iteration*
    (``a * a`` and ``+ a`` each allocate, plus the initial ``np.full``),
    which showed up as per-task allocator traffic on the empty-ish hot path;
    the semantics only need the values, so each thread keeps one set of
    buffers and the loop runs through ``out=`` ufuncs.

    ``saturating``: whether :func:`saturating` already ignores overflow on
    this thread.  Class attributes are the defaults, so a thread's first
    read is a plain lookup, not a caught ``AttributeError``."""

    bufs = None
    saturating = False


_kernel_tls = _PerThread()


def _kernel_buffers() -> tuple:
    bufs = _kernel_tls.bufs
    if bufs is None:
        bufs = (
            np.empty(KERNEL_VECTOR_WIDTH),
            np.empty(KERNEL_VECTOR_WIDTH),
            np.empty(KERNEL_VECTOR_WIDTH),
            np.empty(KERNEL_VECTOR_WIDTH),
        )
        _kernel_tls.bufs = bufs
    return bufs


@contextmanager
def saturating() -> Iterator[None]:
    """Ignore floating-point overflow on this thread for a run of kernel
    calls — a row, a tile — with one ``np.errstate(over="ignore")``: the
    compute kernels saturate to inf by design, and entering it on every
    call was most of a short kernel's fixed cost.  The kernels called
    inside skip their own; a nested use does nothing more."""
    if _kernel_tls.saturating:
        yield
        return
    with np.errstate(over="ignore"):
        _kernel_tls.saturating = True
        try:
            yield
        finally:
            _kernel_tls.saturating = False


_NOTHING = nullcontext()


def _overflow_ignored():
    """What a compute kernel enters around its loop: nothing inside
    :func:`saturating`, else an ``np.errstate(over="ignore")`` of its own."""
    return _NOTHING if _kernel_tls.saturating else np.errstate(over="ignore")


def execute_kernel_compute(iterations: int) -> np.ndarray:
    """Dependent FMA loop over a 64-wide vector (Listing 1 of the paper).

    Each iteration reads the previous iteration's result, so the loop cannot
    be collapsed; duration is strictly proportional to ``iterations``.

    Returns the live per-thread accumulator (valid until this thread's next
    kernel call) — callers wanting to keep the values must copy.
    """
    a, _, tmp, _ = _kernel_buffers()
    a[:] = 1.2345
    with _overflow_ignored():  # values saturate to inf by design
        for _ in range(iterations):
            np.multiply(a, a, out=tmp)
            np.add(tmp, a, out=a)
    return a


def execute_kernel_compute2(iterations: int) -> np.ndarray:
    """Variant with two independent accumulator chains (official
    COMPUTE_BOUND2), exposing a little instruction-level parallelism.

    Returns the live per-thread result buffer (valid until this thread's
    next kernel call) — callers wanting to keep the values must copy.
    """
    a, b, tmp, out = _kernel_buffers()
    a[:] = 1.2345
    b[:] = 1.0101
    with _overflow_ignored():
        for _ in range(iterations // 2):
            np.multiply(a, a, out=tmp)
            np.add(tmp, a, out=a)
            np.multiply(b, b, out=tmp)
            np.add(tmp, b, out=b)
        if iterations % 2:
            np.multiply(a, a, out=tmp)
            np.add(tmp, a, out=a)
    np.add(a, b, out=out)
    return out


def execute_kernel_memory(scratch: np.ndarray, iterations: int, span_bytes: int) -> None:
    """Sequential copy sweep over ``scratch`` with constant working set.

    The buffer is split into two halves; each iteration copies ``span_bytes``
    from a rotating offset of one half to the other.  Offsets advance so the
    sweep touches the whole buffer regardless of ``iterations``-per-call,
    matching the original kernel's cache-effect avoidance.
    """
    if scratch.dtype != np.uint8:
        raise ValueError("scratch buffer must be uint8")
    half = scratch.nbytes // 2
    if half == 0:
        return
    span = min(span_bytes, half)
    if span == 0:
        return
    src = scratch[:half]
    dst = scratch[half : 2 * half]
    offset = 0
    for _ in range(iterations):
        end = offset + span
        if end <= half:
            dst[offset:end] = src[offset:end]
        else:  # wrap around
            first = half - offset
            dst[offset:] = src[offset:]
            dst[: span - first] = src[: span - first]
        offset = end % half


def execute_kernel_io(iterations: int, span_bytes: int) -> None:
    """Sequential file writes and read-back, ``span_bytes`` per iteration.

    Uses an anonymous temporary file (unlinked immediately) so no state
    leaks between tasks or survives a crash.  Durability (fsync) is *not*
    requested — the official kernel measures the buffered-IO path.
    """
    if iterations <= 0 or span_bytes <= 0:
        return
    payload = b"\xa5" * span_bytes
    with tempfile.TemporaryFile(prefix="taskbench-io-") as f:
        for _ in range(iterations):
            f.write(payload)
        f.flush()
        f.seek(0)
        while f.read(1 << 20):
            pass


def execute_kernel_busy_wait(wait_us: float) -> None:
    """Spin until ``wait_us`` microseconds have elapsed."""
    deadline = time.perf_counter() + wait_us * 1e-6
    while time.perf_counter() < deadline:
        pass


@dataclass
class KernelTimeModel:
    """Analytic duration model for kernels, used by the simulator substrate.

    ``seconds_per_iteration`` is the calibrated cost of one compute-kernel
    iteration on the modeled core; ``bytes_per_second`` the modeled memory
    bandwidth available to one task.
    """

    seconds_per_iteration: float = 1.0 / (39.4e9 / FLOPS_PER_ITERATION)
    bytes_per_second: float = 5.0e9
    io_bytes_per_second: float = 1.0e9
    base_seconds: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    def task_seconds(self, kernel: Kernel, t: int = 0, i: int = 0, seed: int = 0) -> float:
        """Modeled duration of task ``(t, i)`` running ``kernel``."""
        kt = kernel.kernel_type
        if kt is KernelType.EMPTY:
            return self.base_seconds
        if kt is KernelType.BUSY_WAIT:
            return self.base_seconds + kernel.wait_us * 1e-6
        if kt in (KernelType.COMPUTE_BOUND, KernelType.COMPUTE_BOUND2):
            return self.base_seconds + kernel.iterations * self.seconds_per_iteration
        if kt is KernelType.MEMORY_BOUND:
            return self.base_seconds + kernel.bytes_per_task() / self.bytes_per_second
        if kt is KernelType.LOAD_IMBALANCE:
            eff = kernel.effective_iterations(t, i, seed)
            return self.base_seconds + eff * self.seconds_per_iteration
        if kt is KernelType.IO_BOUND:
            return self.base_seconds + kernel.bytes_per_task() / self.io_bytes_per_second
        raise AssertionError(f"unhandled kernel type {kt}")  # pragma: no cover
