"""Runners: a uniform "execute this workload, report throughput" interface.

METG is measured identically for simulated systems and real executors (the
paper computes it the same way for all 15 systems); runners hide which
substrate is underneath.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.envvars import env_float
from ..core.executor_base import Executor
from ..core.kernels import FLOPS_PER_ITERATION, execute_kernel_compute
from ..core.metrics import RunResult
from ..core.task_graph import TaskGraph
from ..runtimes.registry import make_executor
from ..sim.machine import MachineSpec
from ..sim.network import ARIES, NetworkModel
from ..sim.runtime_model import RuntimeModel
from ..sim.simulator import simulate
from ..sim.systems import get_system, scaled_for


class SimRunner:
    """Runs workloads on the simulator substrate."""

    def __init__(
        self,
        system: RuntimeModel | str,
        machine: MachineSpec,
        network: NetworkModel = ARIES,
        *,
        scale_reserved: bool = True,
    ) -> None:
        model = get_system(system) if isinstance(system, str) else system
        if scale_reserved:
            model = scaled_for(model, machine)
        self.model = model
        self.machine = machine
        self.network = network

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def cores(self) -> int:
        return self.machine.total_cores

    @property
    def worker_width(self) -> int:
        """Natural graph width: one column per worker core (paper §2)."""
        return self.machine.nodes * self.model.worker_cores_per_node(
            self.machine.cores_per_node
        )

    @property
    def peak_flops(self) -> float:
        """The 100 % efficiency reference: the machine's best measured rate
        (paper §5.1 uses the empirically-determined peak across systems)."""
        return self.machine.peak_flops

    @property
    def peak_bytes_per_second(self) -> float:
        return self.machine.peak_bytes_per_second

    def run(self, graphs: Sequence[TaskGraph]) -> RunResult:
        return simulate(graphs, self.machine, self.model, self.network)

    def close(self) -> None:
        """Nothing to release; every runner can be closed."""


class RealRunner:
    """Runs workloads on a real executor of ``repro.runtimes``.

    The peak FLOP/s reference is calibrated empirically — the rate of the
    actual compute kernel on this host times the worker count — mirroring
    the paper's empirical calibration of Cori's 1.26 TFLOP/s.

    ``max_retries`` is the per-probe retry budget for transient worker
    failures (read by :func:`repro.metg.efficiency.measure`); the default
    comes from the ``TASKBENCH_MAX_RETRIES`` environment variable.
    """

    def __init__(
        self,
        executor: Executor,
        *,
        validate: bool = False,
        max_retries: int | None = None,
    ) -> None:
        from ..faults import default_max_retries

        self.executor = executor
        self.validate = validate
        self.max_retries = (
            max_retries if max_retries is not None else default_max_retries()
        )
        self._peak_per_core: float | None = None

    @property
    def name(self) -> str:
        return self.executor.name

    @property
    def cores(self) -> int:
        return self.executor.cores

    @property
    def worker_width(self) -> int:
        return self.executor.cores

    @property
    def peak_flops(self) -> float:
        """Empirical 100 %-efficiency reference for this executor.

        The per-core kernel rate comes from the process-wide cache (see
        :func:`peak_flops_per_core`) so every runner of a sweep — and every
        cell of a suite — shares one calibration instead of each measuring
        its own noisy reference, which would make efficiencies (and hence
        METG) incomparable across cells.  Tests may pin the reference by
        setting ``_peak_per_core`` directly.
        """
        if self._peak_per_core is None:
            self._peak_per_core = peak_flops_per_core()
        return self._peak_per_core * self.executor.cores

    def run(self, graphs: Sequence[TaskGraph]) -> RunResult:
        return self.executor.run(graphs, validate=self.validate)

    def close(self) -> None:
        """Release the executor's resources (worker pools, rank meshes).

        Persistent-substrate executors stay warm across a sweep's probes;
        once the sweep is over the caller closes the runner so process
        trees and socket directories do not outlive the measurement."""
        self.executor.close()


def make_runner(
    runtime: str, *, workers: int = 2, nodes: int = 1, cores_per_node: int = 0,
    max_retries: int | None = None, **options,
) -> SimRunner | RealRunner:
    """The runner a runtime name selects: ``sim:<system>`` is that system on
    ``nodes`` simulated nodes (``cores_per_node`` 0: 32 cores), anything
    else a real executor with ``workers`` and its ``options``."""
    if runtime.startswith("sim:"):
        machine = MachineSpec(nodes=nodes, cores_per_node=cores_per_node or 32)
        return SimRunner(runtime[len("sim:"):], machine)
    return RealRunner(
        make_executor(runtime, workers=workers, **options),
        max_retries=max_retries,
    )


def calibrate_kernel_flops(iterations: int = 20_000, repeats: int = 3) -> float:
    """Measured FLOP/s of the compute kernel on one core of this host."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        execute_kernel_compute(iterations)
        elapsed = time.perf_counter() - start
        best = max(best, iterations * FLOPS_PER_ITERATION / elapsed)
    return best


#: Process-wide calibration cache (``None`` = not yet calibrated).
_PEAK_PER_CORE: float | None = None

#: Environment override: pin the per-core peak FLOP/s reference instead of
#: calibrating.  Set by the suite scheduler so every cell of a sweep — even
#: ones running in child processes — shares one calibration and their
#: efficiencies are directly comparable.
PEAK_FLOPS_ENV = "TASKBENCH_PEAK_FLOPS"


def peak_flops_per_core(*, recalibrate: bool = False) -> float:
    """Per-core peak FLOP/s reference, calibrated at most once per process.

    Resolution order: the :data:`PEAK_FLOPS_ENV` environment variable if
    set (must be a positive number), else the cached calibration, else one
    fresh :func:`calibrate_kernel_flops` whose result is cached for the
    life of the process.  ``recalibrate=True`` forces a fresh measurement
    (and refreshes the cache) unless the environment override is set.
    """
    global _PEAK_PER_CORE
    value = env_float(PEAK_FLOPS_ENV, None, exclusive_minimum=0.0)
    if value is not None:
        return value
    if _PEAK_PER_CORE is None or recalibrate:
        _PEAK_PER_CORE = calibrate_kernel_flops()
    return _PEAK_PER_CORE
