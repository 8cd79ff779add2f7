"""Efficiency curves: throughput vs problem size / task granularity.

The raw material of the METG metric (paper §4, Figures 2-3): run the same
machine and software configuration at a sweep of problem sizes (compute
kernel iteration counts) and record achieved throughput, efficiency, and
mean task granularity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..core.kernels import Kernel
from ..core.metrics import FaultStats, RunResult
from ..core.task_graph import TaskGraph
from ..core.types import KernelType
from ..faults import retrying


@dataclass(frozen=True)
class Measurement:
    """One point of an efficiency curve."""

    iterations: int
    result: RunResult
    efficiency: float

    @property
    def granularity_seconds(self) -> float:
        """Mean task granularity (wall time x cores / tasks, paper §4)."""
        return self.result.task_granularity_seconds

    @property
    def flops_per_second(self) -> float:
        return self.result.flops_per_second

    @property
    def bytes_per_second(self) -> float:
        return self.result.bytes_per_second


#: A workload: maps an iteration count to the graphs to execute.
GraphFactory = Callable[[int], Sequence[TaskGraph]]


def compute_workload(
    width: int,
    steps: int = 100,
    *,
    dependence=None,
    radix: int = 3,
    ngraphs: int = 1,
    output_bytes: int = 16,
    kernel_type: KernelType = KernelType.COMPUTE_BOUND,
    imbalance: float = 0.0,
    persistent_imbalance: bool = False,
    seed: int = 12345,
) -> GraphFactory:
    """Standard METG workload: ``ngraphs`` identical graphs of the given
    pattern whose task duration is set by the compute-kernel iteration
    count (paper §4: "the problem size is then repeatedly reduced while
    maintaining exactly the same hardware and software configuration")."""
    from ..core.types import DependenceType

    dep = dependence if dependence is not None else DependenceType.STENCIL_1D

    def factory(iterations: int) -> List[TaskGraph]:
        kernel = Kernel(
            kernel_type=kernel_type,
            iterations=iterations,
            imbalance=imbalance,
            persistent=persistent_imbalance,
        )
        return [
            TaskGraph(
                timesteps=steps,
                max_width=width,
                dependence=dep,
                radix=radix,
                kernel=kernel,
                output_bytes_per_task=output_bytes,
                graph_index=k,
                seed=seed,
            )
            for k in range(ngraphs)
        ]

    return factory


def memory_workload(
    width: int,
    steps: int = 100,
    *,
    dependence=None,
    span_bytes: int = 4096,
    scratch_bytes: int = 1 << 20,
    output_bytes: int = 16,
    seed: int = 12345,
) -> GraphFactory:
    """Memory-bound METG workload (paper §5.2): constant working set
    (``scratch_bytes``), problem size set by the iteration count."""
    from ..core.types import DependenceType

    dep = dependence if dependence is not None else DependenceType.STENCIL_1D

    def factory(iterations: int) -> List[TaskGraph]:
        kernel = Kernel(
            kernel_type=KernelType.MEMORY_BOUND,
            iterations=iterations,
            span_bytes=span_bytes,
        )
        return [
            TaskGraph(
                timesteps=steps,
                max_width=width,
                dependence=dep,
                kernel=kernel,
                output_bytes_per_task=output_bytes,
                scratch_bytes_per_task=scratch_bytes,
                seed=seed,
            )
        ]

    return factory


def measure(runner, factory: GraphFactory, iterations: int,
            *, metric: str = "flops",
            max_retries: int | None = None) -> Measurement:
    """Run the workload at one problem size and compute its efficiency.

    ``metric`` selects the throughput measure: ``"flops"`` (compute-bound)
    or ``"bytes"`` (memory-bound), against the runner's calibrated peak.

    Transient worker failures (a crashed or deadline-killed worker — see
    :func:`repro.faults.retrying`) are retried with exponential backoff up
    to ``max_retries`` times (default: the runner's ``max_retries``
    attribute, else 0), so one injected or real crash costs one probe
    rather than the whole sweep.  Retries that occurred are recorded in the
    measurement's ``result.faults.probe_retries``.
    """
    budget = (
        max_retries
        if max_retries is not None
        else getattr(runner, "max_retries", 0)
    )
    # Fresh graphs on every attempt: a partially-executed run may have
    # mutated graph or validation state (worker-side caches key on the
    # graph object), and a retry must observe none of it.
    result, retries = retrying(lambda: runner.run(factory(iterations)), budget)
    if retries:
        faults = result.faults or FaultStats()
        result = dataclasses.replace(
            result,
            faults=dataclasses.replace(
                faults, probe_retries=faults.probe_retries + retries
            ),
        )
    if metric == "flops":
        eff = result.flops_per_second / runner.peak_flops
    elif metric == "bytes":
        eff = result.bytes_per_second / runner.peak_bytes_per_second
    else:
        raise ValueError(f"unknown efficiency metric {metric!r}")
    return Measurement(iterations=iterations, result=result, efficiency=eff)


def efficiency_curve(
    runner,
    factory: GraphFactory,
    iteration_counts: Sequence[int],
    *,
    metric: str = "flops",
) -> List[Measurement]:
    """Measure the workload at every problem size, largest first (the
    paper's presentation order: start from the configuration that proves
    peak is achievable, then shrink)."""
    return [
        measure(runner, factory, n, metric=metric)
        for n in sorted(iteration_counts, reverse=True)
    ]
