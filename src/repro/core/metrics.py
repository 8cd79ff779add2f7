"""Run metrics and reporting (paper §4).

Defines :class:`RunResult`, the uniform record every executor (real or
simulated) returns, and the derived quantities the paper's evaluation is
built on: FLOP/s, B/s, tasks/s and — centrally — *task granularity*::

    task granularity = wall time x num. cores / num. tasks      (paper §4)

The core library "manages ... displaying results, ensuring that all
implementations behave uniformly and can be scripted consistently";
:meth:`RunResult.report` is that uniform output format.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .task_graph import TaskGraph


@dataclass(frozen=True)
class WireStats:
    """How task payloads moved over a real transport (cluster executors).

    The distributed executors (:mod:`repro.cluster`) move dependency
    payloads between rank processes as binary frames over sockets.  These
    counters are the network-side complement of :class:`DataPlaneStats`:
    bytes/messages that actually crossed the wire, plus the time the ranks
    spent encoding and decoding frames (the serialization cost the paper's
    communication analysis isolates, §5.5).
    """

    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    serialize_seconds: float = 0.0
    deserialize_seconds: float = 0.0
    #: Payloads that travelled inside multi-payload DATA_BATCH frames (the
    #: ranks coalesce a timestep's per-peer sends into one frame; each
    #: batch frame still counts once in ``messages_sent``/``_received``).
    batched_payloads_sent: int = 0
    batched_payloads_received: int = 0

    def merged(self, other: "WireStats") -> "WireStats":
        """Sum of two wire records (e.g. several ranks of one run)."""
        return WireStats(
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
            messages_sent=self.messages_sent + other.messages_sent,
            messages_received=self.messages_received + other.messages_received,
            serialize_seconds=self.serialize_seconds + other.serialize_seconds,
            deserialize_seconds=(
                self.deserialize_seconds + other.deserialize_seconds
            ),
            batched_payloads_sent=(
                self.batched_payloads_sent + other.batched_payloads_sent
            ),
            batched_payloads_received=(
                self.batched_payloads_received + other.batched_payloads_received
            ),
        )

    def report_lines(self) -> List[str]:
        """Wire section of the uniform report."""
        lines = [
            f"Bytes On Wire {self.bytes_sent} sent / "
            f"{self.bytes_received} received "
            f"({self.messages_sent} / {self.messages_received} messages)",
            f"Wire Codec Time {self.serialize_seconds:e} s serialize, "
            f"{self.deserialize_seconds:e} s deserialize",
        ]
        if self.batched_payloads_sent or self.batched_payloads_received:
            lines.append(
                f"Wire Batching {self.batched_payloads_sent} payloads sent / "
                f"{self.batched_payloads_received} received in batch frames"
            )
        return lines


@dataclass(frozen=True)
class DataPlaneStats:
    """How task payloads moved during a run (paper §3's communication layer).

    The zero-copy data plane (:mod:`repro.core.bufpool`) distinguishes
    payload bytes that crossed an executor boundary *by copy* (pickled
    through a pipe, duplicated into a message) from bytes that were
    *shared* (routed through pooled slabs and referenced by handle).
    Pool hit-rate tracks how well slab recycling amortizes allocation.
    Distributed executors additionally attach a :class:`WireStats` record
    for the bytes that crossed real sockets.
    """

    bytes_copied: int = 0
    payloads_copied: int = 0
    bytes_shared: int = 0
    payloads_shared: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    wire: Optional[WireStats] = None
    #: Dependence-table activity (repro.core.fastpath): lookups
    #: served from a compiled structure, and structures compiled, during
    #: the run (parent-process view).
    fastpath_hits: int = 0
    fastpath_compiles: int = 0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of pool acquisitions served from a free list."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def merged(self, other: "DataPlaneStats") -> "DataPlaneStats":
        """Sum of two stats records (e.g. several pools in one run)."""
        if self.wire is None:
            wire = other.wire
        elif other.wire is None:
            wire = self.wire
        else:
            wire = self.wire.merged(other.wire)
        return DataPlaneStats(
            bytes_copied=self.bytes_copied + other.bytes_copied,
            payloads_copied=self.payloads_copied + other.payloads_copied,
            bytes_shared=self.bytes_shared + other.bytes_shared,
            payloads_shared=self.payloads_shared + other.payloads_shared,
            pool_hits=self.pool_hits + other.pool_hits,
            pool_misses=self.pool_misses + other.pool_misses,
            wire=wire,
            fastpath_hits=self.fastpath_hits + other.fastpath_hits,
            fastpath_compiles=self.fastpath_compiles + other.fastpath_compiles,
        )

    def report_lines(self) -> List[str]:
        """Data-plane section of the uniform report."""
        lines = [
            f"Bytes Copied {self.bytes_copied} ({self.payloads_copied} payloads)",
            f"Bytes Shared {self.bytes_shared} ({self.payloads_shared} payloads)",
            f"Pool Hit Rate {self.pool_hit_rate:.3f} "
            f"({self.pool_hits} hits, {self.pool_misses} misses)",
        ]
        if self.fastpath_hits or self.fastpath_compiles:
            lines.append(
                f"Fastpath Hits {self.fastpath_hits} "
                f"({self.fastpath_compiles} table compiles)"
            )
        if self.wire is not None:
            lines.extend(self.wire.report_lines())
        return lines


@dataclass(frozen=True)
class FaultStats:
    """Fault-tolerance accounting of a run (crash supervision layer).

    The process executors supervise their fork-worker pools: a killed
    worker surfaces as a crash, a wedged one as a deadline timeout, and
    both are respawned in place on the next run.  At the METG level a
    probe whose run failed transiently is retried with backoff.  These
    counters make that machinery's activity visible in ``--report`` —
    a sweep that silently burned retries is a measurement caveat.
    """

    worker_crashes: int = 0
    worker_timeouts: int = 0
    workers_respawned: int = 0
    probe_retries: int = 0

    @property
    def any(self) -> bool:
        """Whether any fault activity was recorded at all."""
        return bool(
            self.worker_crashes
            or self.worker_timeouts
            or self.workers_respawned
            or self.probe_retries
        )

    def merged(self, other: "FaultStats") -> "FaultStats":
        """Sum of two fault records (e.g. dropped pool + live pool)."""
        return FaultStats(
            worker_crashes=self.worker_crashes + other.worker_crashes,
            worker_timeouts=self.worker_timeouts + other.worker_timeouts,
            workers_respawned=self.workers_respawned + other.workers_respawned,
            probe_retries=self.probe_retries + other.probe_retries,
        )

    def report_lines(self) -> List[str]:
        """Fault section of the uniform report."""
        return [
            f"Worker Crashes {self.worker_crashes} "
            f"({self.worker_timeouts} deadline timeouts)",
            f"Workers Respawned {self.workers_respawned}",
            f"Probe Retries {self.probe_retries}",
        ]


@dataclass(frozen=True)
class TraceStats:
    """Summary of a wall-clock span trace collected during a run.

    Tracing (:mod:`repro.trace`) records spans on a separate channel from
    the timings above — trace timestamps never feed METG or the
    granularity formula, they only describe *where* the wall-clock went.
    This record carries the collection totals (and the export path when
    the CLI wrote a Chrome trace file) into the uniform report.
    """

    spans: int = 0
    instants: int = 0
    counter_samples: int = 0
    dropped: int = 0
    path: Optional[str] = None

    def report_lines(self) -> List[str]:
        """Trace section of the uniform report."""
        where = f" -> {self.path}" if self.path else ""
        return [
            f"Trace Spans {self.spans} ({self.instants} instants, "
            f"{self.counter_samples} counter samples, "
            f"{self.dropped} dropped){where}",
        ]


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing a set of task graphs on some executor.

    Attributes
    ----------
    executor:
        Name of the runtime system / executor that produced the run.
    elapsed_seconds:
        Wall-clock (or simulated) time for the whole run.
    cores:
        Number of cores participating (workers + any reserved runtime
        cores); used for the task-granularity formula.
    total_tasks, total_dependencies:
        Graph totals, summed over all graphs in the run.
    total_flops, total_bytes:
        Useful work executed, summed over all graphs.
    validated:
        Whether input validation was enabled during the run.
    data_plane:
        Payload-movement counters for executors that report them (see
        :class:`DataPlaneStats`); ``None`` when the executor does not
        instrument its data plane.
    faults:
        Fault-tolerance counters (see :class:`FaultStats`); ``None`` when
        no fault activity was observed (or the executor is unsupervised).
    trace:
        Span-trace summary (see :class:`TraceStats`); ``None`` unless the
        run was traced (the CLI's ``--trace`` flag).
    """

    executor: str
    elapsed_seconds: float
    cores: int
    total_tasks: int
    total_dependencies: int
    total_flops: int = 0
    total_bytes: int = 0
    validated: bool = True
    data_plane: Optional[DataPlaneStats] = None
    faults: Optional[FaultStats] = None
    trace: Optional[TraceStats] = None

    def __post_init__(self) -> None:
        if self.elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be >= 0")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.total_tasks < 1:
            raise ValueError("total_tasks must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def flops_per_second(self) -> float:
        """Achieved floating-point throughput."""
        return self.total_flops / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def bytes_per_second(self) -> float:
        """Achieved memory throughput (memory-bound kernel)."""
        return self.total_bytes / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def tasks_per_second(self) -> float:
        """Task scheduling throughput (the metric METG improves upon)."""
        return self.total_tasks / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def task_granularity_seconds(self) -> float:
        """Mean task granularity: ``wall time x cores / tasks`` (paper §4)."""
        return self.elapsed_seconds * self.cores / self.total_tasks

    def efficiency(self, peak_flops_per_second: float) -> float:
        """Fraction of peak FLOP/s achieved (compute-bound efficiency)."""
        if peak_flops_per_second <= 0:
            raise ValueError("peak must be positive")
        return self.flops_per_second / peak_flops_per_second

    def memory_efficiency(self, peak_bytes_per_second: float) -> float:
        """Fraction of peak B/s achieved (memory-bound efficiency)."""
        if peak_bytes_per_second <= 0:
            raise ValueError("peak must be positive")
        return self.bytes_per_second / peak_bytes_per_second

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, *, data_plane: bool = False) -> str:
        """Uniform multi-line result report (official-output style).

        With ``data_plane=True`` (the CLI's ``--report`` flag), the
        payload-movement counters are appended when the executor collected
        them.
        """
        lines = [
            f"Executor: {self.executor}",
            f"Total Tasks {self.total_tasks}",
            f"Total Dependencies {self.total_dependencies}",
            f"Elapsed Time {self.elapsed_seconds:e} seconds",
            f"FLOP/s {self.flops_per_second:e}",
            f"B/s {self.bytes_per_second:e}",
            f"Task Granularity {self.task_granularity_seconds:e} seconds",
        ]
        if data_plane:
            if self.data_plane is not None:
                lines.extend(self.data_plane.report_lines())
            else:
                lines.append("Data Plane (not instrumented)")
            if self.faults is not None:
                lines.extend(self.faults.report_lines())
            if self.trace is not None:
                lines.extend(self.trace.report_lines())
        return "\n".join(lines)

    def with_elapsed(self, elapsed_seconds: float) -> "RunResult":
        """Copy of this result with a different elapsed time."""
        return dataclasses.replace(self, elapsed_seconds=elapsed_seconds)


def summarize_graphs(
    executor: str,
    graphs: Sequence[TaskGraph],
    elapsed_seconds: float,
    cores: int,
    *,
    validated: bool = True,
    data_plane: Optional[DataPlaneStats] = None,
    faults: Optional[FaultStats] = None,
) -> RunResult:
    """Build a :class:`RunResult` from graph-level accounting.

    Work totals (tasks, dependencies, FLOPs, bytes) are properties of the
    graphs alone, so they are computed here once rather than re-measured by
    every executor.
    """
    if not graphs:
        raise ValueError("at least one task graph is required")
    return RunResult(
        executor=executor,
        elapsed_seconds=elapsed_seconds,
        cores=cores,
        total_tasks=sum(g.total_tasks() for g in graphs),
        total_dependencies=sum(g.total_dependencies() for g in graphs),
        total_flops=sum(g.total_flops() for g in graphs),
        total_bytes=sum(g.total_bytes() for g in graphs),
        validated=validated,
        data_plane=data_plane,
        faults=faults,
    )
