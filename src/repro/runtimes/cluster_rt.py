"""Distributed-memory executors (MPI analogue, paper §3.4).

``cluster_tcp`` and ``cluster_uds`` run each task graph across N
independent rank *processes* connected by real sockets — the
:mod:`repro.cluster` subsystem: block-partitioned columns, timestep-major
rank loops, non-blocking tagged sends and blocking tagged receives over a
binary wire protocol.  This is the repo's closest analogue to the paper's
MPI implementation; the thread-based :mod:`repro.runtimes.p2p` keeps the
same communication structure inside one address space.

This module is only the *shim* between the :class:`Executor` contract and
the cluster launcher.  The mesh is launched lazily on the first run and
kept warm across runs of the same executor instance (a METG sweep re-runs
one executor dozens of times; paying fork + mesh connection per probe
would swamp the measurement), with the same graph-delta broadcast and
cache-coherence rules as the process executors.

Supervision mirrors the fork pool's semantics: a killed rank surfaces as
:class:`~repro.faults.WorkerCrashError` (detected through
control-pipe EOF *and* peer-socket EOF), a wedged one as
:class:`~repro.faults.WorkerTimeoutError` once the per-run
deadline fires.  Unlike the fork pool, a broken mesh cannot be healed
rank-by-rank — sockets are half-dead and epochs desynchronized — so a
failure tears the whole cluster down and the next run relaunches it; the
relaunch is accounted as ``workers`` respawns.

Run observability: each run's merged :class:`~repro.core.metrics.WireStats`
(bytes and messages on the wire, serialize/decode time) is attached to the
run's :class:`~repro.core.metrics.DataPlaneStats`.  Kernels execute in the
rank processes, so on an observed run the ranks report every timestep as it
ends and the launcher retires each row to the installed sinks once it is
complete — in the deterministic timestep-major order, with the output
snapshots its ranks took if a sink asked for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Sequence

from ..core.executor_base import Executor
from ..core.metrics import DataPlaneStats, FaultStats
from ..core.task_graph import TaskGraph
from ..faults import FaultSpec, default_timeout, fault_from_env
from ..trace import recorder as trace
from ._common import capture_active, retire_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.launcher import Cluster


class _ClusterExecutor(Executor):
    """Shared machinery of the socket-mesh executors: a lazily launched,
    persistent :class:`~repro.cluster.launcher.Cluster` plus supervision
    accounting.

    ``timeout`` is the per-run deadline forwarded to the launcher
    (default: the ``TASKBENCH_TIMEOUT`` environment variable, else no
    deadline); ``fault`` arms one injected fault in the first mesh launch
    (default: ``TASKBENCH_INJECT_FAULT``) — for cluster executors the
    fault's ``worker`` is the rank index and ``round_index`` the timestep
    of the rank's first run."""

    isolation = "cluster"
    options = ("timeout", "fault")

    #: Transport kind forwarded to the launcher (set by subclass).
    transport: ClassVar[str]

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout: float | None = None,
        fault: FaultSpec | None = None,
    ) -> None:
        super().__init__(workers)
        self.timeout = timeout if timeout is not None else default_timeout()
        self.fault = fault if fault is not None else fault_from_env()
        self._fault_stats: FaultStats | None = None
        self._cluster: "Cluster | None" = None  # lazy: no fork before a run
        self._launches = 0
        # Supervision counters carried over from meshes already torn down.
        self._fault_base = FaultStats()

    def close(self) -> None:
        """Release the rank processes.  Optional — the mesh also tears
        itself down when the executor is garbage-collected."""
        self._drop_cluster()

    def _drop_cluster(self) -> None:
        if self._cluster is not None:
            self._fault_base = self._fault_base.merged(
                FaultStats(
                    worker_crashes=self._cluster.crashes,
                    worker_timeouts=self._cluster.timeouts,
                )
            )
            self._cluster.close()
            self._cluster = None

    def heal(self) -> int:
        """Drop the mesh if any rank died while it sat idle.

        A socket mesh cannot be healed rank-by-rank (sockets are
        half-dead, epochs desynchronized — see the module docstring), so
        healing means condemning the broken mesh: the next run relaunches
        a fresh one.  Returns the number of ranks the drop discarded.
        """
        cluster = self._cluster
        if cluster is None:
            return 0
        if cluster.alive_ranks == self.workers and not cluster.dead:
            return 0
        self._drop_cluster()
        return self.workers

    def _snapshot_faults(self) -> FaultStats | None:
        """Cumulative supervision counters (torn-down meshes + live mesh);
        ``None`` while no fault has ever been observed."""
        stats = self._fault_base
        cluster = self._cluster
        if cluster is not None:
            stats = stats.merged(
                FaultStats(
                    worker_crashes=cluster.crashes,
                    worker_timeouts=cluster.timeouts,
                )
            )
        return stats if stats.any else None

    def _ensure_cluster(self) -> "Cluster":
        """Launch (or reuse) the rank mesh.

        Injected faults attach to the first launch only, so a mesh
        relaunched after a failure runs clean — the same transient-fault
        semantics as the fork pool's worker generations.  A relaunch
        replaces all ``workers`` ranks and is accounted as that many
        respawns."""
        if self._cluster is None:
            from ..cluster.launcher import Cluster

            first = self._launches == 0
            if not first:
                self._fault_base = self._fault_base.merged(
                    FaultStats(workers_respawned=self.workers)
                )
            self._cluster = Cluster(
                self.workers,
                type(self).transport,
                timeout=self.timeout,
                fault=self.fault if first else None,
            )
            self._launches += 1
        return self._cluster

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        try:
            self._execute(graphs, validate)
        except BaseException:
            # Any failure — supervised or not — leaves the mesh broken
            # (the launcher already killed the ranks on supervised
            # errors): drop the handle so the next run relaunches.
            self._drop_cluster()
            raise
        finally:
            self._fault_stats = self._snapshot_faults()

    def _execute(self, graphs: Sequence[TaskGraph], validate: bool) -> None:
        cluster = self._ensure_cluster()
        traced = trace.enabled
        t0 = trace.begin() if traced else 0
        capture = capture_active()
        wire, rank_traces = cluster.run(
            graphs,
            validate=validate,
            rows=None if capture is None else retire_rows,
            capture=bool(capture),
            trace=traced,
        )
        if t0:
            trace.complete(
                "cluster.run", trace.CAT_DISPATCH, t0, {"ranks": self.workers}
            )
        for r, offset_ns, buffers in rank_traces or []:
            trace.ingest(f"rank-{r}", buffers, offset_ns=offset_ns)
        self._data_plane = DataPlaneStats(wire=wire)


class ClusterTCPExecutor(_ClusterExecutor):
    """Rank processes exchanging payloads over loopback TCP sockets."""

    name = "cluster_tcp"
    transport = "tcp"


class ClusterUDSExecutor(_ClusterExecutor):
    """Rank processes exchanging payloads over Unix-domain sockets."""

    name = "cluster_uds"
    transport = "uds"
