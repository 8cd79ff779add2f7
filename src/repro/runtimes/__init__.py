"""Real runtime implementations of the Task Bench interface.

One executor per runtime paradigm evaluated in the paper (§3): inline
serial execution, bulk-synchronous and point-to-point message passing,
dependency-counted thread tasking, sequential task flow with runtime
dependence inference, ahead-of-time graph expansion, message-driven actors,
a centralized controller, timestep-phased process offload (rows pickled,
or passed as shared-memory slab handles above a payload size), and — via
:mod:`repro.cluster` — distributed-memory rank processes over real
sockets (``cluster_tcp`` / ``cluster_uds``).

All executors drive the same core library (``repro.core``) and execute
every point exactly once, through ``run_task`` / ``execute_row``
(:mod:`repro.runtimes._common`, :class:`~repro.core.task_graph.TaskGraph`);
every graph validates its own execution.  Importing this package loads no
executor: a name below is resolved on first use, and
:func:`make_executor` imports the one module it is asked for.
"""

from .._exports import export

_EXPORTS = {
    "_common": ("OutputStore", "ScratchPool"),
    "_procpool": ("ForkWorkerPool", "WorkerCrashError", "WorkerTimeoutError"),
    "actors": ("ActorExecutor",),
    "async_rt": ("AsyncioExecutor",),
    "bulk_sync": ("BulkSyncExecutor",),
    "centralized": ("CentralizedExecutor",),
    "cluster_rt": ("ClusterTCPExecutor", "ClusterUDSExecutor"),
    "dataflow": ("DataflowExecutor", "STFScheduler"),
    "futures_rt": ("FuturesExecutor",),
    "p2p": ("Mailbox", "P2PExecutor", "block_owner"),
    "processes": (
        "ProcessPoolExecutor", "ShmProcessPoolExecutor", "uses_slabs",
    ),
    "ptg": ("ExpandedGraph", "PTGExecutor", "expand"),
    "registry": (
        "available_runtimes", "describe_runtimes", "make_executor",
        "runtime_core_cost", "runtime_isolation",
    ),
    "serial": ("SerialExecutor",),
    "threads": ("ThreadPoolTaskExecutor",),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
