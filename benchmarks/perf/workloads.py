"""The benchmark's four workloads: a pure function of (name, seed).

Each workload is one task-graph shape; the seed becomes ``TaskGraph.seed``
(it stamps every output pattern, and for ``dense_random`` it also draws
the edges).  The program under test only ever sees the generated graph.
Why each shape exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.core import DependenceType, Kernel, KernelType, TaskGraph

#: Every workload is eight columns wide: four tasks per worker at
#: ``workers=2``, so a round is never a single task.
WIDTH = 8

#: One executor per isolation class, always with two workers.
SUBSTRATES = ("serial", "threads", "shm_processes", "cluster_uds")
WORKERS = 2

#: The substrate whose per-task wall and set-up are end-to-end (gated)
#: metrics.  The other three are measured in the traced run and reported per
#: layer: on the 2-core build host anything with a second thread or process
#: flips between modes from one process to the next, canaries quiet or not
#: (threads 18 <-> 57, cluster_uds 21 <-> 35, shm_processes 37 <-> 60 us/task;
#: a shm_processes set-up 0.034 <-> 0.065 s), which no bound the contract
#: allows can hold.
GATED_SUBSTRATE = "serial"

#: The executors that only get a per-layer series (ROADMAP item 1: all 14).
OTHER_EXECUTORS = (
    "bulk_sync", "p2p", "processes", "dataflow", "futures", "asyncio",
    "ptg", "actors", "centralized", "cluster_tcp",
)

# Heights are chosen so that one warm run lasts 15-100 ms: the build host's
# quiet phases last about 0.2 s, and a run that outlasts them is never
# measured clean.  (All are far below 1024 timesteps, beyond which the
# dependence table's front cache evicts without its lock; see README.)
WORKLOADS: Dict[str, dict] = {
    "fine_stencil": dict(
        dependence="stencil_1d", steps=250, kernel="empty", payload=16),
    "dense_random": dict(
        dependence="random_nearest", steps=250, kernel="empty", payload=16,
        radix=7, fraction=0.75, period=-1),
    "big_payload": dict(
        dependence="stencil_1d", steps=100, kernel="empty", payload=65536),
    "coarse_wait": dict(
        dependence="fft", steps=25, kernel="busy_wait", payload=16,
        wait_us=500.0),
}


def build_graph(name: str, seed: int, steps: int | None = None) -> TaskGraph:
    """The workload's task graph for ``seed`` (``steps`` overrides its
    height: the smoke run and the cold CLI cell use shorter graphs)."""
    w = WORKLOADS[name]
    return TaskGraph(
        timesteps=steps if steps is not None else w["steps"],
        max_width=WIDTH,
        dependence=DependenceType.parse(w["dependence"]),
        radix=w.get("radix", 3),
        period=w.get("period", -1),
        fraction_connected=w.get("fraction", 0.25),
        kernel=Kernel(
            kernel_type=KernelType.parse(w["kernel"]),
            wait_us=w.get("wait_us", 0.0),
        ),
        output_bytes_per_task=w["payload"],
        seed=seed,
    )


def cli_args(name: str, seed: int, steps: int) -> List[str]:
    """The same shape in ``python -m repro.cli`` flag vocabulary."""
    w = WORKLOADS[name]
    args = [
        "-steps", str(steps), "-width", str(WIDTH), "-type", w["dependence"],
        "-kernel", w["kernel"], "-output", str(w["payload"]),
        "-seed", str(seed),
    ]
    for flag, key in (("-radix", "radix"), ("-fraction", "fraction"),
                      ("-period", "period"), ("-wait", "wait_us")):
        if key in w:
            args += [flag, str(w[key])]
    return args


def edge_digest(graph: TaskGraph) -> str:
    """SHA-256 over every task's dependence columns, in program order."""
    h = hashlib.sha256()
    for t, i in graph.points():
        h.update(repr((t, i, graph.dependency_columns(t, i))).encode())
    return h.hexdigest()
