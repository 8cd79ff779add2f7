"""Centralized-controller executor (Spark / Dask-distributed analogue,
paper §3.3, §3.11).

A single controller thread owns all scheduling state: it discovers ready
tasks, dispatches them one at a time to worker queues, and processes
completion notifications.  Total task throughput is therefore bounded by the
controller's per-task dispatch cost — the architectural property behind
Spark's line in Figure 9 rising immediately with node count ("Spark uses a
centralized controller, which limits throughput").

``dispatch_overhead_us`` injects additional controller work per task so the
throughput ceiling can be made explicit in local experiments.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Sequence

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import OutputStore, ScratchPool, run_point
from ._readypool import DependencyCounts


class CentralizedExecutor(Executor):
    """Controller thread + worker pool with per-task dispatch."""

    name = "centralized"
    options = ("dispatch_overhead_us",)

    def __init__(self, workers: int = 2, dispatch_overhead_us: float = 0.0) -> None:
        super().__init__(workers)
        if dispatch_overhead_us < 0:
            raise ValueError("dispatch_overhead_us must be >= 0")
        self.dispatch_overhead_us = dispatch_overhead_us

    @property
    def cores(self) -> int:
        # The controller occupies a core of its own, like a Spark driver.
        return self.workers + 1

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        store = OutputStore()
        scratch = ScratchPool(graphs)

        # Controller-owned scheduling state (no locks needed: only the
        # controller thread touches it).
        counts = DependencyCounts(graphs)
        by_index = counts.graphs
        ready = counts.ready
        remaining = counts.total

        work_queues = [queue.Queue() for _ in range(self.workers)]
        completions: queue.Queue = queue.Queue()

        def worker_main(wq: queue.Queue) -> None:
            while True:
                item = wq.get()
                if item is None:
                    return
                gi, t, i = item
                try:
                    run_point(store, scratch, by_index[gi], t, i, validate=validate)
                    completions.put(("done", item))
                except BaseException as exc:  # noqa: BLE001 - sent to controller
                    completions.put(("error", exc))
                    return

        threads = [
            threading.Thread(target=worker_main, args=(wq,), daemon=True,
                             name=f"centralized-worker-{w}")
            for w, wq in enumerate(work_queues)
        ]
        for th in threads:
            th.start()

        error: BaseException | None = None
        try:
            rr = itertools.cycle(range(self.workers))
            in_flight = 0
            while remaining > 0:
                # Dispatch every currently-ready task, round-robin, paying
                # the controller's per-task cost inline.
                t0 = trace.begin() if (ready and trace.enabled) else 0
                dispatched = 0
                while ready and error is None:
                    key = ready.pop()
                    if self.dispatch_overhead_us:
                        # Deliberate overhead model, not measurement: the
                        # controller burns its per-task dispatch cost inline.
                        deadline = time.perf_counter() + self.dispatch_overhead_us * 1e-6  # check: allow[timing]
                        while time.perf_counter() < deadline:  # check: allow[timing]
                            pass
                    work_queues[next(rr)].put(key)
                    in_flight += 1
                    dispatched += 1
                if t0:
                    # One span per dispatch batch: the controller's
                    # throughput ceiling made visible.
                    trace.complete(
                        "dispatch", trace.CAT_DISPATCH, t0,
                        {"tasks": dispatched},
                    )
                if in_flight == 0:
                    break  # an error drained the pipeline
                kind, payload = completions.get()
                in_flight -= 1
                if kind == "error":
                    # Abandon outstanding work: tasks queued behind the
                    # failure may never complete (their worker is gone).
                    error = payload
                    break
                remaining -= 1
                ready.extend(counts.release((payload,)))
        finally:
            for wq in work_queues:
                wq.put(None)
            for th in threads:
                th.join()
        if error is not None:
            raise error
        store.assert_drained()
