"""Asyncio dataflow executor (Swift/T analogue, paper §3.13).

Swift/T programs "follow dataflow semantics, where every statement may
potentially execute in parallel as soon as its dependencies are satisfied".
Here every task is a coroutine awaiting the futures of its inputs; a
semaphore of ``workers`` permits stands in for the cores, so at most
``workers`` kernels execute concurrently while an unbounded number of tasks
may be suspended awaiting dependencies — exactly the
cheap-waiting/expensive-running split of dataflow engines.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Sequence

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ._common import ScratchPool, TaskKey, publish, run_task, task_keys


class AsyncioExecutor(Executor):
    """Coroutine-per-task dataflow execution on an asyncio event loop."""

    name = "asyncio"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        asyncio.run(self._run(list(graphs), validate))

    async def _run(self, graphs: Sequence[TaskGraph], validate: bool) -> None:
        by_index = {g.graph_index: g for g in graphs}
        scratch = ScratchPool(graphs)
        sem = asyncio.Semaphore(self.workers)
        loop = asyncio.get_running_loop()
        outputs: Dict[TaskKey, asyncio.Future] = {
            key: loop.create_future() for key in task_keys(graphs)
        }

        async def task(gi: int, t: int, i: int) -> None:
            g = by_index[gi]
            key = (gi, t, i)
            inputs = [
                await outputs[(gi, t - 1, j)] for j in g.dependency_points(t, i)
            ]
            async with sem:  # a core
                # No await inside run_task: the kernel runs synchronously
                # on the loop thread, so kernel spans on this single track
                # never overlap.
                out = run_task(
                    g, t, i, inputs, scratch=scratch.get(gi, i),
                    validate=validate,
                )
            if g.consumer_count(t, i) > 0:
                publish(key, out)
            outputs[key].set_result(out)

        coros = [task(gi, t, i) for gi, t, i in task_keys(graphs)]
        # gather cancels nothing on failure by default with
        # return_exceptions=False; wrap so unfinished futures don't warn.
        try:
            await asyncio.gather(*coros)
        finally:
            for f in outputs.values():
                if not f.done():
                    f.cancel()
