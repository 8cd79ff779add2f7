"""Inline sequential executor.

The limit case of a runtime with no scheduling machinery at all: tasks run
one after another in timestep order on the calling thread.  Analogous to the
paper's observation that the MPI shim "simply executes tasks one after
another in alternation with communication phases" — minus the communication.

One thread owns every column, so the unit of work is a **tile**: a stack of
whole rows (``TaskGraph.tile_plan``: as many as hold ``fastpath._BATCH``
tasks and ``validation._BULK_BYTES`` of inputs), run by
``TaskGraph.execute_tile`` in one frame.  The tile's buffer is the row before
it and every output of the tile, one copy of a memoised block; every input
of the tile is one ``take`` of that buffer, compared with the tile's
expected inputs by one ``memcmp`` before any kernel runs; and the tile's
last row is the next tile's row before.  Graphs take turns a tile at a time.
The reference counting an ``OutputStore`` would do is checked on the plans
instead: inside a tile when it is compiled, and across each tile boundary
here — the tile's first row must read every output of the row before
exactly as often as that row's consumer counts promise
(``_common.check_drained`` says what went wrong).  So a warm tile costs one
tile lookup, one ``take``, one ``memcmp`` and one copy, and nothing makes a
per-task view unless a sink is watching: then each row is retired, in
program order, as a view of the tile's buffer.

A graph whose full row is too large to be stamped as one block
(``validation.recycles_rows``), or has no bytes at all, goes a row at a
time through ``TaskGraph.execute_row`` and keeps each row as a list of
buffers; a large one has it written over the buffers of the row before
last, which nothing reads any more: two rows of buffers serve a whole run,
and were the gather ever to hand a task one of them a timestep late, the
timestep stamped into every header is what validation catches.
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ..core.validation import recycles_rows, tiles
from . import _common


class SerialExecutor(Executor):
    """Run every task inline on the calling thread, in program order."""

    name = "serial"
    isolation = "serial"

    @property
    def cores(self) -> int:
        return 1

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        tiled = [tiles(g) for g in graphs]
        # The row each graph's next step reads: a block for a tiled graph.
        rows: List[Sequence] = [
            np.empty((0, g.output_bytes_per_task), np.uint8) if tile else ()
            for g, tile in zip(graphs, tiled)]
        # The rows before those, for graphs that write over them.
        spare: List[Sequence | None] = [() if recycles_rows(g) else None
                                        for g in graphs]
        plans: List[Any] = [None] * len(graphs)  # what each last step ran
        scratch = [[g.prepare_scratch() for _ in range(g.max_width)]
                   if g.scratch_bytes_per_task else None for g in graphs]
        steps = [0] * len(graphs)
        while any(t < g.timesteps for t, g in zip(steps, graphs)):
            for n, g in enumerate(graphs):
                t = steps[n]
                if t >= g.timesteps:
                    continue
                plan = g.tile_plan(t) if tiled[n] else g.row_plan(t)
                before, plans[n] = plans[n], plan
                if before is not None and plan.reads != before.consumers:
                    _common.check_drained(g, t, before, plan)  # raises
                if tiled[n]:
                    buf = g.execute_tile(plan, rows[n], scratch=scratch[n],
                                         validate=validate)
                    rows[n], steps[n] = buf[plan.at[-2]:], plan.t1
                    if _common._sinks:
                        for u, lo, hi, a, b in plan.rows():
                            _common.retire_rows(g, u, lo, hi, buf[a:b])
                    continue
                row = rows[n]
                lo, hi = plan.off, plan.off + plan.width
                out = spare[n]
                if out is not None:
                    spare[n] = row
                    if len(out) != plan.width:
                        out = None
                rows[n], steps[n] = g.execute_row(
                    t, lo, hi, [row[j] for j in plan.flat],
                    scratch=scratch[n][lo:hi] if scratch[n] else None,
                    validate=validate, out=out, plan=plan,
                ), t + 1
                if _common._sinks:
                    _common.retire_rows(g, t, lo, hi, rows[n])
        for g, plan in zip(graphs, plans):
            _common.check_drained(g, g.timesteps, plan, None)
