"""Inline sequential executor.

The limit case of a runtime with no scheduling machinery at all: tasks run
one after another in timestep order on the calling thread.  Analogous to the
paper's observation that the MPI shim "simply executes tasks one after
another in alternation with communication phases" — minus the communication.

One thread owns every column, so a whole timestep row is one block, and the
row is one buffer: what ``TaskGraph.execute_row`` returns for a row — a
``(width, nbytes)`` array — is kept as it is, the next row's inputs are one
``take`` of it with the row plan's index array (``_common.gather_row``'s
whole-row case, done in the loop), validated where they lie, and nothing
makes a per-task view unless a sink is watching.  The reference counting an
``OutputStore`` would do is checked on the plans instead: each row must read
every output of the previous row exactly as often as that row's consumer
counts promise (compared in the loop; ``_common.check_drained`` says what
went wrong).  The plan looked up for the gather is the one ``execute_row``
runs the row from, so a warm row costs one plan lookup, one ``take``, one
``memcmp`` and one copy of the memoised output block.

A graph whose full row is too large to be stamped as one block
(``validation.recycles_rows``) keeps each row as a list of buffers and has
it written over the buffers of the row before last, which nothing reads any
more: two rows of buffers serve a whole run, and were the gather ever to
hand a task one of them a timestep late, the timestep stamped into every
header is what validation catches.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.executor_base import Executor
from ..core.fastpath import RowPlan
from ..core.task_graph import TaskGraph
from ..core.validation import recycles_rows
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
        rows: List[Sequence] = [()] * len(graphs)
        # The rows before those, for graphs that write over them.
        spare: List[Sequence | None] = [() if recycles_rows(g) else None
                                        for g in graphs]
        plans: List[RowPlan | None] = [None] * len(graphs)
        scratch = [[g.prepare_scratch() for _ in range(g.max_width)]
                   if g.scratch_bytes_per_task else None for g in graphs]
        for t in range(max(g.timesteps for g in graphs)):
            for n, g in enumerate(graphs):
                if t >= g.timesteps:
                    continue
                plan = g.row_plan(t)
                before, plans[n] = plans[n], plan
                if before is not None and plan.reads != before.consumers:
                    _common.check_drained(g, t, before, plan)  # raises
                row = rows[n]
                lo, hi = plan.off, plan.off + plan.width
                out = spare[n]
                if out is not None:
                    spare[n] = row
                    if len(out) != plan.width:
                        out = None
                rows[n] = g.execute_row(
                    t, lo, hi, row.take(plan.index, 0)
                    if type(row) is np.ndarray else [row[j] for j in plan.flat],
                    scratch=scratch[n][lo:hi] if scratch[n] else None,
                    validate=validate, out=out, plan=plan,
                )
                if _common._sinks:
                    _common.retire_rows(g, t, lo, hi, rows[n])
        for g, plan in zip(graphs, plans):
            _common.check_drained(g, g.timesteps, plan, None)
