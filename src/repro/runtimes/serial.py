"""Inline sequential executor.

The limit case of a runtime with no scheduling machinery at all: tasks run
one after another in timestep order on the calling thread.  Analogous to the
paper's observation that the MPI shim "simply executes tasks one after
another in alternation with communication phases" — minus the communication.

One thread owns every column, so a whole timestep row is one block: each row
is gathered from the previous row's outputs (kept as a plain list) with the
row plan's flattened indices, executed by one ``TaskGraph.execute_row`` call
and kept for the next row.  The reference counting an ``OutputStore`` would
do is checked on the plans instead: each row must read every output of the
previous row exactly as often as that row's consumer counts promise.

A graph whose full row is too large to be stamped as one block
(``validation.recycles_rows``) has each row written over the buffers of the
row before last, which nothing reads any more: two rows of buffers serve a
whole run, and were the gather ever to hand a task one of them a timestep
late, the timestep stamped into every header is what validation catches.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.executor_base import Executor
from ..core.fastpath import RowPlan
from ..core.task_graph import TaskGraph
from ..core.validation import recycles_rows
from ._common import retire_rows


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
        spare: List[Sequence | None] = [
            () if recycles_rows(g) else None for g in graphs
        ]
        plans: List[RowPlan | None] = [None] * len(graphs)
        scratch = [
            [g.prepare_scratch() for _ in range(g.max_width)]
            if g.scratch_bytes_per_task else None
            for g in graphs
        ]
        for t in range(max(g.timesteps for g in graphs)):
            for n, g in enumerate(graphs):
                if t >= g.timesteps:
                    continue
                plan = g.row_plan(t)
                before = plans[n]
                if before is not None and plan.reads != before.consumers:
                    _raise_undrained(g, t - 1, before.consumers, plan.reads)
                row = rows[n]
                lo = plan.off
                hi = lo + plan.width
                buffers = scratch[n]
                out = spare[n]
                if out is not None:
                    spare[n] = row
                    if len(out) != plan.width:
                        out = None
                rows[n] = outputs = g.execute_row(
                    t, lo, hi, [row[j] for j in plan.flat],
                    scratch=buffers[lo:hi] if buffers else None,
                    validate=validate, out=out,
                )
                plans[n] = plan
                retire_rows(g, t, lo, hi, outputs)
        for g, plan in zip(graphs, plans):
            if any(plan.consumers):
                _raise_undrained(
                    g, g.timesteps - 1, plan.consumers, [0] * plan.width
                )


def _raise_undrained(
    g: TaskGraph, t: int, consumers: Sequence[int], reads: Sequence[int]
) -> None:
    """Row ``t`` promised ``consumers`` reads per output and the next row
    makes ``reads``: some output would be leaked or over-read."""
    raise RuntimeError(
        f"graph {g.graph_index}: outputs of timestep {t} were published for "
        f"{list(consumers)} reads but are read {list(reads)} times — task "
        "outputs never consumed (or consumed twice)"
    )
