"""Actor-model executor (Charm++ analogue, paper §3.2).

"Our Task Bench implementation uses a chare array for the task graph, with
one chare for each column.  Messages implement dependencies; a task executes
as soon as its dependencies are all available."

Each (graph, column) pair is an actor holding its own timestep cursor and a
buffer of out-of-order message arrivals.  Message delivery is asynchronous:
when the arrival completes an actor's input set for its next timestep, the
actor is scheduled onto the worker pool.  Because activation is purely
message-driven, independent graphs and independent columns interleave freely
— the task parallelism that lets actor systems hide communication and
mitigate load imbalance (paper §5.6-5.7).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ._common import ScratchPool, publish, run_task
from ._readypool import ReadyPool


class _Actor:
    """One chare: a column of one graph."""

    def __init__(self, graph: TaskGraph, column: int) -> None:
        self.graph = graph
        self.column = column
        self.lock = threading.Lock()
        # next timestep this actor will execute (skipping timesteps where
        # the column is inactive, e.g. during tree fan-out)
        self.next_t = self._first_active_t()
        # out-of-order arrivals: t -> {producer column -> buffer}
        self.inbox: Dict[int, Dict[int, np.ndarray]] = {}
        self.scheduled = False

    def _first_active_t(self) -> int:
        g = self.graph
        for t in range(g.timesteps):
            if g.contains_point(t, self.column):
                return t
        return g.timesteps  # column never active

    def advance(self) -> None:
        g = self.graph
        t = self.next_t + 1
        while t < g.timesteps and not g.contains_point(t, self.column):
            t += 1
        self.next_t = t

    def done(self) -> bool:
        return self.next_t >= self.graph.timesteps

    def ready_locked(self) -> bool:
        """Whether all inputs for ``next_t`` have arrived.  Caller holds
        ``self.lock``."""
        if self.done():
            return False
        t = self.next_t
        if t == 0:
            return True
        needed = self.graph.num_dependencies(t, self.column)
        return len(self.inbox.get(t, {})) == needed

    def take_inputs(self) -> List[np.ndarray]:
        """Inputs for ``next_t`` in canonical order.  Caller guarantees
        readiness."""
        t = self.next_t
        if t == 0:
            return []
        # Zero-dependency tasks (e.g. the trivial pattern) have no inbox
        # entry at all, hence the default.
        arrived = self.inbox.pop(t, {})
        return [arrived[j] for j in self.graph.dependency_points(t, self.column)]


class ActorExecutor(Executor):
    """Message-driven actors executed by a worker pool."""

    name = "actors"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        actors: Dict[Tuple[int, int], _Actor] = {
            (g.graph_index, i): _Actor(g, i)
            for g in graphs
            for i in range(g.max_width)
        }
        scratch = ScratchPool(graphs)
        # Work items are actors whose next task is ready; ``outstanding``
        # counts tasks, since an actor comes back once per timestep.
        pool = ReadyPool(outstanding=sum(g.total_tasks() for g in graphs))

        def schedule(actor: _Actor) -> None:
            """Enqueue an actor whose next task is ready.  Caller holds
            ``actor.lock``; ``scheduled`` prevents double-enqueueing."""
            if not actor.scheduled:
                actor.scheduled = True
                pool.complete(0, (actor,))  # no task retired, one made ready

        def deliver(dest: _Actor, t: int, producer: int, buf: np.ndarray) -> None:
            with dest.lock:
                dest.inbox.setdefault(t, {})[producer] = buf
                if dest.ready_locked():
                    schedule(dest)

        def fire(actor: _Actor) -> None:
            """Execute the actor's next task and send its outputs.

            ``actor.scheduled`` stays True for the whole execution so that
            concurrent message deliveries cannot re-enqueue the actor while
            it runs; readiness is re-checked after advancing."""
            g = actor.graph
            with actor.lock:
                t = actor.next_t
                inputs = actor.take_inputs()
            out = run_task(
                g, t, actor.column, inputs,
                scratch=scratch.get(g.graph_index, actor.column),
                validate=validate,
            )
            consumers = list(g.reverse_dependency_points(t, actor.column))
            if consumers:
                publish((g.graph_index, t, actor.column), out)
            for j in consumers:
                deliver(actors[(g.graph_index, j)], t + 1, actor.column, out)
            with actor.lock:
                actor.advance()
                # A successor timestep may already be ready (e.g. no deps,
                # or all messages arrived while this task ran): then the
                # actor goes straight back in, ``scheduled`` still held.
                again = actor.ready_locked()
                actor.scheduled = again
            pool.complete(1, (actor,) if again else ())

        # Seed: actors whose first task has no dependencies.
        for actor in actors.values():
            with actor.lock:
                if actor.ready_locked():
                    schedule(actor)

        def fire_all(claimed: List[_Actor]) -> None:
            for actor in claimed:
                fire(actor)

        pool.run(self.workers, fire_all, name="actor-worker")
