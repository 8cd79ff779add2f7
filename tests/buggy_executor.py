"""Seeded-bug executors exercising the schedule audits and the contract lint.

The executors below produce *bytewise-correct* outputs — input validation
passes on every task — while violating the scheduling contract in ways only
the schedule audit (:mod:`repro.check.hb_audit`) can see:

* :class:`DroppedEdgeExecutor` silently drops one dependence edge and
  substitutes the deterministic expected bytes for the missing input.  The
  values are "lucky" — identical to what the real producer computed — so
  validation cannot object, but the consumer never synchronized with its
  producer (``hb-missing-acquire``).
  :class:`UnluckyDroppedEdgeExecutor` fabricates the wrong bytes instead:
  the one fixture here whose run *fails* validation, for tests of what an
  observed run leaves behind when it raises.
* :class:`EarlyPublishExecutor` publishes each task's output *before*
  running its kernel, again using the deterministic expected bytes.
  Consumers validate clean, but the publish precedes the producer's finish
  (``hb-early-publish``): on a concurrent schedule they could observe an
  incomplete buffer.
* :class:`RacyStoreExecutor` runs two real threads over an *unlocked*
  shared dict, consumers spin-polling for their inputs.  The GIL makes
  the bytes come out right and the spin makes every publish precede its
  acquire in the recorded trace, so both validation and the
  happens-before audit pass — only the lockset sanitizer
  (:mod:`repro.check.concurrency`), which trusts nothing but real lock
  hand-offs, sees that the cross-thread reads synchronize on nothing
  (``conc-lockset-race``).

* :class:`KernelBypassExecutor` runs every kernel itself and takes the
  outputs straight from the output writer.  Every published byte is right,
  so the conformance capture cannot object — but no input of any task was
  ever validated.  Only the contract lint (:mod:`repro.check.api_lint`)
  sees the direct ``kernel.execute`` call (``api-kernel-bypass``).

They live in ``tests/`` because no real configuration should ever construct
them; they are audit fixtures, not runtimes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import validation
from repro.core.executor_base import Executor
from repro.core.task_graph import TaskGraph
from repro.runtimes._common import (
    EV_ACQUIRE,
    EV_FINISH,
    EV_PUBLISH,
    EV_START,
    ScratchPool,
    TaskKey,
    capture_output,
    record_event,
    task_keys,
)


def pick_victim(graphs: Sequence[TaskGraph]) -> Optional[TaskKey]:
    """The last task (program order) with at least one dependency."""
    victim: Optional[TaskKey] = None
    by_index = {g.graph_index: g for g in graphs}
    for gi, t, i in task_keys(graphs):
        if by_index[gi].num_dependencies(t, i) > 0:
            victim = (gi, t, i)
    return victim


class DroppedEdgeExecutor(Executor):
    """Serial executor that drops one dependence edge of one task.

    For the victim task's first dependency it never reads the producer's
    buffer; it fabricates the bytewise-identical expected output instead, so
    validation passes while the happens-before edge is gone.
    """

    name = "buggy-dropped-edge"
    cores = 1

    def __init__(self) -> None:
        #: The task whose first edge was dropped (set by execute_graphs).
        self.victim: Optional[TaskKey] = None

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        by_index = {g.graph_index: g for g in graphs}
        store: Dict[TaskKey, np.ndarray] = {}
        scratch = ScratchPool(graphs)
        self.victim = pick_victim(graphs)
        for gi, t, i in task_keys(graphs):
            g = by_index[gi]
            key = (gi, t, i)
            record_event(EV_START, key)
            inputs: List[np.ndarray] = []
            for n, j in enumerate(g.dependency_points(t, i)):
                source = (gi, t - 1, j)
                if key == self.victim and n == 0:
                    # The bug: no synchronization with the producer, just
                    # the right bytes by construction.
                    inputs.append(self.fabricate(g, t - 1, j))
                    continue
                inputs.append(store[source])
                record_event(EV_ACQUIRE, key, source)
            out = g.execute_point(
                t, i, inputs, scratch=scratch.get(gi, i), validate=validate
            )
            record_event(EV_FINISH, key)
            if g.consumer_count(t, i) > 0:
                store[key] = out
                record_event(EV_PUBLISH, key)


    @staticmethod
    def fabricate(g: TaskGraph, t: int, j: int) -> np.ndarray:
        return validation.task_output(g, t, j)


class UnluckyDroppedEdgeExecutor(DroppedEdgeExecutor):
    """The same dropped edge without the luck: the fabricated bytes are the
    wrong ones, so the victim's input validation fails mid-run."""

    name = "buggy-unlucky-dropped-edge"

    @staticmethod
    def fabricate(g: TaskGraph, t: int, j: int) -> np.ndarray:
        out = validation.task_output(g, t, j)
        out[0] ^= 0xFF
        return out


class EarlyPublishExecutor(Executor):
    """Serial executor that publishes outputs before computing them.

    The published buffer holds the deterministic expected bytes, so every
    consumer validates clean — but the publish is ordered before the
    producer's finish, the textbook shape of a buffer-reuse race.
    """

    name = "buggy-early-publish"
    cores = 1

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        by_index = {g.graph_index: g for g in graphs}
        store: Dict[TaskKey, np.ndarray] = {}
        scratch = ScratchPool(graphs)
        for gi, t, i in task_keys(graphs):
            g = by_index[gi]
            key = (gi, t, i)
            record_event(EV_START, key)
            inputs: List[np.ndarray] = []
            for j in g.dependency_points(t, i):
                source = (gi, t - 1, j)
                inputs.append(store[source])
                record_event(EV_ACQUIRE, key, source)
            if g.consumer_count(t, i) > 0:
                # The bug: hand consumers the (luckily correct) bytes
                # before the kernel has produced them.
                store[key] = validation.task_output(g, t, i)
                record_event(EV_PUBLISH, key)
            g.execute_point(
                t, i, inputs, scratch=scratch.get(gi, i), validate=validate
            )
            record_event(EV_FINISH, key)


#: Spin-poll interval and give-up deadline of the racy consumer loop.
_SPIN_SECONDS = 0.0002
_SPIN_DEADLINE = 10.0


class RacyStoreExecutor(Executor):
    """Two threads sharing a plain dict with no lock and no condition.

    Columns are partitioned by parity; every cross-parity dependence edge
    is therefore a cross-thread read of the unlocked ``store`` dict, which
    the consumer spin-polls (``while key not in store: sleep``) instead of
    waiting on any synchronization primitive.  Under CPython's GIL the
    dict operations are atomic and the spin guarantees publish-before-read
    in the recorded trace, so outputs validate bytewise and the
    happens-before audit finds nothing — the executor is wrong by
    construction, not by observable effect.  The lockset sanitizer flags
    every cross-thread read: empty candidate lockset, no lock-transfer
    happens-before edge.

    Scratch-free graphs only: the shared :class:`ScratchPool` lock would
    manufacture exactly the lock hand-off edges this fixture must not
    have.
    """

    name = "buggy-racy-store"
    cores = 2

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        for g in graphs:
            if g.scratch_bytes_per_task:
                raise ValueError(
                    "RacyStoreExecutor supports scratch-free graphs only"
                )
        by_index = {g.graph_index: g for g in graphs}
        store: Dict[TaskKey, np.ndarray] = {}
        failures: List[BaseException] = []

        def worker(parity: int) -> None:
            try:
                for gi, t, i in task_keys(graphs):
                    if i % 2 != parity:
                        continue
                    g = by_index[gi]
                    key = (gi, t, i)
                    record_event(EV_START, key)
                    inputs: List[np.ndarray] = []
                    for j in g.dependency_points(t, i):
                        source = (gi, t - 1, j)
                        deadline = time.monotonic() + _SPIN_DEADLINE
                        # The bug: no lock, no condition — just watching
                        # the dict until the other thread's write shows up.
                        while source not in store:
                            if failures or time.monotonic() > deadline:
                                raise RuntimeError(
                                    f"gave up waiting for {source}"
                                )
                            time.sleep(_SPIN_SECONDS)
                        inputs.append(store[source])
                        record_event(EV_ACQUIRE, key, source)
                    out = g.execute_point(t, i, inputs, validate=validate)
                    record_event(EV_FINISH, key)
                    if g.consumer_count(t, i) > 0:
                        # Publish event first, dict write second: a spinning
                        # consumer can only observe the key after the
                        # publish is on the trace, keeping hb_audit clean.
                        record_event(EV_PUBLISH, key)
                        store[key] = out
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [
            threading.Thread(
                target=worker, args=(p,), name=f"racy-store-{p}", daemon=True
            )
            for p in (0, 1)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=2 * _SPIN_DEADLINE)
        if failures:
            raise failures[0]
        if any(th.is_alive() for th in threads):
            raise RuntimeError("racy-store worker thread wedged")


class KernelBypassExecutor(Executor):
    """Serial row walk that never calls ``execute_row``/``execute_point``."""

    name = "buggy-kernel-bypass"

    @property
    def cores(self) -> int:
        return 1

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        for g in graphs:
            for t in range(g.timesteps):
                plan = g.row_plan(t)
                for i in range(plan.off, plan.off + plan.width):
                    # The bug: the kernel runs outside the core's entry
                    # points, so nothing checks what it was fed.
                    g.kernel.execute(t, i, seed=g.seed)
                outputs = validation.task_outputs(
                    g, t, plan.off, plan.off + plan.width
                )
                for k, out in enumerate(outputs):
                    if plan.consumers[k] > 0:
                        capture_output((g.graph_index, t, plan.off + k), out)
