"""Point-to-point message-passing executor (shared-memory p2p analogue).

Columns are block-partitioned across ``workers`` ranks, exactly like an MPI
Task Bench run maps columns to ranks.  Each rank advances timestep by
timestep: receive the inputs its tasks need from other ranks' posted
messages, execute, then send outputs to consumer ranks.  Sends are
non-blocking (mailbox posts), receives block until the message arrives —
the ``MPI_Isend``/``MPI_Irecv`` structure of the paper's best-performing MPI
variant (§3.4), but with *threads in one address space* standing in for
ranks: a "message" is a mailbox reference, nothing crosses a process
boundary.  For the genuinely distributed version of this pattern — rank
processes exchanging bytes over real sockets — see :mod:`repro.cluster`
(``cluster_tcp`` / ``cluster_uds``).  Unlike
:class:`~repro.runtimes.bulk_sync.BulkSyncExecutor` there is no global
barrier: ranks drift apart as far as the dependence pattern allows.
"""

from __future__ import annotations

import collections
import threading
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import (
    OutputStore,
    ScratchPool,
    TaskKey,
    block_owner,
    publish,
    run_task,
    task_keys,
)


class _ExecutionFailure:
    """Shared failure flag so one rank's error releases all blocked ranks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.error: BaseException | None = None

    def set(self, exc: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = exc

    def check(self) -> None:
        with self._lock:
            if self.error is not None:
                raise self.error


class Mailbox:
    """Per-rank incoming message store keyed by producer task.

    ``post`` is non-blocking; ``recv`` blocks until the keyed message is
    available, then decrements its local reference count (several consumer
    columns on one rank may read the same remote output).
    """

    def __init__(self, failure: _ExecutionFailure) -> None:
        self._cond = threading.Condition()
        self._messages: Dict[TaskKey, Tuple[np.ndarray, int]] = {}
        self._failure = failure

    def post(self, key: TaskKey, value: np.ndarray, consumers: int) -> None:
        with self._cond:
            if key in self._messages:
                raise RuntimeError(f"duplicate message for {key}")
            self._messages[key] = (value, consumers)
            self._cond.notify_all()

    def recv(self, key: TaskKey) -> np.ndarray:
        with self._cond:
            while key not in self._messages:
                self._failure.check()
                self._cond.wait(timeout=0.05)
            value, remaining = self._messages[key]
            if remaining == 1:
                del self._messages[key]
            else:
                self._messages[key] = (value, remaining - 1)
            return value

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._messages)


class P2PExecutor(Executor):
    """Rank-per-thread executor with point-to-point message passing."""

    name = "p2p"

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        nranks = self.workers
        by_index = {g.graph_index: g for g in graphs}
        failure = _ExecutionFailure()
        mailboxes = [Mailbox(failure) for _ in range(nranks)]
        locals_ = [OutputStore() for _ in range(nranks)]
        scratch = ScratchPool(graphs)

        def run(rank: int, g: TaskGraph, t: int, i: int) -> None:
            """Receive the inputs of task ``(t, i)``, execute it and send
            its output to the consumer ranks."""
            gi, width = g.graph_index, g.max_width
            local = locals_[rank]
            inputs = []
            for j in g.dependency_points(t, i):
                source = (gi, t - 1, j)
                if block_owner(j, width, nranks) == rank:
                    inputs.append(local.take(source))
                    continue
                t0 = trace.begin() if trace.enabled else 0
                inputs.append(mailboxes[rank].recv(source))
                if t0:
                    trace.complete(
                        "recv.wait", trace.CAT_SCHED, t0,
                        {"task": (gi, t, i), "source": source},
                    )
            out = run_task(
                g, t, i, inputs, scratch=scratch.get(gi, i), validate=validate
            )
            # Count consumer columns per destination rank, then send each
            # remote rank the message once (with its local consumer count)
            # and keep a refcounted local copy for same-rank consumers.
            per_rank = collections.Counter(
                block_owner(j, width, nranks)
                for j in g.reverse_dependency_points(t, i)
            )
            if per_rank:
                publish((gi, t, i), out)
            for dest, consumers in per_rank.items():
                if dest == rank:
                    local.put((gi, t, i), out, consumers)
                else:
                    mailboxes[dest].post((gi, t, i), out, consumers)

        def rank_main(rank: int) -> None:
            try:
                for gi, t, i in task_keys(graphs):
                    g = by_index[gi]
                    if block_owner(i, g.max_width, nranks) == rank:
                        run(rank, g, t, i)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failure.set(exc)
                for mb in mailboxes:
                    mb.wake()

        threads = [
            threading.Thread(
                target=rank_main, args=(rank,), name=f"p2p-rank-{rank}",
                daemon=True,
            )
            for rank in range(nranks)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        failure.check()
        for rank in range(nranks):
            locals_[rank].assert_drained()
            if len(mailboxes[rank]):
                raise RuntimeError(f"rank {rank} has undelivered messages")
