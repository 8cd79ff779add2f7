"""The ready pool: what every executor that feeds N interchangeable worker
threads from a queue of ready work shares.

``threads``, ``ptg``, ``dataflow`` and ``actors`` differ in *what becomes
ready when* — dependency counts, a pre-expanded DAG, edges inferred from
data accesses, message arrivals.  Everything else is here, once: the FIFO
ready queue, the count of work not yet completed (which decides when
workers may stop), the first-error latch, and the worker threads themselves.
All waits are event-driven: every state change that can unblock a worker
notifies the condition, so nothing polls.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Callable, Dict, Iterable, List, Sequence

from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import TaskKey


class ReadyPool:
    """FIFO queue of ready work items shared by worker threads.

    ``outstanding`` counts the work items (ready or still blocked) that have
    not completed; workers stop once it reaches zero on a *sealed* pool —
    one that will be sent no further work.  A pool is born open, so work
    can be submitted (:meth:`add`) while workers already run, and is sealed
    by :meth:`run` or :meth:`seal`.

    ``lock`` is re-entrant and public: a caller whose own dependency state
    decides what :meth:`complete` or :meth:`add` makes ready updates that
    state and calls the method under one ``with pool.lock``.
    """

    #: Cap on items claimed per lock acquisition: bounds the scheduling
    #: latency a slow batch can impose on newly-ready consumers.
    MAX_CLAIM = 8

    def __init__(self, ready: Iterable[Any] = (), outstanding: int = 0) -> None:
        self.lock = threading.Condition()
        self._ready: collections.deque = collections.deque(ready)
        self._outstanding = outstanding
        self._sealed = False
        #: The first exception a worker (or :meth:`fail`) reported.
        self.error: BaseException | None = None

    def _wake(self, newly: int) -> None:
        """Wake as many workers as there is new work for — all of them once
        nothing is left, so they can exit.  Caller holds the lock."""
        if self._sealed and self._outstanding == 0:
            self.lock.notify_all()
        elif newly:
            self.lock.notify(newly)

    def add(self, item: Any, *, ready: bool) -> None:
        """Submit one more work item to an open pool; it enters the
        queue now if ``ready``, else through a later :meth:`complete`.
        Raises the pool's error once a worker has failed, so the submitter
        stops too."""
        with self.lock:
            if self.error is not None:
                raise self.error
            self._outstanding += 1
            if ready:
                self._ready.append(item)
                self.lock.notify()

    def seal(self) -> None:
        """No further :meth:`add` will come."""
        with self.lock:
            self._sealed = True
            self._wake(0)

    def claim(self, share: int | None = None) -> List[Any] | None:
        """Block until work is ready and claim it: one item, or with
        ``share`` up to ``1/share`` of the queue (at least one item, at
        most :data:`MAX_CLAIM`) in one lock acquisition.  ``None`` when the
        pool is finished or failed.

        Claiming several items amortizes the lock/condition overhead while
        leaving the remainder to the other workers, so parallelism is
        preserved whenever the ready set is wider than the pool.
        """
        with self.lock:
            ready = self._ready
            while self.error is None:
                if ready:
                    n = 1
                    if share:
                        n = max(1, min(len(ready) // share, self.MAX_CLAIM))
                    return [ready.popleft() for _ in range(n)]
                if self._sealed and self._outstanding == 0:
                    return None
                self.lock.wait()
            return None

    def complete(self, done: int, ready: Sequence[Any] = ()) -> None:
        """Retire ``done`` claimed items and enqueue the items that made
        ``ready``, waking only as many workers as items were enqueued (a
        completion that releases nothing wakes nobody)."""
        with self.lock:
            self._outstanding -= done
            self._ready.extend(ready)
            self._wake(len(ready))

    def fail(self, exc: BaseException) -> None:
        """Latch the first error and release every waiting worker."""
        with self.lock:
            if self.error is None:
                self.error = exc
            self.lock.notify_all()

    def work(self, body: Callable[[List[Any]], None], share: int | None = None) -> None:
        """One worker's loop, on the calling thread: claim, ``body(items)``,
        until the pool is finished.  ``body`` must :meth:`complete` what it
        was given; anything it raises fails the pool."""
        try:
            while True:
                t0 = trace.begin() if trace.enabled else 0
                items = self.claim(share)
                if t0:
                    trace.complete("sched.wait", trace.CAT_SCHED, t0)
                if items is None:
                    return
                body(items)
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self.fail(exc)

    def run(
        self, workers: int, body: Callable[[List[Any]], None], *,
        name: str, share: int | None = None,
        feed: Callable[[], None] | None = None,
    ) -> None:
        """Run the pool to completion: start ``workers`` daemon threads
        named ``{name}-{w}`` on :meth:`work`, call ``feed`` (which may
        :meth:`add` work while they run), seal, join them and re-raise the
        first error."""
        threads = [
            threading.Thread(
                target=self.work, args=(body, share), name=f"{name}-{w}",
                daemon=True,
            )
            for w in range(workers)
        ]
        for th in threads:
            th.start()
        try:
            if feed is not None:
                feed()
        finally:
            self.seal()
            for th in threads:
                th.join()
        if self.error is not None:
            raise self.error


class DependencyCounts:
    """Unmet-input counters of every task of ``graphs`` — dependency
    counting, the scheduling state of ``threads`` and ``centralized``.

    ``ready`` holds the tasks born ready and ``total`` counts all tasks.
    Not thread-safe: the caller serializes :meth:`release` (the thread pool
    under its ready pool's lock, the controller by being one thread).
    """

    def __init__(self, graphs: Sequence[TaskGraph]) -> None:
        self.graphs = {g.graph_index: g for g in graphs}
        self.ready: List[TaskKey] = []
        self.total = 0
        self._pending: Dict[TaskKey, int] = {}
        for g in graphs:
            gi = g.graph_index
            for t in range(g.timesteps):
                off, counts = g.dependency_count_row(t)
                self.total += len(counts)
                for k, ndeps in enumerate(counts):
                    if ndeps == 0:
                        self.ready.append((gi, t, off + k))
                    else:
                        self._pending[(gi, t, off + k)] = ndeps

    def release(self, done: Iterable[TaskKey]) -> List[TaskKey]:
        """The tasks whose last unmet input one of ``done`` was."""
        pending = self._pending
        newly: List[TaskKey] = []
        for gi, t, i in done:
            for j in self.graphs[gi].reverse_dependency_columns(t, i):
                key = (gi, t + 1, j)
                left = pending[key] - 1
                if left == 0:
                    del pending[key]
                    newly.append(key)
                else:
                    pending[key] = left
        return newly
