"""Supervised persistent fork-worker pool for the process-based executors.

``multiprocessing.Pool`` routes every dispatch through two helper threads
and a pair of locked shared queues; at the sub-millisecond granularities
METG probes, that machinery — not the payload movement — dominates each
timestep's barrier.  This pool is deliberately thin:

* ``workers`` processes forked once and **reused across runs** (fork cost
  is paid once per executor, not once per METG probe);
* one duplex pipe per worker, one message per worker per round, and no
  auxiliary threads: a round is "send each worker its chunk list, then
  collect each worker's results";
* workers are daemonic and additionally reaped by a ``weakref.finalize``
  on the owning pool, so dropping the last reference (or process exit)
  cleans them up without an explicit ``close()``.

On top of that the pool is **supervised** — the fault-tolerance layer the
METG methodology needs (one wedged worker must cost one probe, not the
sweep):

* receives are ``poll``-based with a configurable per-round deadline
  (``timeout``) and a short heartbeat interval, so a wedged worker
  surfaces as :class:`WorkerTimeoutError` and a killed one as
  :class:`WorkerCrashError` instead of an infinite ``recv`` hang;
* a worker that misses its deadline is killed with terminate→kill
  escalation, and the round's surviving workers are drained so the pipes
  stay in protocol sync;
* dead workers are respawned *in place* by :meth:`heal` — the pool object
  (and the owning executor's warm state) survives the fault; respawned
  workers boot from the pool's current ``initargs``, which the executor
  keeps pointed at its known-graph set;
* injected faults (:mod:`repro.faults`) attach to the *first* generation
  of a chosen worker only, so healed pools run clean — transient-fault
  semantics by construction.

The worker function is fixed at construction, so each round ships only the
chunks themselves.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
import weakref
from multiprocessing.connection import Connection
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from ..faults import (
    FaultSpec, WorkerCrashError, WorkerTimeoutError, apply_fault,
)
from ..trace import recorder as trace

#: Liveness-check interval while waiting on a worker reply (seconds).
HEARTBEAT_SECONDS = 0.05

#: Grace given to SIGTERM before escalating to SIGKILL (seconds).
_TERM_GRACE = 0.25

#: Grace given to the final join after SIGKILL (seconds).
_REAP_GRACE = 1.0

#: Minimum time allowed for draining a round's surviving workers after a
#: crash/timeout, so their pending replies leave the pipes (seconds).
_DRAIN_GRACE = 0.5


def _worker_main(
    conn: Connection,
    fn: Callable[[Any], Any],
    initializer: Callable[..., None] | None,
    initargs: Tuple[Any, ...],
    fault: FaultSpec | None,
) -> None:
    # A child forked mid-capture inherits the parent's recorder (and its
    # buffered history); discard it — the parent enables worker-side
    # tracing explicitly via a worker_begin broadcast.
    trace.fork_reset()
    # The child end of the pipe is closed in a finally: even an
    # initializer crash EOFs the parent's pipe instead of leaving it
    # blocked on a worker that will never reply.
    try:
        if initializer is not None:
            initializer(*initargs)
        rounds = 0
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            try:
                if isinstance(msg, tuple):  # control: (func, args) broadcast
                    func, fargs = msg
                    results = func(*fargs)
                else:  # a round's chunk list
                    if fault is not None and rounds == fault.round_index:
                        apply_fault(fault)  # crash/wedge never return
                    rounds += 1
                    results = [fn(c) for c in msg]
            except BaseException as exc:  # noqa: BLE001 - shipped to the parent
                tb = traceback.format_exc()
                try:
                    conn.send(("error", exc, tb))
                except Exception:  # unpicklable exception: ship a summary
                    conn.send(("error", WorkerCrashError(repr(exc)), tb))
                continue
            conn.send(("ok", results))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _reap(proc: mp.process.BaseProcess) -> None:
    """Stop one worker now, escalating terminate() -> kill() for a worker
    that ignores (or cannot service) SIGTERM."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=_TERM_GRACE)
    if proc.is_alive():  # SIGTERM ignored: escalate to SIGKILL
        proc.kill()
    proc.join(timeout=_REAP_GRACE)


def _shutdown(conns: List[Connection], procs: List[mp.process.BaseProcess]) -> None:
    for conn in conns:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    for proc in procs:
        # Cooperative exit first (the sentinel/EOF above ends the loop),
        # then terminate() -> kill() escalation for anything still alive.
        proc.join(timeout=_REAP_GRACE)
        _reap(proc)


class ForkWorkerPool:
    """``workers`` forked processes executing rounds of chunk lists.

    ``timeout`` is the per-round deadline in seconds (``None`` = wait
    forever, the pre-supervision behavior); ``fault`` arms one injected
    fault on the first generation of one worker (see :mod:`repro.faults`).
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: Tuple[Any, ...] = (),
        timeout: float | None = None,
        fault: FaultSpec | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.workers = workers
        self.timeout = timeout
        self._fn = fn
        self._initializer = initializer
        self._initargs = initargs
        self._ctx = mp.get_context("fork")
        # Supervision counters (read by the executors' fault reporting).
        self.crashes = 0
        self.timeouts = 0
        self.respawns = 0
        self._dead: Set[int] = set()
        # The finalizer closes over these list objects; _spawn mutates them
        # in place so respawned workers stay covered.
        conns: List[Connection] = [None] * workers  # type: ignore[list-item]
        procs: List[mp.process.BaseProcess] = [None] * workers  # type: ignore[list-item]
        self._conns = conns
        self._procs = procs
        for w in range(workers):
            self._spawn(w, fault if fault is not None and fault.worker == w else None)
        self._finalizer = weakref.finalize(self, _shutdown, conns, procs)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, w: int, fault: FaultSpec | None = None) -> None:
        """(Re)create worker ``w``'s pipe and process in place."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._fn, self._initializer, self._initargs, fault),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[w] = parent_conn
        self._procs[w] = proc

    def _mark_dead(self, w: int) -> None:
        """Record worker ``w`` as dead and release its parent-side pipe."""
        self._dead.add(w)
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover - already closed
            pass
        _reap(self._procs[w])

    @property
    def dead_workers(self) -> List[int]:
        """Indices of workers known (or newly found) to be dead."""
        for w in range(self.workers):
            if w not in self._dead and not self._procs[w].is_alive():
                self._mark_dead(w)
        return sorted(self._dead)

    @property
    def pids(self) -> List[int]:
        """Current pid of each worker slot (respawns change these)."""
        return [p.pid for p in self._procs]

    def heal(self, *, initargs: Tuple[Any, ...] | None = None) -> int:
        """Respawn every dead worker in place; returns how many were.

        With ``initargs``, future (re)spawns boot with the new initializer
        arguments — the executor points these at its current known-graph
        set so a healed worker's cache is coherent without a broadcast
        replay for the whole pool.
        """
        self._ensure_open()
        if initargs is not None:
            self._initargs = initargs
        dead = self.dead_workers
        for w in dead:
            self._spawn(w)  # respawned generations never carry a fault
        self._dead.clear()
        self.respawns += len(dead)
        return len(dead)

    # ------------------------------------------------------------------
    # Deadline-guarded receive
    # ------------------------------------------------------------------
    def _recv(self, w: int, deadline: float | None) -> Any:
        """Receive one reply from worker ``w``, guarded by ``deadline``
        (an absolute ``time.monotonic()`` instant, or ``None``).

        Polls in :data:`HEARTBEAT_SECONDS` slices so a worker that dies
        without EOFing promptly, or wedges forever, is detected within one
        heartbeat of the evidence.  On failure the worker is reaped and
        marked dead (respawn via :meth:`heal`), and a typed error raised.
        """
        conn = self._conns[w]
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.timeouts += 1
                    self._mark_dead(w)
                    raise WorkerTimeoutError(
                        f"worker {w} (pid {self._procs[w].pid}) missed the "
                        f"{self.timeout:g}s round deadline; it has been "
                        "killed (heal() respawns it)"
                    )
                wait = min(HEARTBEAT_SECONDS, remaining)
            else:
                wait = HEARTBEAT_SECONDS
            try:
                if conn.poll(wait):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                self.crashes += 1
                self._mark_dead(w)
                raise WorkerCrashError(
                    f"worker {w} died without reporting an exception"
                ) from exc
            if not self._procs[w].is_alive() and not conn.poll(0):
                # Heartbeat: the process is gone and its pipe is silent.
                self.crashes += 1
                code = self._procs[w].exitcode
                self._mark_dead(w)
                raise WorkerCrashError(
                    f"worker {w} exited with code {code} mid-round"
                )

    def _drain(self, pending: Sequence[int], deadline: float | None) -> None:
        """Best-effort collection of replies still owed by ``pending``
        workers after a round failed, so surviving pipes return to
        protocol sync.  Workers that cannot reply by the (grace-extended)
        deadline are killed and marked for respawn."""
        grace = time.monotonic() + _DRAIN_GRACE
        drain_deadline = grace if deadline is None else max(deadline, grace)
        for w in pending:
            if w in self._dead:
                continue
            try:
                self._recv(w, drain_deadline)
            except (WorkerCrashError, WorkerTimeoutError):
                continue  # already reaped and marked by _recv

    def _send(self, targets: Sequence[int], messages: List[Any]) -> None:
        """Send each target worker its message; a broken pipe reaps the
        worker and aborts the round with a typed error."""
        for w in targets:
            try:
                self._conns[w].send(messages[w])
            except (BrokenPipeError, OSError) as exc:
                self.crashes += 1
                self._mark_dead(w)
                # Workers earlier in `targets` already hold a message and
                # will reply; drain them so the pipes stay in sync.
                sent = [v for v in targets if v < w]
                self._drain(sent, None)
                raise WorkerCrashError(
                    f"worker {w} died before the round was dispatched"
                ) from exc

    # ------------------------------------------------------------------
    # Rounds and broadcasts
    # ------------------------------------------------------------------
    def _exchange(
        self, targets: Sequence[int], messages: List[Any]
    ) -> Tuple[List[Optional[Any]], BaseException | None]:
        """Send each target worker its message and collect one reply from
        each, under the round deadline; a barrier.

        Returns one slot per worker index (``None`` where a worker was not
        targeted or reported an error) and the error to raise, if any
        worker reported one.  A worker that crashes or misses the deadline
        raises :class:`WorkerCrashError` / :class:`WorkerTimeoutError`
        instead; the surviving workers are drained first (never left with
        replies in flight) and the pool remains usable after :meth:`heal`.
        """
        self._ensure_open()
        self._send(targets, messages)
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        out: List[Optional[Any]] = [None] * self.workers
        failure: BaseException | None = None
        for pos, w in enumerate(targets):
            try:
                status, *payload = self._recv(w, deadline)
            except (WorkerCrashError, WorkerTimeoutError):
                self._drain(targets[pos + 1:], deadline)
                raise
            if status == "error":
                exc, tb = payload
                exc.add_note(f"worker {w} traceback:\n{tb}")
                failure = self._prefer_failure(failure, exc)
            else:
                out[w] = payload[0]
        return out, failure

    @staticmethod
    def _prefer_failure(
        current: BaseException | None, exc: BaseException
    ) -> BaseException:
        """Pick the round's failure to re-raise: the first *primary* error.

        Workers that synchronize among themselves mid-round (the shm
        window barrier) raise marker errors (``secondary_error = True``)
        when a *peer* failed; reporting order is worker order, so without
        this preference a bystander's "peer aborted" could mask the actual
        root cause raised by a later-numbered worker.
        """
        if current is None:
            return exc
        if getattr(current, "secondary_error", False) and not getattr(
            exc, "secondary_error", False
        ):
            return exc
        return current

    def run_assigned(self, frames: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Execute pre-assigned per-worker frames; a barrier.

        ``frames[w]`` is the chunk list shipped to worker ``w`` (an empty
        list skips the worker this round); the return value is one result
        list per worker, aligned with ``frames``.  The executors build each
        worker's whole round up front, so a round costs exactly one send
        and one receive per participating worker and no result remapping.
        Failures surface as described in :meth:`_exchange`.
        """
        if len(frames) != self.workers:
            raise ValueError(
                f"expected {self.workers} frames, got {len(frames)}"
            )
        t0 = trace.begin() if trace.enabled else 0
        frames = [list(f) for f in frames]
        active = [w for w in range(self.workers) if frames[w]]
        replies, failure = self._exchange(active, frames)
        if failure is not None:
            raise failure
        if t0:
            # One span per round: dispatch + barrier, the per-timestep
            # cost METG probes pay on the process executors.
            trace.complete(
                "pool.round", trace.CAT_DISPATCH, t0,
                {"chunks": sum(len(f) for f in frames)},
            )
        return [[] if reply is None else reply for reply in replies]

    def run_round(self, chunks: Sequence[Any]) -> List[Any]:
        """Execute ``chunks`` across the workers; a barrier — returns once
        every chunk of the round completed, in input order.

        The pool does the assignment (chunk ``k`` runs on worker
        ``k % workers``); everything else is :meth:`run_assigned`.
        """
        n = self.workers
        per_worker = self.run_assigned([chunks[w::n] for w in range(n)])
        results: List[Any] = [None] * len(chunks)
        for w, values in enumerate(per_worker):
            results[w::n] = values
        return results

    def broadcast(self, func: Callable[..., Any], *args: Any) -> List[Optional[Any]]:
        """Run ``func(*args)`` once in *every* worker; a barrier.

        Used for worker-state maintenance (e.g. refreshing per-process
        graph caches) that must reach all workers, not just the ones a
        round's chunk assignment happens to touch.

        Returns one slot per worker index.  When some workers raise, the
        first error is re-raised with the per-worker slots (``None`` for
        the erroring workers) attached as ``partial_results`` — results
        never silently shift to different worker indices.
        """
        out, failure = self._exchange(
            range(self.workers), [(func, args)] * self.workers
        )
        if failure is not None:
            failure.partial_results = out  # type: ignore[attr-defined]
            raise failure
        return out

    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if not self._finalizer.alive:
            raise RuntimeError("worker pool is closed")

    def close(self) -> None:
        """Shut the workers down.  Idempotent; also runs automatically when
        the pool is garbage-collected."""
        self._finalizer()
