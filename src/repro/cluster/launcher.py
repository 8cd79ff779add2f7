"""Launcher: spawn, supervise, and talk to a mesh of rank processes.

:class:`Cluster` is the parent-side half of the distributed executors.
It forks ``ranks`` daemon processes running :func:`repro.cluster.rank.rank_main`,
performs the address exchange (every rank binds its listener first, then
all addresses are broadcast, so mesh connection can never deadlock), and
then drives runs: one ``("run", spec)`` control message per rank per
epoch, one ``("done", stats)`` reply each — preceded, on an observed run
only, by one ``("rows", epoch, t, blocks)`` per timestep a rank ran tasks
in, whose row blocks are checked and retired as they arrive
(:class:`_RowStream`).

Supervision follows the same discipline as the fork pool
(:mod:`repro.runtimes._procpool`):

* collection is ``wait``-based with a heartbeat slice and an optional
  per-run deadline — a wedged rank surfaces as
  :class:`~repro.faults.WorkerTimeoutError` instead of a hang;
* a rank that dies EOFs its control pipe (and its peer sockets, which the
  surviving ranks report as ``PeerDiedError``); both kinds of evidence
  collapse into one :class:`~repro.faults.WorkerCrashError`;
* after any failure the mesh is broken beyond repair (sockets half-dead,
  epochs desynchronized), so the whole cluster is torn down — the owning
  executor relaunches a fresh mesh on the next run and accounts the
  relaunch as respawns;
* teardown runs via ``weakref.finalize`` as well, so a dropped cluster
  (or interpreter exit) reaps its ranks and removes its socket directory
  without an explicit ``close()``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import shutil
import tempfile
import time
import weakref
from collections import deque
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.metrics import WireStats
from ..core.task_graph import TaskGraph
from ..faults import FaultSpec, WorkerCrashError, WorkerTimeoutError
from ..runtimes._common import block_owner
from ..trace import recorder as trace_recorder
from ..trace.merge import align_offset
from .transport import HEARTBEAT_SECONDS, PeerDiedError, TRANSPORTS
from .wire import MSG_TRACE, WireError, decode

#: One rank's trace pull: (rank, clock offset in ns, buffer dump).
RankTrace = Tuple[int, int, List[Any]]

#: Deadline for the fork + address exchange + mesh connection phase.
SETUP_TIMEOUT_SECONDS = 60.0

#: Grace given to surviving ranks to report after a failure is detected.
_DRAIN_GRACE = 2.0

#: Grace given to SIGTERM / the final join during teardown (seconds).
_TERM_GRACE = 0.25
_REAP_GRACE = 1.0


def _wire_graph(g: TaskGraph) -> TaskGraph:
    """A copy of ``g`` without memoized state, cheap to pickle (same
    rationale as :func:`repro.runtimes.processes.wire_graph`)."""
    return dataclasses.replace(g)


def _reap(proc: mp.process.BaseProcess) -> None:
    """Stop one rank now, escalating terminate() -> kill()."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=_TERM_GRACE)
    if proc.is_alive():  # SIGTERM ignored (wedged): escalate
        proc.kill()
    proc.join(timeout=_REAP_GRACE)


def _shutdown(
    conns: List[Connection],
    procs: List[mp.process.BaseProcess],
    uds_dir: Optional[str],
) -> None:
    for conn in conns:
        try:
            conn.send(("shutdown",))
        except (BrokenPipeError, OSError):
            pass
    for proc in procs:
        proc.join(timeout=_REAP_GRACE)
    for proc in procs:
        _reap(proc)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    if uds_dir is not None:
        shutil.rmtree(uds_dir, ignore_errors=True)


def _rows(graphs: Sequence[TaskGraph], ranks: int) -> Iterator[tuple]:
    """Every row of a run, as ``(graph, timestep, first column, owning rank
    of each column)``, in the order its sinks see them: timestep-major and
    graph-interleaved — a valid linearization of the real schedule (a rank
    cannot run timestep ``t+1`` of a column before its timestep-``t`` inputs
    were published)."""
    for t in range(max(g.timesteps for g in graphs)):
        for g in graphs:
            if t < g.timesteps:
                lo = g.offset_at_timestep(t)
                yield g, t, lo, [
                    block_owner(i, g.max_width, ranks)
                    for i in range(lo, lo + g.width_at_timestep(t))
                ]


class _RowStream:
    """The parent's end of one observed epoch's ``rows`` messages.

    A row goes to ``retire(g, t, lo, hi, outputs)`` as soon as every rank
    owning a block of it has reported and every row before it in sink order
    has gone; only blocks waiting for that are held — rows in flight, never
    the run.  What a rank reports must be exactly what it owes next
    (timestep, graph, first column and task count under ``block_owner``):
    anything else — a column it does not own, a block sent twice — raises
    :class:`WireError` instead of reaching a sink.
    """

    def __init__(
        self, graphs: Sequence[TaskGraph], ranks: int, retire: Callable[..., None]
    ) -> None:
        self._order = _rows(graphs, ranks)
        self._due = next(self._order, None)
        self._held: List[deque] = [deque() for _ in range(ranks)]
        self._retire = retire

    def add(self, rank: int, t: int, blocks: list) -> None:
        self._held[rank].extend((t, *block) for block in blocks)
        while self._due and all(self._held[r] for r in self._due[3]):
            g, t, lo, owners = self._due
            row: list = []
            for r in dict.fromkeys(owners):
                *got, outputs = self._held[r].popleft()
                owed = [t, g.graph_index, lo + len(row), owners.count(r)]
                if got + [len(outputs)] != owed:
                    raise WireError(
                        f"rank {r} reported row block {got + [len(outputs)]} "
                        f"where it owed {owed} (timestep, graph, column, tasks)"
                    )
                row += outputs
            self._retire(g, t, lo, lo + len(row), row)
            self._due = next(self._order, None)

    def finish(self) -> None:
        """Every rank said ``done``: nothing may be owed or left over."""
        if self._due or any(self._held):
            raise WireError("a rank finished without reporting every row block")


class Cluster:
    """``ranks`` connected rank processes executing epochs of task graphs.

    ``kind`` selects the transport (``"tcp"`` or ``"uds"``); ``timeout``
    is the per-run deadline in seconds (``None`` = wait forever);
    ``fault`` arms one injected fault in the matching rank's first run.
    A cluster that failed (or was closed) refuses further runs — the
    owning executor relaunches instead.
    """

    def __init__(
        self,
        ranks: int,
        kind: str,
        *,
        timeout: float | None = None,
        fault: FaultSpec | None = None,
    ) -> None:
        if ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {ranks}")
        if kind not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {kind!r}; expected one of {TRANSPORTS}"
            )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.ranks = ranks
        self.kind = kind
        self.timeout = timeout
        self.epoch = 0
        self.dead = False
        # Supervision counters (read by the executor's fault reporting).
        self.crashes = 0
        self.timeouts = 0
        self._known: Dict[int, TaskGraph] = {}
        self._uds_dir = (
            tempfile.mkdtemp(prefix="taskbench-cluster-")
            if kind == "uds"
            else None
        )
        ctx = mp.get_context("fork")
        from .rank import rank_main  # deferred: avoid import-cycle surprises

        self._conns: List[Connection] = []
        self._procs: List[mp.process.BaseProcess] = []
        self._finalizer = weakref.finalize(
            self, _shutdown, self._conns, self._procs, self._uds_dir
        )
        try:
            for r in range(ranks):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=rank_main,
                    args=(
                        r,
                        ranks,
                        child_conn,
                        kind,
                        self._uds_dir,
                        fault if fault is not None and fault.worker == r else None,
                        # Rank-side mailbox-wait deadline: mirrors the
                        # launcher's run deadline so a lost wakeup aborts
                        # in the rank before the parent has to SIGKILL it.
                        timeout,
                    ),
                    daemon=True,
                    name=f"cluster-rank-{r}",
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            self._exchange_addresses()
        except BaseException:
            self._destroy()
            raise

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _exchange_addresses(self) -> None:
        deadline = time.monotonic() + SETUP_TIMEOUT_SECONDS
        addresses: List[Any] = [None] * self.ranks
        for r, msg in self._collect(deadline, phase="address exchange"):
            self._check_setup_reply(r, msg, "address")
            addresses[r] = msg[1]
        for conn in self._conns:
            conn.send(("peers", addresses))
        for r, msg in self._collect(deadline, phase="mesh connection"):
            self._check_setup_reply(r, msg, "ready")

    @staticmethod
    def _check_setup_reply(r: int, msg: Tuple[Any, ...], expected: str) -> None:
        if msg[0] == expected:
            return
        if msg[0] == "error":
            raise WorkerCrashError(
                f"rank {r} failed during setup: {msg[1]!r}\n{msg[2]}"
            )
        raise WorkerCrashError(
            f"rank {r} reported {msg[0]!r} while {expected!r} was expected"
        )

    def _collect(self, deadline: float | None, *, phase: str):
        """Yield one control message per rank, supervised.

        EOF from a rank raises :class:`WorkerCrashError`; missing the
        deadline raises :class:`WorkerTimeoutError`.  An ``("error", ...)``
        message is passed through to the caller.
        """
        pending: Dict[Connection, int] = {
            conn: r for r, conn in enumerate(self._conns)
        }
        while pending:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    laggards = sorted(pending.values())
                    raise WorkerTimeoutError(
                        f"ranks {laggards} missed the deadline during {phase}"
                    )
                wait_s = min(HEARTBEAT_SECONDS, remaining)
            else:
                wait_s = HEARTBEAT_SECONDS
            for conn in conn_wait(list(pending), timeout=wait_s):
                r = pending.pop(conn)  # type: ignore[index]
                try:
                    msg = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrashError(
                        f"rank {r} died during {phase}"
                    ) from exc
                yield r, msg

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run(
        self,
        graphs: Sequence[TaskGraph],
        *,
        validate: bool = True,
        rows: Callable[..., None] | None = None,
        capture: bool = False,
        trace: bool = False,
    ) -> Tuple[WireStats, Optional[List[RankTrace]]]:
        """Execute one epoch across the mesh.

        With ``rows`` the run is observed: the ranks report every timestep
        as it ends and ``rows(g, t, lo, hi, outputs)`` — the signature of
        :func:`repro.runtimes._common.retire_rows` — is called for each row
        as soon as it is complete and its turn in timestep-major order,
        ``outputs`` holding the ``bytes`` snapshot its rank took of each task
        that has readers when ``capture`` and ``None`` otherwise.  Returns the merged
        per-rank :class:`WireStats` delta and — when ``trace`` — each rank's
        span-buffer dump with its clock-alignment offset (``None``
        otherwise).  Any failure tears the whole cluster down before raising
        (see the module docstring): crash evidence raises
        ``WorkerCrashError``, a missed deadline ``WorkerTimeoutError``, and
        a rank-side application error (e.g. a ``ValidationError``) or one
        raised by ``rows`` is re-raised as itself.
        """
        if self.dead or not self._finalizer.alive:
            raise RuntimeError("cluster is closed")
        self.epoch += 1
        wire = {g.graph_index: _wire_graph(g) for g in graphs}
        stale = [wire[gi] for gi in wire if self._known.get(gi) != wire[gi]]
        self._known.update({g.graph_index: g for g in stale})
        spec = {
            "epoch": self.epoch,
            "graphs": stale,
            "order": [g.graph_index for g in graphs],
            "validate": validate,
            "rows": rows is not None,
            "capture": capture,
            "trace": trace,
        }
        stream = None if rows is None else _RowStream(graphs, self.ranks, rows)
        try:
            try:
                for conn in self._conns:
                    conn.send(("run", spec))
            except (BrokenPipeError, OSError) as exc:
                self.crashes += 1
                raise WorkerCrashError(
                    "a rank died before the run was dispatched"
                ) from exc
            stats = self._collect_run(stream)
            if stream is not None:
                stream.finish()
            return stats, self._pull_traces() if trace else None
        except BaseException:
            self._destroy()  # the mesh is broken beyond repair
            raise

    def _collect_run(self, stream: _RowStream | None) -> WireStats:
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        stats = WireStats()
        crashed: List[int] = []
        peer_died = False
        app_error: BaseException | None = None
        pending: Dict[Connection, int] = {
            conn: r for r, conn in enumerate(self._conns)
        }
        while pending:
            if deadline is not None and time.monotonic() >= deadline:
                if crashed or peer_died or app_error is not None:
                    break  # failure already explained; stop draining
                laggards = sorted(pending.values())
                self.timeouts += 1
                raise WorkerTimeoutError(
                    f"ranks {laggards} missed the "
                    f"{self.timeout:g}s run "
                    "deadline; the cluster has been torn down (the next run "
                    "relaunches it)"
                )
            wait_s = HEARTBEAT_SECONDS
            if deadline is not None:
                wait_s = min(wait_s, max(deadline - time.monotonic(), 0.0))
            for conn in conn_wait(list(pending), timeout=wait_s):
                r = pending[conn]  # type: ignore[index]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # A true death: the rank vanished without reporting.
                    del pending[conn]  # type: ignore[arg-type]
                    crashed.append(r)
                    self.crashes += 1
                    continue
                if msg[:2] == ("rows", self.epoch) and stream is not None:
                    stream.add(r, *msg[2:])
                elif msg[0] == "done":
                    del pending[conn]  # type: ignore[arg-type]
                    stats = stats.merged(msg[1])
                elif msg[0] == "error":
                    del pending[conn]  # type: ignore[arg-type]
                    exc, tb = msg[1], msg[2]
                    if isinstance(exc, PeerDiedError):
                        # Secondary evidence: a survivor aborted because a
                        # peer's socket EOFed — not a failure of rank r.
                        peer_died = True
                    elif app_error is None:
                        exc.add_note(f"rank {r} traceback:\n{tb}")
                        app_error = exc
                else:  # protocol violation (e.g. rows of another epoch)
                    del pending[conn]  # type: ignore[arg-type]
                    app_error = app_error or RuntimeError(
                        f"rank {r} sent unexpected {msg[:2]!r} in epoch "
                        f"{self.epoch}"
                    )
            if (crashed or peer_died or app_error is not None) and pending:
                # Give the remaining ranks a bounded drain window: they
                # either finish, report the peer death, or get torn down.
                grace = time.monotonic() + _DRAIN_GRACE
                deadline = grace if deadline is None else min(deadline, grace)
        if app_error is not None:
            raise app_error
        if crashed or peer_died:
            names = f"ranks {sorted(crashed)}" if crashed else "a rank"
            raise WorkerCrashError(
                f"{names} died mid-run (socket/pipe EOF); the cluster has "
                "been torn down (the next run relaunches it)"
            )
        return stats

    def _pull_traces(self) -> List[RankTrace]:
        """Drain every rank's span recorder after a successful run.

        One round trip per rank: the parent stamps ``perf_counter_ns``
        around the ``("trace",)`` request, the rank samples its own clock
        in the reply's TRACE frame, and Cristian's midpoint estimate
        (:func:`repro.trace.merge.align_offset`) aligns the rank's
        timestamps onto the parent's timeline.
        """
        deadline = time.monotonic() + SETUP_TIMEOUT_SECONDS
        out: List[RankTrace] = []
        for r, conn in enumerate(self._conns):
            try:
                t0 = trace_recorder.now()
                conn.send(("trace",))
                while not conn.poll(HEARTBEAT_SECONDS):
                    if time.monotonic() >= deadline:
                        self.timeouts += 1
                        raise WorkerTimeoutError(
                            f"rank {r} missed the trace-collection deadline"
                        )
                msg = conn.recv()
                t1 = trace_recorder.now()
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.crashes += 1
                raise WorkerCrashError(
                    f"rank {r} died during trace collection"
                ) from exc
            if msg[0] != "trace":
                raise WorkerCrashError(
                    f"rank {r} replied {msg[0]!r} to a trace pull"
                )
            decoded = decode(memoryview(msg[1]))
            if decoded[0] != MSG_TRACE:
                raise WireError("trace pull returned a non-TRACE frame")
            _, _rank, clock_ns, buffers = decoded
            out.append((r, align_offset(t0, t1, clock_ns), buffers))
        return out

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _destroy(self) -> None:
        self.dead = True
        self._finalizer()

    def close(self) -> None:
        """Shut the ranks down.  Idempotent; also runs automatically when
        the cluster is garbage-collected."""
        self._destroy()

    @property
    def alive_ranks(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())


def sweep_orphaned_socket_dirs() -> List[str]:
    """Remove leftover ``taskbench-cluster-*`` socket directories whose
    launcher process is gone (best-effort hygiene, mirrors the shm
    segment sweeper).  Returns the paths removed."""
    removed = []
    tmp = tempfile.gettempdir()
    for name in os.listdir(tmp):
        if not name.startswith("taskbench-cluster-"):
            continue
        path = os.path.join(tmp, name)
        try:
            if not os.path.isdir(path):
                continue
            # A live launcher holds rank sockets open; a dir with no
            # socket bound by a live process is an orphan.  We only sweep
            # directories older than an hour to avoid racing live setups.
            if time.time() - os.path.getmtime(path) < 3600:
                continue
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
        except OSError:  # pragma: no cover - racing another sweeper
            continue
    return removed
