"""The benchmark service daemon.

Threading model — one state lock, four thread roles:

* **Accept loop** — blocks in ``accept()``, hands each connection to a
  handler thread.  Handler threads speak :mod:`repro.serve.protocol`
  request-per-reply until the client closes.
* **Dispatcher** — the only thread that starts jobs.  Waits on the state
  condition until an admissible job sits in the queue, claims it, and
  spawns a job thread.  Admission reuses the suite scheduler's rules
  verbatim (:func:`repro.suite.scheduler.admit` over
  :class:`~repro.suite.scheduler.Claim` lists): job cap, host core
  budget, cluster-mesh exclusivity, ``shm_processes`` self-serialization.
* **Job threads** — check a live executor out of the
  :class:`~repro.serve.warmpool.WarmPool` (healed if its substrate died
  idle), run the cell via :func:`repro.suite.scheduler.run_cell` with
  the injected warm runner, and conclude the job.
* **Watchdog** — enforces per-job deadlines.  An expired job is
  concluded as ``failed`` immediately (waiters wake with the deadline
  record); process-backed substrates are then hard-killed by closing the
  executor (terminate → SIGKILL escalation inside the pool/launcher),
  while same-address-space substrates cannot be killed and are abandoned
  — the stale thread's eventual result is discarded.

Backpressure is explicit: a full queue answers ``BUSY`` instead of
accepting unbounded work, so a client herd degrades into retries rather
than into an OOM-killed daemon.  ``DRAIN`` (and SIGTERM, via the CLI)
stops admissions — new submits get ``DRAINING`` — finishes queued and
running jobs, then wakes :meth:`Server.wait`.

Lock discipline (enforced by ``task-bench check --self``): socket I/O,
executor construction/heal/close and every job-event wait happen outside
the state lock; the lock guards only queue/table mutation and counter
bumps.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from ..core.envvars import env_float, env_int
from ..metg.runners import RealRunner
from ..suite.scheduler import (
    Claim,
    _make_runner,
    admit,
    claim_for_cell,
    run_cell,
)
from ..suite.spec import Cell, SpecError, validate_cell
from ..trace import recorder as trace
from . import protocol
from .protocol import (
    ERR_BUSY,
    ERR_DRAINING,
    ERR_INVALID,
    ERR_TIMEOUT,
    ERR_UNKNOWN_JOB,
    ProtocolError,
    error_reply,
)
from .results import ResultCache, cell_fingerprint
from .warmpool import WarmPool

#: Isolation classes whose executors can be hard-killed mid-run by
#: closing them (worker/rank processes get terminate -> SIGKILL).  The
#: same-address-space substrates have no kill path: a deadline kill
#: abandons the run and discards its result.
_KILLABLE_ISOLATION = frozenset({"processes", "cluster"})

#: Latency samples kept per verb (ring buffer) for the p50/p99 report.
_LATENCY_WINDOW = 512


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one daemon, with ``TASKBENCH_SERVE_*`` defaults."""

    address: str = "taskbench-serve.sock"
    max_jobs: int = 2
    core_budget: int = 0  # 0 = os.cpu_count()
    queue_size: int = 16
    deadline: Optional[float] = None
    warm_capacity: int = 4
    warm_ttl: float = 300.0
    cache_capacity: int = 128

    def __post_init__(self) -> None:
        if self.max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {self.max_jobs}")
        if self.queue_size < 1:
            raise ValueError(
                f"queue_size must be >= 1, got {self.queue_size}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")

    @property
    def effective_core_budget(self) -> int:
        if self.core_budget > 0:
            return self.core_budget
        return os.cpu_count() or 1

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServeConfig":
        """Defaults from ``TASKBENCH_SERVE_*`` (validated: a bad value is
        a :class:`~repro.core.envvars.UsageError`, not a traceback);
        explicit keyword overrides win."""
        env: Dict[str, Any] = {}
        queue = env_int("TASKBENCH_SERVE_QUEUE", None, minimum=1)
        if queue is not None:
            env["queue_size"] = queue
        jobs = env_int("TASKBENCH_SERVE_JOBS", None, minimum=1)
        if jobs is not None:
            env["max_jobs"] = jobs
        cores = env_int("TASKBENCH_SERVE_CORES", None, minimum=1)
        if cores is not None:
            env["core_budget"] = cores
        deadline = env_float(
            "TASKBENCH_SERVE_DEADLINE", None, exclusive_minimum=0.0
        )
        if deadline is not None:
            env["deadline"] = deadline
        warm = env_int("TASKBENCH_SERVE_WARM", None, minimum=0)
        if warm is not None:
            env["warm_capacity"] = warm
        ttl = env_float("TASKBENCH_SERVE_TTL", None, exclusive_minimum=0.0)
        if ttl is not None:
            env["warm_ttl"] = ttl
        cache = env_int("TASKBENCH_SERVE_CACHE", None, minimum=0)
        if cache is not None:
            env["cache_capacity"] = cache
        env.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        known = {f.name for f in fields(cls)}
        unknown = set(env) - known
        if unknown:
            raise TypeError(f"unknown ServeConfig fields: {sorted(unknown)}")
        return cls(**env)


@dataclass
class ServeStats:
    """Mutable service counters (guarded by the server's state lock)."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    deadline_kills: int = 0
    rejected_busy: int = 0
    rejected_invalid: int = 0
    rejected_draining: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    latencies: Dict[str, List[float]] = field(default_factory=dict)

    def observe(self, verb: str, seconds: float) -> None:
        window = self.latencies.setdefault(verb, [])
        window.append(seconds)
        if len(window) > _LATENCY_WINDOW:
            del window[: len(window) - _LATENCY_WINDOW]

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for verb, window in sorted(self.latencies.items()):
            if not window:
                continue
            ordered = sorted(window)
            out[verb] = {
                "count": float(len(ordered)),
                "p50_seconds": _percentile(ordered, 0.50),
                "p99_seconds": _percentile(ordered, 0.99),
            }
        return out


def _percentile(ordered: List[float], q: float) -> float:
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class _Job:
    """One submitted measurement, from SUBMIT to terminal record."""

    __slots__ = (
        "id", "cell", "fingerprint", "claim", "state", "record", "cached",
        "created", "started", "deadline_at", "executor", "killed", "event",
    )

    def __init__(self, job_id: str, cell: Cell, fingerprint: str,
                 claim: Claim) -> None:
        self.id = job_id
        self.cell = cell
        self.fingerprint = fingerprint
        self.claim = claim
        self.state = "queued"  # queued | running | done
        self.record: Optional[Dict[str, Any]] = None
        self.cached = False
        self.created = time.monotonic()
        self.started: Optional[float] = None
        self.deadline_at: Optional[float] = None
        self.executor: Any = None
        self.killed = False
        self.event = threading.Event()

    def describe(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "ok": True,
            "job": self.id,
            "state": self.state,
            "key": self.cell.key,
            "cached": self.cached,
        }
        if self.record is not None:
            body["status"] = self.record.get("status")
        return body


class Server:
    """The daemon: accept loop + dispatcher + watchdog over shared state."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: List[_Job] = []
        self._running: List[_Job] = []
        self._jobs: Dict[str, _Job] = {}
        self._cache = ResultCache(self.config.cache_capacity)
        self._pool = WarmPool(
            self.config.warm_capacity, self.config.warm_ttl
        )
        self.stats = ServeStats()
        self._job_counter = 0
        self._draining = False
        self._stopping = False
        self._drained = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._uds_path: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> str:
        """Bind the endpoint and start the service threads.  Returns the
        bound address (useful for ``tcp:HOST:0`` ephemeral ports)."""
        self._listener, bound = _bind(self.config.address)
        if not bound.startswith("tcp:"):
            self._uds_path = bound
        self._listener.listen(64)
        for name, target in (
            ("serve-accept", self._accept_loop),
            ("serve-dispatch", self._dispatch_loop),
            ("serve-watchdog", self._watchdog_loop),
        ):
            worker = threading.Thread(target=target, name=name, daemon=True)
            worker.start()
            self._threads.append(worker)
        return bound

    def drain(self) -> None:
        """Stop admitting; finish queued + running jobs, then quiesce."""
        with self._wake:
            self._draining = True
            self._wake.notify_all()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has drained (True) or ``timeout``."""
        return self._drained.wait(timeout)

    def close(self) -> None:
        """Tear the daemon down: drain, stop threads, retire executors."""
        self.drain()
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        listener = self._listener
        self._listener = None
        if listener is not None:
            try:
                # shutdown() (not just close()) wakes a blocked accept();
                # closing the fd alone leaves the accept thread stuck
                # until the next connection arrives.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        for worker in self._threads:
            worker.join(timeout=10.0)
        self._threads = []
        self._pool.close()
        if self._uds_path is not None:
            try:
                os.unlink(self._uds_path)
            except OSError:
                pass
            self._uds_path = None
        # Fail any job that never got to run, so waiters are released.
        orphans: List[_Job] = []
        with self._lock:
            for job in self._queue + self._running:
                if job.record is None:
                    job.record = _abort_record(job, "server shut down")
                    job.state = "done"
                    orphans.append(job)
            self._queue = []
            self._running = []
        for job in orphans:
            job.event.set()
        self._drained.set()

    # ------------------------------------------------------------------
    # Accept loop + connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutdown
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="serve-conn", daemon=True,
            )
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = protocol.recv_frame(conn)
                except ProtocolError as exc:
                    _send_quietly(conn, error_reply(ERR_INVALID, str(exc)))
                    return
                if request is None:
                    return  # clean EOF
                reply = self._handle(request)
                protocol.send_frame(conn, reply)
        except OSError:
            pass  # peer vanished mid-reply
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        started = time.perf_counter()
        traced = trace.enabled
        t0 = trace.begin() if traced else 0
        try:
            verb = protocol.validate_request(request)
        except ProtocolError as exc:
            with self._lock:
                self.stats.rejected_invalid += 1
            return error_reply(ERR_INVALID, str(exc))
        try:
            if verb == "SUBMIT":
                reply = self._handle_submit(request)
            elif verb == "STATUS":
                reply = self._handle_status(request)
            elif verb == "RESULT":
                reply = self._handle_result(request)
            elif verb == "STATS":
                reply = self._handle_stats()
            else:  # DRAIN
                self.drain()
                reply = {"ok": True, "draining": True}
            return reply
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.stats.observe(verb, elapsed)
            if t0:
                trace.complete(
                    f"serve.{verb.lower()}", trace.CAT_DISPATCH, t0,
                    {"seconds": elapsed},
                )

    # ------------------------------------------------------------------
    # Verb handlers
    # ------------------------------------------------------------------
    def _handle_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            cell = _parse_cell(request["cell"])
        except (SpecError, TypeError, ValueError) as exc:
            with self._lock:
                self.stats.rejected_invalid += 1
            return error_reply(ERR_INVALID, str(exc))
        fingerprint = cell_fingerprint(cell)
        claim = claim_for_cell(cell)
        with self._wake:
            self.stats.submitted += 1
            if self._draining:
                self.stats.rejected_draining += 1
                return error_reply(
                    ERR_DRAINING, "server is draining; not accepting jobs"
                )
            cached = self._cache.get(fingerprint)
            if cached is not None:
                job = self._new_job_locked(cell, fingerprint, claim)
                job.state = "done"
                job.record = cached
                job.cached = True
                self.stats.cache_hits += 1
                reply = job.describe()
            else:
                leader_id = self._cache.lookup_inflight(fingerprint)
                if leader_id is not None:
                    self.stats.coalesced += 1
                    leader = self._jobs[leader_id]
                    reply = leader.describe()
                    reply["coalesced"] = True
                elif len(self._queue) >= self.config.queue_size:
                    self.stats.rejected_busy += 1
                    return error_reply(
                        ERR_BUSY,
                        f"job queue is full "
                        f"({self.config.queue_size} queued); retry later",
                    )
                else:
                    job = self._new_job_locked(cell, fingerprint, claim)
                    self._cache.enter_inflight(fingerprint, job.id)
                    self._queue.append(job)
                    self._wake.notify_all()
                    reply = job.describe()
        # A cache-hit job is terminal the moment it exists; release any
        # RESULT waiter that raced in (event ops stay off the lock).
        job_id = reply.get("job")
        if job_id is not None:
            terminal = self._jobs[job_id]
            if terminal.state == "done":
                terminal.event.set()
        return reply

    def _new_job_locked(self, cell: Cell, fingerprint: str,
                        claim: Claim) -> _Job:
        self._job_counter += 1
        job = _Job(f"j{self._job_counter:06d}", cell, fingerprint, claim)
        self._jobs[job.id] = job
        return job

    def _handle_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(request["job"])
            if job is None:
                return error_reply(
                    ERR_UNKNOWN_JOB, f"no such job {request['job']!r}"
                )
            return job.describe()

    def _handle_result(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            job = self._jobs.get(request["job"])
        if job is None:
            return error_reply(
                ERR_UNKNOWN_JOB, f"no such job {request['job']!r}"
            )
        timeout = request.get("timeout")
        if not job.event.wait(timeout):
            return error_reply(
                ERR_TIMEOUT,
                f"job {job.id} still {job.state} after {timeout:g}s",
            )
        with self._lock:
            reply = job.describe()
            reply["record"] = job.record
        return reply

    def _handle_stats(self) -> Dict[str, Any]:
        pool_stats = self._pool.stats
        with self._lock:
            body: Dict[str, Any] = {
                "ok": True,
                "protocol": protocol.PROTOCOL_VERSION,
                "queue_depth": len(self._queue),
                "running": len(self._running),
                "inflight": self._cache.inflight_count,
                "draining": self._draining,
                "jobs": {
                    "submitted": self.stats.submitted,
                    "admitted": self.stats.admitted,
                    "completed": self.stats.completed,
                    "failed": self.stats.failed,
                    "deadline_kills": self.stats.deadline_kills,
                },
                "rejections": {
                    "busy": self.stats.rejected_busy,
                    "invalid": self.stats.rejected_invalid,
                    "draining": self.stats.rejected_draining,
                },
                "cache": {
                    "hits": self.stats.cache_hits,
                    "coalesced": self.stats.coalesced,
                    "records": len(self._cache),
                },
                "warm_pool": pool_stats,
                "latency": self.stats.latency_summary(),
            }
        return body

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        budget = self.config.effective_core_budget
        while True:
            job = None
            with self._wake:
                while True:
                    if self._stopping:
                        return
                    running = [item.claim for item in self._running]
                    job = next(
                        (
                            item for item in self._queue
                            if admit(item.claim, running,
                                     self.config.max_jobs, budget)
                        ),
                        None,
                    )
                    if job is not None:
                        break
                    if (self._draining and not self._queue
                            and not self._running):
                        self._drained.set()
                        return
                    self._wake.wait(timeout=1.0)
                self._queue.remove(job)
                self._running.append(job)
                job.state = "running"
                job.started = time.monotonic()
                deadline = (
                    job.cell.timeout
                    if job.cell.timeout is not None
                    else self.config.deadline
                )
                if deadline is not None:
                    job.deadline_at = job.started + deadline
                self.stats.admitted += 1
                self._wake.notify_all()  # watchdog re-arms its timeout
            runner_thread = threading.Thread(
                target=self._run_job, args=(job,),
                name=f"serve-job-{job.id}", daemon=True,
            )
            runner_thread.start()

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _run_job(self, job: _Job) -> None:
        cell = job.cell
        executor = None
        warm = False
        try:
            if cell.is_simulated:
                runner = _make_runner(cell)
            else:
                executor, warm = self._pool.checkout(
                    cell.runtime, cell.workers, cell.timeout
                )
                with self._lock:
                    job.executor = executor
                runner = RealRunner(executor)
            record = run_cell(cell, runner=runner)
        except Exception as exc:  # checkout/build blew up before the run
            record = _abort_record(job, f"{type(exc).__name__}: {exc}")
        record.setdefault("served", {})
        record["served"]["warm"] = warm
        self._conclude(job, record, executor)

    def _conclude(self, job: _Job, record: Dict[str, Any],
                  executor: Any) -> None:
        with self._wake:
            if job.killed:
                # The watchdog already concluded this job with a deadline
                # record and killed the executor; the late result is
                # discarded and the executor is never pooled again.
                if job in self._running:
                    self._running.remove(job)
                self._wake.notify_all()
                executor = None  # watchdog owns (and closed) it
                pooled = False
            else:
                job.record = record
                job.state = "done"
                job.executor = None
                if job in self._running:
                    self._running.remove(job)
                status = record.get("status")
                if status == "failed":
                    self.stats.failed += 1
                else:
                    self.stats.completed += 1
                self._cache.put(job.fingerprint, record)
                self._cache.leave_inflight(job.fingerprint, job.id)
                pooled = executor is not None and status != "failed"
                self._wake.notify_all()
        if executor is not None:
            if pooled:
                self._pool.checkin(
                    job.cell.runtime, job.cell.workers, job.cell.timeout,
                    executor,
                )
            else:
                # A failed run may have broken the substrate; retire it.
                _close_executor(executor)
        job.event.set()

    # ------------------------------------------------------------------
    # Watchdog (deadline kills)
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        while True:
            victims: List[Tuple[_Job, Any]] = []
            with self._wake:
                while True:
                    if self._stopping:
                        return
                    now = time.monotonic()
                    expired = [
                        job for job in self._running
                        if job.deadline_at is not None
                        and now >= job.deadline_at
                    ]
                    if expired:
                        break
                    self._wake.wait(timeout=self._next_deadline_locked(now))
                for job in expired:
                    job.killed = True
                    job.state = "done"
                    job.record = _abort_record(
                        job,
                        f"job deadline exceeded "
                        f"({job.deadline_at - job.started:g}s); killed",
                    )
                    self._running.remove(job)
                    self.stats.deadline_kills += 1
                    self.stats.failed += 1
                    self._cache.leave_inflight(job.fingerprint, job.id)
                    victims.append((job, job.executor))
                    job.executor = None
                self._wake.notify_all()
            for job, executor in victims:
                if (executor is not None
                        and job.claim.isolation in _KILLABLE_ISOLATION):
                    # close() escalates terminate -> SIGKILL inside the
                    # pool/launcher, so this is bounded even mid-run.
                    _close_executor(executor)
                job.event.set()

    def _next_deadline_locked(self, now: float) -> Optional[float]:
        deadlines = [
            job.deadline_at - now for job in self._running
            if job.deadline_at is not None
        ]
        if not deadlines:
            return None
        return max(0.01, min(deadlines))


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _parse_cell(body: Dict[str, Any]) -> Cell:
    """A validated :class:`Cell` from an untrusted SUBMIT body."""
    from dataclasses import fields as dc_fields

    known = {f.name for f in dc_fields(Cell)}
    unknown = sorted(set(body) - known)
    if unknown:
        raise SpecError(
            f"unknown cell fields {unknown}; known: {', '.join(sorted(known))}"
        )
    try:
        cell = Cell(**body)
    except TypeError as exc:
        raise SpecError(str(exc)) from None
    validate_cell(cell)
    return cell


def _abort_record(job: _Job, message: str) -> Dict[str, Any]:
    started = job.started if job.started is not None else job.created
    return {
        "key": job.cell.key,
        "cell": job.cell.params(),
        "status": "failed",
        "wall_seconds": max(0.0, time.monotonic() - started),
        "measurements": {},
        "error": message,
    }


def _close_executor(executor: Any) -> None:
    try:
        executor.close()
    except Exception:
        pass


def _send_quietly(conn: socket.socket, body: Dict[str, Any]) -> None:
    try:
        protocol.send_frame(conn, body)
    except OSError:
        pass


def _bind(address: str) -> Tuple[socket.socket, str]:
    """Bind the service endpoint.

    ``tcp:HOST:PORT`` binds a TCP socket (port 0 picks an ephemeral
    port; the returned address names the real one); anything else is a
    Unix-domain socket path, with a stale socket file from a dead daemon
    unlinked first.
    """
    if address.startswith("tcp:"):
        _, host, port_text = address.split(":", 2)
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"bad TCP address {address!r}; expected tcp:HOST:PORT"
            ) from None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        bound_host, bound_port = sock.getsockname()[:2]
        return sock, f"tcp:{bound_host}:{bound_port}"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(address)
    except OSError:
        # A stale socket file from a dead daemon blocks the bind; a live
        # daemon answers connections, a dead one's file is safe to sweep.
        if not _socket_alive(address):
            try:
                os.unlink(address)
            except OSError:
                pass
            sock.bind(address)
        else:
            sock.close()
            raise RuntimeError(
                f"a live daemon already serves {address!r}"
            ) from None
    return sock, address


def _socket_alive(path: str) -> bool:
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.25)
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


__all__ = ["ServeConfig", "ServeStats", "Server"]
