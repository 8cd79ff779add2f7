"""Fault injection and fault-tolerance configuration.

The paper's METG methodology re-runs one executor configuration dozens of
times per sweep (§4); a single wedged or killed worker process must not
hang — or abort — the whole benchmark.  This module is the *control* side
of the fault-tolerance layer:

* :class:`FaultSpec` describes one injected fault: ``kind`` (``crash`` =
  SIGKILL, ``wedge`` = SIGTERM-ignoring busy loop, ``delay`` = transient
  stall), the target worker index, and the worker-local round at which it
  fires;
* :func:`parse_fault` parses the ``kind:worker:round[:seconds]`` syntax
  used by ``task-bench --inject-fault`` and the ``TASKBENCH_INJECT_FAULT``
  environment variable;
* :func:`apply_fault` *executes* a fault inside a worker process (called
  by :mod:`repro.runtimes._procpool` at the chosen round);
* :class:`WorkerCrashError` / :class:`WorkerTimeoutError` are what a
  supervised pool or rank mesh raises for a dead or wedged worker, and
  :data:`TRANSIENT_ERRORS` / :data:`RETRY_BACKOFF_SECONDS` /
  :func:`retrying` the retry policy the CLI and the METG probes apply to
  them — defined here, so that catching a worker failure does not import a
  process pool;
* :func:`default_timeout` / :func:`default_max_retries` read the
  environment-level defaults (``TASKBENCH_TIMEOUT``,
  ``TASKBENCH_MAX_RETRIES``) so test suites and CI chaos legs can arm
  deadlines and retries without threading flags through every call site.
  Both parse through :mod:`repro.core.envvars`, so a malformed value
  raises a :class:`~repro.core.envvars.UsageError` naming the variable
  instead of a bare ``ValueError`` traceback.

Faults are **transient by construction**: a fault is attached to the first
generation of a pool's workers only, so a respawned worker runs clean and
a retried probe succeeds.  This mirrors how TaPS treats failure behavior
as a first-class evaluation axis — the benchmark must *survive* the fault
to measure its cost.

For the distributed executors (``cluster_tcp`` / ``cluster_uds``,
:mod:`repro.cluster`) the same spec applies with cluster semantics:
``worker`` is the *rank* index and ``round_index`` is the *timestep* of
the rank's first run at which the fault fires (``crash:1:2`` kills rank 1
just before it executes timestep 2).  Faults arm only the first launch of
a mesh; a relaunch after a failure runs clean.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

from .core.envvars import env_float, env_int

T = TypeVar("T")


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a Python exception."""


class WorkerTimeoutError(RuntimeError):
    """A worker missed the pool's per-round deadline (wedged or starved);
    the offending worker has been killed and can be respawned via
    :meth:`~repro.runtimes._procpool.ForkWorkerPool.heal`."""


#: Failures considered transient at the probe level: the pool supervised
#: them, reaped the dead worker, and will self-heal on the next run — so
#: re-running the probe is sound and cheap (no refork of survivors).
TRANSIENT_ERRORS = (WorkerCrashError, WorkerTimeoutError)

#: First retry backoff; doubles per attempt (a crashed probe's respawn is
#: cheap, but a timeout often means the host is momentarily oversubscribed).
RETRY_BACKOFF_SECONDS = 0.05


def retrying(attempt: Callable[[], T], max_retries: int) -> Tuple[T, int]:
    """Call ``attempt`` until it returns, and return its value with the
    number of retries that took: a :data:`TRANSIENT_ERRORS` failure is
    retried up to ``max_retries`` times, after a backoff that doubles from
    :data:`RETRY_BACKOFF_SECONDS`; the next one propagates."""
    retries = 0
    while True:
        try:
            return attempt(), retries
        except TRANSIENT_ERRORS:
            if retries >= max_retries:
                raise
            time.sleep(RETRY_BACKOFF_SECONDS * 2 ** retries)
            retries += 1


#: Recognized fault kinds.
FAULT_KINDS = ("crash", "wedge", "delay")

#: Environment variables honored by the fault-tolerance layer.
ENV_FAULT = "TASKBENCH_INJECT_FAULT"
ENV_TIMEOUT = "TASKBENCH_TIMEOUT"
ENV_MAX_RETRIES = "TASKBENCH_MAX_RETRIES"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` at (``worker``, ``round_index``).

    ``round_index`` counts the chunk rounds a single worker process has
    executed (broadcasts are not counted), so ``crash:0:3`` kills worker 0
    immediately before it would execute its fourth round of chunks.
    """

    kind: str
    worker: int
    round_index: int
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.worker < 0:
            raise ValueError(f"fault worker must be >= 0, got {self.worker}")
        if self.round_index < 0:
            raise ValueError(
                f"fault round must be >= 0, got {self.round_index}"
            )
        if self.delay_seconds < 0:
            raise ValueError(
                f"fault delay must be >= 0, got {self.delay_seconds}"
            )


def parse_fault(spec: str) -> FaultSpec:
    """Parse ``kind:worker:round[:seconds]`` into a :class:`FaultSpec`.

    Examples: ``crash:0:3`` (SIGKILL worker 0 at its fourth round),
    ``wedge:1:0`` (worker 1 busy-loops from its first round),
    ``delay:0:2:0.2`` (worker 0 stalls 200 ms before its third round).
    """
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"malformed fault spec {spec!r}; expected kind:worker:round[:seconds]"
        )
    kind = parts[0].strip().lower()
    try:
        worker = int(parts[1])
        round_index = int(parts[2])
    except ValueError:
        raise ValueError(
            f"malformed fault spec {spec!r}: worker and round must be integers"
        ) from None
    if len(parts) == 4:
        try:
            delay = float(parts[3])
        except ValueError:
            raise ValueError(
                f"malformed fault spec {spec!r}: seconds must be a number"
            ) from None
        return FaultSpec(kind, worker, round_index, delay)
    return FaultSpec(kind, worker, round_index)


def fault_from_env() -> FaultSpec | None:
    """The fault armed via ``TASKBENCH_INJECT_FAULT``, if any."""
    spec = os.environ.get(ENV_FAULT, "").strip()
    return parse_fault(spec) if spec else None


def default_timeout() -> float | None:
    """Per-round deadline (seconds) from ``TASKBENCH_TIMEOUT``; ``None``
    (no deadline) when unset or empty."""
    return env_float(ENV_TIMEOUT, None, exclusive_minimum=0.0)


def default_max_retries() -> int:
    """Transient-failure retry budget from ``TASKBENCH_MAX_RETRIES``
    (default 0: fail fast)."""
    value = env_int(ENV_MAX_RETRIES, 0, minimum=0)
    assert value is not None  # a non-None default is returned as-is
    return value


def apply_fault(fault: FaultSpec) -> None:
    """Execute ``fault`` in the calling (worker) process.

    ``crash`` and ``wedge`` never return; ``delay`` stalls and returns so
    the round still completes (exercising the deadline machinery without
    failing the run).

    Under an active lockset sanitizer (:mod:`repro.check.concurrency`)
    only ``delay`` is honored — recorded as an injected stall so the
    sanitizer can distinguish instrumentation slowness from injected
    latency.  ``crash``/``wedge`` are refused: killing or wedging the
    instrumented process would abandon recorded locksets mid-flight and
    turn every subsequent report into noise.
    """
    from .check.concurrency import active_sanitizer

    san = active_sanitizer()
    if san is not None:
        if fault.kind == "delay":
            san.note_stall(fault.delay_seconds)
            time.sleep(fault.delay_seconds)
            return
        raise RuntimeError(
            f"refusing to inject {fault.kind!r} fault under the lockset "
            "sanitizer: sanitized runs measure ordering, not survival — "
            "run the chaos leg without --sanitize"
        )
    if fault.kind == "crash":
        # SIGKILL: no cleanup, no exception shipped to the parent — the
        # parent must detect the death through the broken pipe/heartbeat.
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.kind == "wedge":
        # A SIGTERM-ignoring busy loop: the parent's deadline must fire,
        # and shutdown must escalate terminate() -> kill() to reap it.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        while True:  # pragma: no cover - the process is killed externally
            pass
    elif fault.kind == "delay":
        time.sleep(fault.delay_seconds)
