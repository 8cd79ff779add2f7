"""Fault-tolerance tests: supervised pool, fault injection, self-healing.

The METG methodology re-runs one executor configuration dozens of times per
sweep; these tests pin the supervision layer that keeps a single fault from
hanging or aborting the whole benchmark:

* a SIGKILLed worker surfaces as :class:`WorkerCrashError` and a wedged one
  as :class:`WorkerTimeoutError` *within the configured deadline* — never
  an indefinite ``recv`` hang;
* the pool self-heals: dead workers respawn in place, the executor replays
  its graph-cache state, and the next run passes validation with zero
  orphaned shared-memory segments;
* an injected transient crash during a METG sweep costs one retried probe.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.core.bufpool import (
    SharedMemorySlabPool,
    StaleHandleError,
    _POOLS,
    orphaned_segments,
    sweep_orphaned_segments,
)
from repro.faults import (
    RETRY_BACKOFF_SECONDS,
    FaultSpec,
    apply_fault,
    parse_fault,
    retrying,
)
from repro.metg.efficiency import measure
from repro.metg.runners import RealRunner
from repro.runtimes import make_executor
from repro.runtimes._common import TraceRecorder, capturing_outputs, tracing
from repro.runtimes._procpool import (
    ForkWorkerPool,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.runtimes.processes import (
    _ABORT, SLAB_THRESHOLD, WindowAbortError, _await_peers,
)

PROCESS_RUNTIMES = ["processes", "shm_processes"]

#: Generous wall-clock bound: a "no indefinite hang" assertion with slack
#: for terminate->kill escalation and slow CI hosts.
HANG_BOUND = 20.0


def _graph(nbytes=64, **kw) -> TaskGraph:
    kw.setdefault("timesteps", 4)
    kw.setdefault("max_width", 4)
    kw.setdefault("dependence", DependenceType.STENCIL_1D)
    return TaskGraph(output_bytes_per_task=nbytes, **kw)


def _chunk_fn(arg):
    """Pool test worker: echo, crash, or stall on marker chunks."""
    if arg == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if arg == "hang":
        time.sleep(600)
    return (os.getpid(), arg)


# ----------------------------------------------------------------------
# FaultSpec parsing and validation
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_forms(self):
        assert parse_fault("crash:0:3") == FaultSpec("crash", 0, 3)
        assert parse_fault("wedge:1:0") == FaultSpec("wedge", 1, 0)
        assert parse_fault("delay:0:2:0.2") == FaultSpec("delay", 0, 2, 0.2)

    @pytest.mark.parametrize(
        "bad",
        ["", "crash", "crash:0", "crash:x:1", "crash:0:1:zz", "explode:0:1",
         "crash:-1:0", "crash:0:-2", "delay:0:0:-1", "crash:0:1:2:3"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)

    def test_delay_fault_returns(self):
        start = time.monotonic()
        apply_fault(FaultSpec("delay", 0, 0, 0.01))
        assert 0.005 < time.monotonic() - start < 5.0

    def test_env_arming(self, monkeypatch):
        from repro import faults

        monkeypatch.setenv(faults.ENV_FAULT, "crash:1:2")
        monkeypatch.setenv(faults.ENV_TIMEOUT, "7.5")
        monkeypatch.setenv(faults.ENV_MAX_RETRIES, "3")
        assert faults.fault_from_env() == FaultSpec("crash", 1, 2)
        assert faults.default_timeout() == 7.5
        assert faults.default_max_retries() == 3
        monkeypatch.delenv(faults.ENV_FAULT)
        monkeypatch.delenv(faults.ENV_TIMEOUT)
        monkeypatch.delenv(faults.ENV_MAX_RETRIES)
        assert faults.fault_from_env() is None
        assert faults.default_timeout() is None
        assert faults.default_max_retries() == 0


# ----------------------------------------------------------------------
# ForkWorkerPool supervision primitive
# ----------------------------------------------------------------------
class TestSupervisedPool:
    def test_sigkilled_worker_raises_crash_and_heals(self):
        pool = ForkWorkerPool(_chunk_fn, 2, timeout=10.0)
        try:
            start = time.monotonic()
            with pytest.raises(WorkerCrashError):
                pool.run_round(["a", "die", "c"])
            assert time.monotonic() - start < HANG_BOUND
            assert pool.crashes == 1
            assert pool.dead_workers  # marked for respawn

            assert pool.heal() == 1
            assert not pool.dead_workers
            results = pool.run_round(["x", "y"])
            assert [r[1] for r in results] == ["x", "y"]
        finally:
            pool.close()

    def test_wedged_worker_times_out_within_deadline(self):
        pool = ForkWorkerPool(_chunk_fn, 2, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(WorkerTimeoutError, match="deadline"):
                pool.run_round(["a", "hang"])
            assert time.monotonic() - start < HANG_BOUND
            assert pool.timeouts == 1

            pool.heal()
            assert [r[1] for r in pool.run_round(["x"])] == ["x"]
        finally:
            pool.close()

    def test_injected_wedge_is_killed_on_close(self):
        """A SIGTERM-ignoring busy-loop worker cannot survive shutdown:
        close() escalates terminate() -> kill()."""
        pool = ForkWorkerPool(
            _chunk_fn, 1, timeout=0.5, fault=FaultSpec("wedge", 0, 0)
        )
        proc = pool._procs[0]
        try:
            with pytest.raises(WorkerTimeoutError):
                pool.run_round(["a"])
        finally:
            start = time.monotonic()
            pool.close()
            assert time.monotonic() - start < HANG_BOUND
        assert not proc.is_alive()

    def test_injected_crash_fires_at_chosen_round(self):
        pool = ForkWorkerPool(
            _chunk_fn, 1, timeout=10.0, fault=FaultSpec("crash", 0, 1)
        )
        try:
            assert [r[1] for r in pool.run_round(["r0"])] == ["r0"]  # round 0 ok
            with pytest.raises(WorkerCrashError):
                pool.run_round(["r1"])
            # Respawned generations never carry the fault: transient.
            pool.heal()
            assert [r[1] for r in pool.run_round(["r1"])] == ["r1"]
            assert [r[1] for r in pool.run_round(["r2"])] == ["r2"]
        finally:
            pool.close()

    def test_broadcast_slots_align_with_worker_indices(self):
        pool = ForkWorkerPool(_remember_chunk, 3, timeout=10.0)
        try:
            # Seed per-worker state so one specific worker errors below.
            pool.run_round([0, 1, 2])  # round-robin: worker w gets chunk w
            out = pool.broadcast(os.getpid)
            assert len(out) == 3 and len(set(out)) == 3

            with pytest.raises(ZeroDivisionError) as excinfo:
                pool.broadcast(_div_by_worker_chunk)
            # Worker 0 (chunk 0) errored; results stay at worker indices.
            assert excinfo.value.partial_results == [None, 100, 50]

            # Pipes stayed in protocol sync: the pool still serves rounds.
            assert [r[1] for r in pool.run_round(["z"])] == ["z"]
        finally:
            pool.close()


_LAST_CHUNK = None


def _remember_chunk(arg):
    global _LAST_CHUNK
    _LAST_CHUNK = arg
    return (os.getpid(), arg)


def _div_by_worker_chunk():
    """Broadcast target: fails only in the worker whose last-seen round
    chunk was 0 (see test_broadcast_slots_align_with_worker_indices)."""
    return 100 // _LAST_CHUNK


# ----------------------------------------------------------------------
# End-to-end: executors under injected faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runtime", PROCESS_RUNTIMES)
def test_executor_crash_self_heals_no_refork(runtime):
    """A worker SIGKILLed mid-run surfaces a typed error within the
    deadline, the pool heals in place (no full refork), and the next run
    on the same executor instance passes validation."""
    ex = make_executor(
        runtime, workers=2, timeout=10.0, fault=parse_fault("crash:0:1")
    )
    try:
        start = time.monotonic()
        with pytest.raises(WorkerCrashError):
            ex.run([_graph()])
        assert time.monotonic() - start < HANG_BOUND
        pool = ex._procs
        assert pool is not None  # supervised failure keeps the warm pool

        result = ex.run([_graph()])  # heals, replays cache, validates
        assert ex._procs is pool  # same pool object: healed, not reforked
        assert result.faults is not None
        assert result.faults.worker_crashes == 1
        assert result.faults.workers_respawned == 1
    finally:
        ex.close()


@pytest.mark.parametrize("runtime", PROCESS_RUNTIMES)
def test_executor_wedge_times_out_and_recovers(runtime):
    ex = make_executor(
        runtime, workers=2, timeout=1.0, fault=parse_fault("wedge:1:0")
    )
    try:
        start = time.monotonic()
        with pytest.raises(WorkerTimeoutError, match="deadline"):
            ex.run([_graph()])
        assert time.monotonic() - start < HANG_BOUND

        result = ex.run([_graph()])
        assert result.faults is not None
        assert result.faults.worker_timeouts == 1
    finally:
        ex.close()


def test_shm_crash_releases_slots_and_orphans_nothing():
    """The data-plane half of recovery: a mid-round crash on the slab plane
    must not leave live slots (masking the original error with the leak
    check on the next run) nor orphan /dev/shm segments."""
    ex = make_executor(
        "shm_processes", workers=2, timeout=10.0, fault=parse_fault("crash:0:1")
    )
    g = _graph(nbytes=2 * SLAB_THRESHOLD)
    try:
        with pytest.raises(WorkerCrashError):
            ex.run([g])
        buffers = ex._buffers
        assert buffers is not None
        assert buffers.live_slots == 0  # aborted round fully unwound
        segments = list(buffers.segment_names)
        assert segments
        for name in segments:
            assert os.path.exists(f"/dev/shm/{name}")  # still backing the pool

        result = ex.run([g])  # no data-plane leak error
        assert result.validated
    finally:
        ex.close()
    for name in segments:
        assert not os.path.exists(f"/dev/shm/{name}")  # unlinked on close


class TestWindowAbort:
    """Failure path of the shm window barrier: a worker waiting on its
    peers must abort — as a *bystander* — when one of them fails."""

    def test_returns_once_every_peer_reached_target(self):
        counters = np.array([0, 2, 3], dtype=np.uint64)
        _await_peers(counters, [(1, os.getpid()), (2, os.getpid())], 2)

    def test_peer_that_published_abort(self):
        counters = np.zeros(2, dtype=np.uint64)
        counters[1] = _ABORT
        with pytest.raises(WindowAbortError, match="aborted by peer worker 1") as exc:
            _await_peers(counters, [(1, os.getpid())], 1)
        assert exc.value.secondary_error

    def test_peer_whose_pid_is_dead(self):
        child = mp.get_context("fork").Process(target=os._exit, args=(0,))
        child.start()
        child.join(timeout=HANG_BOUND)
        assert not child.is_alive()  # reaped: the pid no longer exists
        counters = np.zeros(2, dtype=np.uint64)
        start = time.monotonic()
        with pytest.raises(WindowAbortError, match=f"pid {child.pid}.*died") as exc:
            _await_peers(counters, [(1, child.pid)], 1)
        assert exc.value.secondary_error
        assert time.monotonic() - start < HANG_BOUND

    def test_pool_prefers_primary_error_over_bystander(self):
        pick = ForkWorkerPool._prefer_failure
        bystander = WindowAbortError("window aborted by peer worker 1")
        primary = ValueError("root cause")
        assert pick(None, bystander) is bystander
        assert pick(bystander, primary) is primary  # later worker, real error
        assert pick(primary, bystander) is primary
        assert pick(primary, ValueError("second")) is primary  # first wins


def test_shm_one_step_and_full_windows_capture_identical_outputs(monkeypatch):
    """On the slab plane a fault-armed executor runs one-timestep windows
    (round = timestep), an unarmed one up to 32 timesteps per window; both
    must publish byte-identical outputs and the same program-order event
    stream (what ``--audit`` replays)."""
    monkeypatch.delenv("TASKBENCH_INJECT_FAULT", raising=False)
    g = _graph(nbytes=2 * SLAB_THRESHOLD, timesteps=40, max_width=6)
    captured, events = {}, {}
    for label, fault, window in [
        ("armed", parse_fault("delay:0:2:0.05"), 1),
        ("unarmed", None, 32),
    ]:
        ex = make_executor("shm_processes", workers=2, timeout=30.0, fault=fault)
        try:
            assert ex._window_steps([g]) == window
            with capturing_outputs() as sink, tracing(TraceRecorder()) as rec:
                assert ex.run([g]).validated
            captured[label] = dict(sink)
            events[label] = [(e.kind, e.task, e.source) for e in rec.events]
        finally:
            ex.close()
    assert len(captured["unarmed"]) == 39 * 6  # last timestep has no readers
    assert captured["armed"] == captured["unarmed"]
    assert events["armed"] == events["unarmed"]
    # Program order: timesteps never interleave in the surfaced stream.
    steps = [task[1] for _kind, task, _source in events["unarmed"]]
    assert steps == sorted(steps)


def test_graph_cache_replay_after_crash():
    """A healed pool must execute the *current* graphs, not a stale cache:
    run graph A clean, crash during run of a *different* graph B under the
    same graph_index, then re-run B — validation (enabled) catches any
    stale replay in the respawned worker."""
    # Worker 1 serves 4 chunk rounds in run A (timesteps=4), so a fault at
    # round index 4 fires on its first round of run B.
    ex = make_executor(
        "processes", workers=2, timeout=10.0, fault=parse_fault("crash:1:4")
    )
    try:
        a = _graph(nbytes=64)
        assert ex.run([a]).validated  # run A: clean, caches A in workers
        b = _graph(
            nbytes=1024,
            dependence=DependenceType.FFT,
            kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2),
        )
        with pytest.raises(WorkerCrashError):
            ex.run([b])
        result = ex.run([b])  # healed worker must boot with graph B, not A
        assert result.validated
        assert result.faults.workers_respawned == 1
    finally:
        ex.close()


# ----------------------------------------------------------------------
# Data-plane recovery primitives
# ----------------------------------------------------------------------
class TestBufpoolRecovery:
    def test_release_live_reclaims_and_staleifies(self):
        with SharedMemorySlabPool() as pool:
            refs = [pool.acquire(128, refs=2) for _ in range(5)]
            assert pool.live_slots == 5
            assert pool.release_live() == 5
            assert pool.live_slots == 0
            for ref in refs:  # outstanding handles went stale, not silent
                with pytest.raises(StaleHandleError):
                    pool.resolve(ref)
            # Released slots recycle through the free lists.
            again = pool.acquire(128)
            assert pool.stats.hits >= 1
            pool.decref(again)
        assert pool.release_live() == 0  # closed pool: a no-op

    def test_sweep_unlinks_only_orphans(self):
        keeper = SharedMemorySlabPool()
        orphan = SharedMemorySlabPool()
        try:
            keeper.acquire(64)
            orphan.acquire(64)
            kept = list(keeper.segment_names)
            lost = list(orphan.segment_names)
            assert not orphaned_segments()

            # Simulate a fault unwinding the owner before close() ran.
            _POOLS.pop(orphan.pool_id)
            assert orphaned_segments() == sorted(lost)
            swept = sweep_orphaned_segments()
            assert swept == sorted(lost)
            for name in lost:
                assert not os.path.exists(f"/dev/shm/{name}")
            for name in kept:  # live pools are never touched
                assert os.path.exists(f"/dev/shm/{name}")
            assert not orphaned_segments()
        finally:
            keeper.release_live()
            keeper.close()
            orphan.close()  # segments already swept; teardown tolerates it


# ----------------------------------------------------------------------
# METG probe retry
# ----------------------------------------------------------------------
class TestRetrying:
    """The one retry loop (``cli.run_config`` and ``metg.efficiency.measure``
    both call it)."""

    @pytest.fixture()
    def naps(self, monkeypatch):
        import repro.faults

        slept = []
        monkeypatch.setattr(repro.faults.time, "sleep", slept.append)
        return slept

    def _flaky(self, failures, error=WorkerCrashError):
        calls = []

        def attempt():
            calls.append(len(calls))
            if len(calls) <= failures:
                raise error(f"attempt {len(calls)}")
            return "done"

        return attempt, calls

    def test_first_success_is_no_retry(self, naps):
        attempt, calls = self._flaky(0)
        assert retrying(attempt, 3) == ("done", 0)
        assert (calls, naps) == ([0], [])

    def test_transient_failures_are_retried_with_doubling_backoff(self, naps):
        attempt, calls = self._flaky(3, WorkerTimeoutError)
        assert retrying(attempt, 3) == ("done", 3)
        assert len(calls) == 4
        assert naps == [RETRY_BACKOFF_SECONDS * k for k in (1, 2, 4)]

    def test_the_failure_past_the_budget_propagates(self, naps):
        attempt, calls = self._flaky(3)
        with pytest.raises(WorkerCrashError, match="attempt 3"):
            retrying(attempt, 2)
        assert len(calls) == 3 and len(naps) == 2

    def test_other_errors_are_not_retried(self, naps):
        attempt, calls = self._flaky(1, ValueError)
        with pytest.raises(ValueError):
            retrying(attempt, 5)
        assert (calls, naps) == ([0], [])


def test_metg_probe_retry_costs_one_probe():
    """An injected transient crash during a sweep costs one retried probe,
    visible in the measurement's fault counters."""
    ex = make_executor(
        "processes", workers=2, timeout=10.0, fault=parse_fault("crash:0:1")
    )
    runner = RealRunner(ex, max_retries=2)
    try:

        def factory(iterations):
            return [
                _graph(
                    kernel=Kernel(
                        kernel_type=KernelType.COMPUTE_BOUND,
                        iterations=iterations,
                    )
                )
            ]

        m = measure(runner, factory, 4)
        assert m.result.faults is not None
        assert m.result.faults.probe_retries == 1
        assert m.result.faults.worker_crashes == 1
        assert m.result.faults.workers_respawned == 1
    finally:
        ex.close()


def test_metg_probe_retry_budget_exhausted():
    """With no retry budget the transient failure propagates."""
    ex = make_executor(
        "processes", workers=2, timeout=10.0, fault=parse_fault("crash:0:0")
    )
    runner = RealRunner(ex, max_retries=0)
    try:
        with pytest.raises(WorkerCrashError):
            measure(runner, lambda n: [_graph()], 1)
    finally:
        ex.close()


def test_metg_unachievable_reports_peak_not_last(monkeypatch):
    """The METGUnachievable message must cite the sweep's *best*
    efficiency (curves are noisy and non-monotone), not the last probe's."""
    import importlib

    from repro.core.metrics import RunResult
    from repro.metg.efficiency import Measurement

    # ``repro.metg`` re-exports the ``metg`` *function* under the same
    # name, so ``import repro.metg.metg`` would bind the function.
    metg_mod = importlib.import_module("repro.metg.metg")

    curve = {1: 0.2, 8: 0.45, 64: 0.3}

    def fake_measure(runner, factory, iterations, *, metric="flops"):
        result = RunResult(
            executor="fake", elapsed_seconds=1.0, cores=1,
            total_tasks=1, total_dependencies=0,
        )
        return Measurement(
            iterations=iterations, result=result,
            efficiency=curve[iterations],
        )

    monkeypatch.setattr(metg_mod, "measure", fake_measure)

    class FakeRunner:
        name = "fake"

    with pytest.raises(metg_mod.METGUnachievable) as excinfo:
        metg_mod.metg(
            FakeRunner(), lambda n: [], start_iterations=1, max_iterations=64
        )
    message = str(excinfo.value)
    assert "0.450" in message  # the peak, not the last probe's 0.300
    assert "at 8 iterations/task" in message
