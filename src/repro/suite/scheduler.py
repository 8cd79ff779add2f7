"""Resource-aware parallel suite scheduler.

Runs the independent cells of a :class:`~repro.suite.spec.SuiteSpec`
concurrently, each in its own forked worker process, under three admission
rules:

1. **Job cap** — at most ``jobs`` cells in flight.
2. **Core budget** — the sum of running cells' core costs (from
   :func:`repro.runtimes.registry.runtime_core_cost`) never exceeds the
   host budget, so two process-pool cells cannot oversubscribe the machine
   and corrupt each other's timings.  A single cell larger than the budget
   still runs — alone.
3. **Isolation exclusivity** — cells whose executor substrate claims
   host-global resources are serialized against their
   :attr:`~repro.core.executor_base.Executor.isolation` metadata:
   ``cluster`` cells (socket meshes, rank process trees) never overlap
   another cluster cell, and cells whose process executor will put their
   payloads in shared-memory slabs never overlap each other (they contend
   for /dev/shm capacity), whichever name they run it under.

Cross-cell caching: the scheduler calibrates the kernel's peak FLOP/s
*once*, before any cell runs, and pins it via ``TASKBENCH_PEAK_FLOPS`` so
every cell — in every worker process — shares one 100 %-efficiency
reference (otherwise each cell's efficiencies would be scaled by its own
noisy calibration and METG would not be comparable across cells).  Within
a cell, task-graph construction is memoized and the probes of a sweep
reuse one warm runner (persistent pools stay up across probes).

Every finished cell is durably recorded in the
:class:`~repro.suite.store.SuiteStore` before the scheduler moves on, so a
killed suite resumes with only the remainder.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, List, Optional, Sequence

from ..metg.efficiency import measure
from ..metg.metg import METGUnachievable, metg
from ..metg.runners import PEAK_FLOPS_ENV, make_runner, peak_flops_per_core
from ..runtimes.registry import runtime_core_cost, runtime_isolation
from .spec import Cell, SuiteSpec
from .store import SuiteStore

#: Isolation classes that must never overlap a running cell of the same
#: class (host-global substrate: socket meshes + rank process trees).
EXCLUSIVE_ISOLATION = frozenset({"cluster"})

#: How long a deadline-exceeded or shutdown-terminated cell worker gets to
#: die gracefully before escalating to SIGKILL.
_REAP_GRACE_SECONDS = 5.0


@dataclass(frozen=True)
class SuiteSummary:
    """Outcome of one scheduler invocation."""

    total: int
    skipped: int
    ok: int
    unachievable: int
    failed: int
    wall_seconds: float

    @property
    def ran(self) -> int:
        return self.ok + self.unachievable + self.failed

    def report_lines(self) -> List[str]:
        return [
            f"Suite Cells {self.total} ({self.skipped} already complete)",
            f"Suite Ran {self.ran} ({self.ok} ok, "
            f"{self.unachievable} unachievable, {self.failed} failed)",
            f"Suite Wall Time {self.wall_seconds:e} seconds",
        ]


# ---------------------------------------------------------------------------
# Cell execution (runs inside a forked worker process)
# ---------------------------------------------------------------------------
def _make_runner(cell: Cell):
    return make_runner(
        cell.runtime, workers=cell.workers, nodes=cell.nodes,
        cores_per_node=cell.cores_per_node, timeout=cell.timeout,
    )


def run_cell(cell: Cell, runner=None) -> dict:
    """Execute one cell to a durable record (never raises).

    One runner serves every probe of the cell, so persistent substrates
    (fork pools, slab pools, rank meshes) stay warm across the sweep.  By
    default the runner is built here and closed before the record is
    returned, so worker trees never outlive the cell; a caller that owns
    a warm runner (the serve daemon checking an executor out of its warm
    pool) passes it in and keeps responsibility for its lifecycle — the
    cell then runs without paying substrate construction, and ``run_cell``
    never closes what it did not open.
    """
    started = time.perf_counter()
    status, error = "ok", None
    measurements: dict = {}
    owns_runner = runner is None
    try:
        if runner is None:
            runner = _make_runner(cell)
        if cell.metric == "run":
            m = measure(runner, cell.graphs_at, cell.iterations)
            measurements = {
                "iterations": m.iterations,
                "efficiency": m.efficiency,
                "granularity_seconds": m.granularity_seconds,
                "flops_per_second": m.flops_per_second,
                "elapsed_seconds": m.result.elapsed_seconds,
                "probes": 1,
            }
        else:
            res = metg(
                runner,
                cell.graphs_at,
                target_efficiency=cell.target,
                start_iterations=max(1, cell.iterations),
                max_iterations=cell.max_iterations,
            )
            measurements = {
                "metg_seconds": res.metg_seconds,
                "efficiency": res.above.efficiency,
                "iterations": res.above.iterations,
                "flops_per_second": res.above.flops_per_second,
                "probes": len(res.history),
            }
    except METGUnachievable as e:
        status, error = "unachievable", str(e)
    except Exception as e:  # a failed cell must not sink the suite
        status, error = "failed", f"{type(e).__name__}: {e}"
    finally:
        if owns_runner and runner is not None:
            try:
                runner.close()
            except Exception:
                pass
    record = {
        "key": cell.key,
        "cell": cell.params(),
        "status": status,
        "wall_seconds": time.perf_counter() - started,
        "measurements": measurements,
    }
    if error is not None:
        record["error"] = error
    return record


def _cell_worker(params: dict, store_root: str) -> None:
    """Worker-process entry point: run the cell, record it, exit 0."""
    store = SuiteStore(store_root)
    store.write(run_cell(Cell(**params)))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One unit of in-flight work, as admission control sees it.

    The currency shared by every layer that schedules benchmark work on
    one host — the suite scheduler's cell workers and the serve daemon's
    warm-executor jobs both admit against lists of claims, so the
    isolation-exclusivity and core-budget rules cannot drift apart.
    """

    runtime: str
    cost: int
    isolation: str
    #: Whether the work keeps its payloads in /dev/shm slabs.
    slabs: bool = False


def admit(candidate: Claim, running: Sequence[Claim], max_jobs: int,
          core_budget: int) -> bool:
    """Whether ``candidate`` may start now, given the in-flight claims.

    The three admission rules of the module docstring: job cap, isolation
    exclusivity (cluster meshes never overlap; neither do two claims on
    /dev/shm slabs), and the host core budget.  An idle scheduler admits
    anything — guaranteed progress even for a claim larger than the budget.
    """
    if len(running) >= max_jobs:
        return False
    if not running:
        return True  # guaranteed progress: an idle scheduler admits anything
    if candidate.isolation in EXCLUSIVE_ISOLATION and any(
        claim.isolation == candidate.isolation for claim in running
    ):
        return False
    if candidate.slabs and any(claim.slabs for claim in running):
        return False
    used = sum(claim.cost for claim in running)
    return used + candidate.cost <= core_budget


@dataclass
class _Job:
    cell: Cell
    proc: multiprocessing.process.BaseProcess
    claim: Claim
    started: float


def cell_cost(cell: Cell) -> int:
    """Host cores a running cell effectively occupies."""
    if cell.is_simulated:
        return 1  # pure in-process computation
    return runtime_core_cost(cell.runtime, cell.workers)


def cell_isolation(cell: Cell) -> str:
    return "serial" if cell.is_simulated else runtime_isolation(cell.runtime)


def cell_uses_slabs(cell: Cell) -> bool:
    """Whether the cell's process executor will run it on its slab plane
    (the executor module's own test, so only it knows the threshold)."""
    if cell_isolation(cell) != "processes":
        return False
    from ..runtimes.processes import uses_slabs

    return uses_slabs([cell.payload_bytes])


def claim_for_cell(cell: Cell) -> Claim:
    """The admission claim one cell occupies while it runs."""
    return Claim(
        runtime=cell.runtime,
        cost=cell_cost(cell),
        isolation=cell_isolation(cell),
        slabs=cell_uses_slabs(cell),
    )


def admissible(cell: Cell, running: List[_Job], jobs: int,
               core_budget: int) -> bool:
    """Whether ``cell`` may start now, given the in-flight jobs."""
    return admit(
        claim_for_cell(cell), [job.claim for job in running], jobs,
        core_budget,
    )


# ---------------------------------------------------------------------------
# The scheduler loop
# ---------------------------------------------------------------------------
def run_suite(
    spec: SuiteSpec,
    store: SuiteStore,
    *,
    jobs: int = 1,
    core_budget: Optional[int] = None,
    resume: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> SuiteSummary:
    """Run every incomplete cell of ``spec``, up to ``jobs`` at a time.

    With ``resume=True`` cells that already have a terminal record in the
    store are skipped (the kill -9 recovery path); failed cells are always
    retried.  Returns a :class:`SuiteSummary`; per-cell results live in
    the store.
    """
    emit = echo if echo is not None else (lambda line: None)
    store.ensure(spec)
    cells = spec.cells()
    done = store.completed() if resume else set()
    pending = deque(cell for cell in cells if cell.key not in done)
    skipped = len(cells) - len(pending)
    jobs = max(1, jobs)
    budget = core_budget if core_budget is not None else (os.cpu_count() or 1)
    budget = max(1, budget)
    started_wall = time.perf_counter()
    counts = {"ok": 0, "unachievable": 0, "failed": 0}
    total = len(pending)
    launched = 0

    restore_env = _pin_calibration(pending, emit)
    ctx = _fork_context()
    running: List[_Job] = []
    try:
        while pending or running:
            # First-fit launch scan: a blocked cluster cell at the head of
            # the queue must not starve admissible smaller cells behind it.
            progressed = True
            while progressed and pending and len(running) < jobs:
                progressed = False
                for i, cell in enumerate(pending):
                    if admissible(cell, running, jobs, budget):
                        del pending[i]
                        proc = ctx.Process(
                            target=_cell_worker,
                            args=(cell.params(), str(store.root)),
                        )
                        proc.start()
                        launched += 1
                        emit(f"[{launched}/{total}] start {cell.key}")
                        running.append(_Job(
                            cell=cell,
                            proc=proc,
                            claim=claim_for_cell(cell),
                            started=time.perf_counter(),
                        ))
                        progressed = True
                        break
            ready = mp_connection.wait(
                [job.proc.sentinel for job in running],
                timeout=_wait_timeout(running, spec.cell_timeout),
            )
            now = time.perf_counter()
            for job in list(running):
                if job.proc.sentinel in ready or not job.proc.is_alive():
                    job.proc.join()
                    running.remove(job)
                    status = _conclude(store, job, emit)
                    counts[status] = counts.get(status, 0) + 1
                elif (
                    spec.cell_timeout is not None
                    and now - job.started > spec.cell_timeout
                ):
                    _reap(job.proc)
                    running.remove(job)
                    store.write({
                        "key": job.cell.key,
                        "cell": job.cell.params(),
                        "status": "failed",
                        "wall_seconds": now - job.started,
                        "measurements": {},
                        "error": (
                            f"cell deadline exceeded "
                            f"({spec.cell_timeout:g}s); worker killed"
                        ),
                    })
                    counts["failed"] += 1
                    emit(f"  kill {job.cell.key}: cell deadline exceeded")
    finally:
        for job in running:
            _reap(job.proc)
        restore_env()
    return SuiteSummary(
        total=len(cells),
        skipped=skipped,
        ok=counts["ok"],
        unachievable=counts["unachievable"],
        failed=counts["failed"],
        wall_seconds=time.perf_counter() - started_wall,
    )


def _conclude(store: SuiteStore, job: _Job, emit) -> str:
    """Classify a finished worker and make sure a record exists."""
    record = store.read(job.cell.key)
    if job.proc.exitcode == 0 and record is not None:
        status = str(record.get("status", "failed"))
        highlight = _highlight(record)
        emit(f"  done {job.cell.key}: {status}{highlight}")
        return status
    # The worker died before recording (interpreter crash, OOM kill):
    # record the failure so the aggregate names the hole; a resume retries.
    store.write({
        "key": job.cell.key,
        "cell": job.cell.params(),
        "status": "failed",
        "wall_seconds": time.perf_counter() - job.started,
        "measurements": {},
        "error": f"cell worker exited with code {job.proc.exitcode} "
                 "before recording a result",
    })
    emit(f"  done {job.cell.key}: failed (worker exit "
         f"{job.proc.exitcode})")
    return "failed"


def _highlight(record: dict) -> str:
    m = record.get("measurements") or {}
    if m.get("metg_seconds") is not None:
        return (f" (METG {m['metg_seconds']:.3e}s, "
                f"{m.get('probes', 0)} probes)")
    if m.get("granularity_seconds") is not None:
        eff = m.get("efficiency")
        eff_text = f", eff {eff:.3f}" if eff is not None else ""
        return f" (granularity {m['granularity_seconds']:.3e}s{eff_text})"
    return ""


def _wait_timeout(running: List[_Job], cell_timeout: Optional[float]):
    if not running:
        return 0.0
    if cell_timeout is None:
        return None  # sentinels alone wake the scheduler
    now = time.perf_counter()
    remaining = min(cell_timeout - (now - job.started) for job in running)
    return max(0.05, remaining)


def _reap(proc: multiprocessing.process.BaseProcess) -> None:
    """Terminate a worker, escalating to SIGKILL if it lingers."""
    if not proc.is_alive():
        proc.join()
        return
    proc.terminate()
    proc.join(_REAP_GRACE_SECONDS)
    if proc.is_alive():
        proc.kill()
        proc.join()


def _pin_calibration(pending, emit) -> Callable[[], None]:
    """Calibrate once, before any cell runs, and export the reference.

    Pins ``TASKBENCH_PEAK_FLOPS`` so every cell worker inherits the same
    per-core peak instead of each calibrating its own noisy reference.
    Returns a closure restoring the previous environment.
    """
    if all(cell.is_simulated for cell in pending):
        return lambda: None
    previous = os.environ.get(PEAK_FLOPS_ENV)
    if previous is None:
        peak = peak_flops_per_core()
        os.environ[PEAK_FLOPS_ENV] = repr(peak)
        emit(f"calibrated kernel peak: {peak:.3e} FLOP/s per core")

    def restore() -> None:
        if previous is None:
            os.environ.pop(PEAK_FLOPS_ENV, None)
        else:
            os.environ[PEAK_FLOPS_ENV] = previous

    return restore


def _fork_context():
    """Fork workers when the platform offers it (cheap, inherits the
    calibration cache and graph memo); otherwise the default context."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


__all__ = [
    "EXCLUSIVE_ISOLATION",
    "Claim",
    "SuiteSummary",
    "admissible",
    "admit",
    "cell_cost",
    "cell_isolation",
    "cell_uses_slabs",
    "claim_for_cell",
    "run_cell",
    "run_suite",
]
