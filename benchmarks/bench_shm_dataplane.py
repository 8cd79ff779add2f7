"""Data-plane A/B: pickled payloads vs shared-memory handles.

Runs the same 16-column stencil graph through the two process executors —
``processes`` (every payload pickled across the pool each timestep) and
``shm_processes`` (payloads written in place into pooled shared-memory
slots, only :class:`~repro.core.bufpool.PayloadRef` handles cross the
pipe) — over a payload-size sweep.

Two metrics:

* **granularity** per (backend, size): end-to-end wall time per task
  (empty kernel, so this is all runtime overhead);
* **data-plane overhead** per backend: the marginal per-task cost of
  payload bytes, i.e. the slope of granularity vs payload size.  Dispatch
  cost (fork-pool round trips, chunk assembly) is identical machinery in
  both backends and lands in the intercept, so the slope isolates exactly
  what the data plane changes — which is what makes the comparison
  meaningful on hosts where dispatch dominates at small payloads.

The slope is fitted *within each timing round* (every cell is measured
once per round, so one round's points share the same host conditions) and
the median across rounds is reported; that pairing keeps round-level host
drift out of the estimate.  The fit covers sizes up to 16 KiB — past the
pipe buffer the pickle path's cost turns super-linear, which would flatter
the shared-memory side.  The 64 KiB cell is still measured and reported
raw.

Results land in ``benchmarks/results/shm_dataplane.json`` (plus a rendered
text table) so EXPERIMENTS.md can cite the measured ratios.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from repro.core import DependenceType, TaskGraph
from repro.runtimes import make_executor

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

STEPS = 30
WIDTH = 16
PAYLOAD_BYTES = (16, 1024, 4096, 16384, 65536)
FIT_BYTES = (16, 1024, 4096, 16384)  # linear-regime sizes (<= pipe buffer)
BACKENDS = ("processes", "shm_processes")
REPEATS = 9


def _graph(nbytes: int) -> TaskGraph:
    return TaskGraph(
        timesteps=STEPS,
        max_width=WIDTH,
        dependence=DependenceType.STENCIL_1D,
        output_bytes_per_task=nbytes,
    )


def _sweep() -> tuple:
    """Measure every (backend, payload size) cell; returns
    ``(per_cell, per_backend)`` summaries.

    Repeats are interleaved across cells — every cell is timed once per
    round — so slow phases of a shared host spread over all cells instead
    of biasing whichever cell they landed on.  One executor per cell lives
    for the whole sweep: its fork pool, worker caches, and slab pool stay
    warm, which is the steady state the data plane is designed for.
    """
    cells = [(b, n) for b in BACKENDS for n in PAYLOAD_BYTES]
    executors = {cell: make_executor(cell[0], workers=1) for cell in cells}
    graphs = {cell: _graph(cell[1]) for cell in cells}
    try:
        times: dict = {cell: [] for cell in cells}
        stats: dict = {}
        for cell in cells:  # warm-up round
            executors[cell].run([graphs[cell]])
        for _ in range(REPEATS):
            for cell in cells:
                start = time.perf_counter()
                result = executors[cell].run([graphs[cell]])
                times[cell].append(time.perf_counter() - start)
                stats[cell] = result.data_plane
    finally:
        for ex in executors.values():
            ex.close()

    tasks = STEPS * WIDTH
    per_cell: dict = {}
    per_backend: dict = {}
    for backend in BACKENDS:
        per_cell[backend] = {}
        for nbytes in PAYLOAD_BYTES:
            s = stats[backend, nbytes]
            per_cell[backend][nbytes] = {
                "task_granularity_seconds": min(times[backend, nbytes]) / tasks,
                "bytes_copied": s.bytes_copied if s else 0,
                "bytes_shared": s.bytes_shared if s else 0,
                "pool_hit_rate": s.pool_hit_rate if s else 0.0,
            }
        # One granularity-vs-bytes slope per round (paired points), median
        # across rounds.
        round_slopes = []
        for r in range(REPEATS):
            xs = list(FIT_BYTES)
            ys = [times[backend, n][r] / tasks for n in FIT_BYTES]
            slope, _intercept = statistics.linear_regression(xs, ys)
            round_slopes.append(slope)
        slope = max(statistics.median(round_slopes), 0.0)
        per_backend[backend] = {
            "seconds_per_payload_byte": slope,
            "overhead_at_4096_seconds": slope * 4096,
        }
    return per_cell, per_backend


def test_shm_dataplane_ab():
    per_cell, per_backend = _sweep()

    rows = []
    for nbytes in PAYLOAD_BYTES:
        entry = {"payload_bytes": nbytes}
        for backend in BACKENDS:
            entry[backend] = dict(per_cell[backend][nbytes])
        gran_a = entry["processes"]["task_granularity_seconds"]
        gran_b = entry["shm_processes"]["task_granularity_seconds"]
        entry["granularity_ratio"] = gran_a / gran_b
        rows.append(entry)

    slope_a = per_backend["processes"]["seconds_per_payload_byte"]
    slope_b = per_backend["shm_processes"]["seconds_per_payload_byte"]
    overhead_ratio = slope_a / slope_b if slope_b > 0 else float("inf")

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "shm_dataplane.json"
    payload = {
        "schema_version": 1,
        "scenario": {
            "dependence": "stencil_1d",
            "timesteps": STEPS,
            "max_width": WIDTH,
            "workers": 1,
            "kernel": "empty",
            "repeats": REPEATS,
            "fit_payload_bytes": list(FIT_BYTES),
        },
        "data_plane_overhead": {
            **per_backend,
            "overhead_ratio": None
            if overhead_ratio == float("inf")
            else overhead_ratio,
        },
        "rows": rows,
    }
    out_path.write_text(json.dumps(payload, indent=1) + "\n")

    lines = [
        f"{'payload':>8}  {'processes':>11}  {'shm':>11}  {'gran ratio':>10}",
    ]
    for entry in rows:
        lines.append(
            f"{entry['payload_bytes']:>7}B"
            f"  {entry['processes']['task_granularity_seconds'] * 1e6:>9.1f}us"
            f"  {entry['shm_processes']['task_granularity_seconds'] * 1e6:>9.1f}us"
            f"  {entry['granularity_ratio']:>9.2f}x"
        )
    lines.append("")
    lines.append(
        "data-plane overhead at 4 KiB (slope fit over "
        f"{FIT_BYTES[0]}B-{FIT_BYTES[-1]}B): "
        f"processes {slope_a * 4096 * 1e6:.2f}us/task, "
        f"shm {slope_b * 4096 * 1e6:.2f}us/task, "
        f"ratio {overhead_ratio:.1f}x"
    )
    (RESULTS_DIR / "shm_dataplane.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))

    # Acceptance: at 4 KiB payloads the shared-memory data plane moves
    # bytes with >= 3x lower per-task overhead than the pickle path.
    assert overhead_ratio >= 3.0, (per_backend, rows)
    # And the handle path never regresses end-to-end granularity by more
    # than measurement noise at any size.
    for entry in rows:
        assert entry["granularity_ratio"] > 0.85, entry
