"""METG smoke regression: the zero-copy data plane must not regress METG.

The acceptance guard for :mod:`repro.runtimes.shm`: on a small fixed
scenario, ``shm_processes`` METG must stay within 2x of ``processes`` METG
(the tolerance absorbs host noise; the benchmark in
``benchmarks/bench_shm_dataplane.py`` measures the actual win).  The
assertion is the test: nothing is written to the tree.

Single worker on purpose: CI containers expose one core, and a two-worker
process pool cannot reach 50% efficiency against a one-core calibrated
peak.
"""

from __future__ import annotations

import pytest

from repro.metg import RealRunner, compute_workload, metg
from repro.runtimes import make_executor

pytestmark = pytest.mark.slow

#: Small fixed scenario: payload large enough that the data plane matters.
WIDTH = 4
STEPS = 10
OUTPUT_BYTES = 4096
SEED = 123
#: Noise tolerance of the A/B assertion (satellite spec: 2x).
MAX_RATIO = 2.0


def _metg_seconds(runtime: str) -> float:
    """Best-of-2 METG(50%) for one backend (min damps host noise; the
    worker pool persists across both searches, as METG sweeps rely on)."""
    ex = make_executor(runtime, workers=1)
    try:
        runner = RealRunner(ex)
        factory = compute_workload(
            WIDTH, STEPS, output_bytes=OUTPUT_BYTES, seed=SEED
        )
        return min(
            metg(
                runner,
                factory,
                max_iterations=1 << 24,
                tolerance=0.25,
            ).metg_seconds
            for _ in range(2)
        )
    finally:
        ex.close()


def test_shm_metg_within_tolerance_of_processes():
    base = _metg_seconds("processes")
    shm = _metg_seconds("shm_processes")
    ratio = shm / base
    assert ratio <= MAX_RATIO, (
        f"shm_processes METG {shm * 1e6:.0f}us is {ratio:.2f}x processes "
        f"METG {base * 1e6:.0f}us (limit {MAX_RATIO}x) — the zero-copy "
        "data plane regressed"
    )
