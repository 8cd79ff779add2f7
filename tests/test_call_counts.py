"""Counted work: the calls a task of one warm run makes, by a profile hook.

``sys.setprofile`` sees every Python ``call`` and C ``c_call`` event of the
thread that runs ``serial``, so the count of one warm run at one worker is a
property of the code, not of the host's clock: the same from one process to
the next on one interpreter.  A bound on it catches per-task work creeping
back into a path that does its work per row or per tile, which a wall-clock
bound on a noisy host cannot resolve.
"""

import sys

import pytest

from repro.core import DependenceType, Kernel, KernelType, TaskGraph, fastpath
from repro.core import validation
from repro.runtimes import make_executor


def calls_a_task(runtime: str, graph: TaskGraph) -> float:
    """``call`` and ``c_call`` events per task of the third run of
    ``graph`` on a fresh ``runtime`` at one worker: the first two compile
    the plans and fill the pattern memo as a warm process has them."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    with make_executor(runtime, workers=1) as ex:
        ex.run([graph])
        ex.run([graph])
        sys.setprofile(count)
        try:
            tasks = ex.run([graph]).total_tasks
        finally:
            sys.setprofile(None)
    return calls / tasks


def _stencil(steps: int, nbytes: int) -> TaskGraph:
    return TaskGraph(timesteps=steps, max_width=8,
                     dependence=DependenceType.STENCIL_1D,
                     kernel=Kernel(kernel_type=KernelType.EMPTY),
                     output_bytes_per_task=nbytes, seed=0xCA11)


@pytest.mark.parametrize("steps, nbytes, bound", [
    # big_payload: a row above _BULK_BYTES, one probe per producer and one
    # memcmp per input; the per-task walk it replaced made 26.1.
    (100, 1 << 16, 12),
    # fine_stencil: tiles of 186 rows, one take, memcmp and copy each.
    (250, 16, 0.05),
], ids=["big_payload", "fine_stencil"])
def test_serial_calls_a_task(steps, nbytes, bound, monkeypatch):
    # What the memos hold from earlier tests would be evicted, a call or
    # more each, inside the counted run.
    monkeypatch.setattr(validation, "_memo",
                        fastpath.Bounded(validation._MEMO_BYTES))
    monkeypatch.setattr(validation, "_columns",
                        fastpath.Bounded(validation._COLUMN_BYTES))
    got = calls_a_task("serial", _stencil(steps, nbytes))
    assert got <= bound, f"{got:.3f} calls a task, bound {bound}"
    # The count is the code's, not the run's: a second warm run agrees.
    assert calls_a_task("serial", _stencil(steps, nbytes)) == got
