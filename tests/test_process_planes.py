"""The process executor's two data planes, chosen by payload size.

``processes`` and ``shm_processes`` are one executor
(:mod:`repro.runtimes.processes`): rows of payloads up to ``SLAB_THRESHOLD``
bytes are pickled through the pool's pipes, larger ones live in
shared-memory slabs and only handles cross.  Which plane a run took is read
off ``RunResult.data_plane`` — counted, not clocked.
"""

from __future__ import annotations

import os

import pytest

from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.runtimes import make_executor
from repro.runtimes._common import TraceRecorder, capturing_outputs, tracing
from repro.runtimes.processes import SLAB_THRESHOLD, uses_slabs

NAMES = ["processes", "shm_processes"]


def _graph(nbytes, graph_index=0, **kw) -> TaskGraph:
    kw.setdefault("timesteps", 6)
    kw.setdefault("max_width", 4)
    kw.setdefault("dependence", DependenceType.STENCIL_1D)
    return TaskGraph(output_bytes_per_task=nbytes, graph_index=graph_index,
                     kernel=Kernel(kernel_type=KernelType.EMPTY), **kw)


def _segments() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.parametrize("name", NAMES)
def test_each_payload_lands_on_its_plane(name):
    with make_executor(name, workers=2) as ex:
        small = ex.run([_graph(16)]).data_plane
        assert small.bytes_shared == small.payloads_shared == 0
        assert small.bytes_copied > 0
        big = ex.run([_graph(65536)])
        assert big.data_plane.bytes_copied == big.data_plane.payloads_copied == 0
        assert big.data_plane.payloads_shared == big.total_tasks
        at = ex.run([_graph(SLAB_THRESHOLD)]).data_plane
        above = ex.run([_graph(SLAB_THRESHOLD + 1)]).data_plane
    assert at.bytes_shared == 0 and at.bytes_copied > 0
    assert above.bytes_copied == 0 and above.bytes_shared > 0
    assert not uses_slabs([16, SLAB_THRESHOLD])
    assert uses_slabs([16, SLAB_THRESHOLD + 1])


def _observed(executor, graphs):
    with capturing_outputs() as outputs, tracing(TraceRecorder()) as rec:
        executor.run(graphs)
    # Program order is per graph: serial interleaves graphs a tile at a
    # time, the pool a row at a time.
    events = {
        g.graph_index: [(e.kind, e.task, e.source) for e in rec.events
                        if e.task[0] == g.graph_index]
        for g in graphs
    }
    return dict(outputs), events


def test_one_warm_executor_serves_both_planes():
    """16 B, then 64 KiB, then 16 B again, then one run mixing both: one
    instance, bytewise serial's outputs and event streams on every run, no
    live slot after any, and no segment left once it is closed."""
    before = _segments()
    runs = [
        [_graph(16)],
        [_graph(65536, max_width=5)],
        [_graph(16, timesteps=9)],
        [_graph(16, 0, timesteps=9, max_width=6),
         _graph(65536, 1, max_width=4, dependence=DependenceType.FFT)],
    ]
    ex = make_executor("shm_processes", workers=2)
    try:
        pools = set()
        for graphs in runs:
            with make_executor("serial") as serial:
                want = _observed(serial, graphs)
            assert _observed(ex, graphs) == want
            pools.add(id(ex._procs))
            if ex._buffers is None:  # a pickled run makes no slab pool
                assert graphs is runs[0]
            else:
                assert ex._buffers.live_slots == 0
        assert len(pools) == 1  # forked once, warm across both planes
        segments = set(ex._buffers.segment_names)
        assert segments and segments <= _segments()
    finally:
        ex.close()
    assert not segments & _segments()
    assert _segments() <= before
