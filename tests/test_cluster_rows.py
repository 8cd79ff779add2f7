"""An observed cluster run reports row by row (``repro.cluster``).

When a sink is installed every rank sends one ``("rows", epoch, t, blocks)``
control message per timestep and the launcher retires each row on arrival,
so neither side ever holds the run:

* the memory contract — the parent's allocation peak is the captured
  mapping plus rows in flight, no control message outgrows one rank's
  timestep, ``done`` carries no payload;
* sinks cannot tell: the mapping and the event sequence are ``serial``'s,
  also with several graphs and a rank that owns nothing of the narrow rows;
* a rank dying mid-stream leaves the sinks with complete earlier rows only,
  and nothing of the dead epoch reaches the next run;
* a hostile ``rows`` message is an error and a torn-down mesh, never merged.
"""

from __future__ import annotations

import pickle
import time
import tracemalloc

import pytest

from repro.check.hb_audit import audited
from repro.cluster import Cluster, WireError
from repro.cluster import rank as rank_module
from repro.cluster.launcher import _RowStream
from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.faults import FaultSpec
from repro.runtimes import WorkerCrashError, make_executor
from repro.runtimes._common import (
    TraceRecorder,
    capturing_outputs,
    retire_rows,
    tracing,
)

HANG_BOUND = 20.0


def _graph(gi=0, steps=6, width=4, nbytes=48,
           dependence=DependenceType.STENCIL_1D, **kw) -> TaskGraph:
    kw.setdefault(
        "kernel", Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2)
    )
    return TaskGraph(
        graph_index=gi, timesteps=steps, max_width=width, dependence=dependence,
        output_bytes_per_task=nbytes, **kw,
    )


def _watched(executor, graphs):
    """One run under the capture and the hb-audit recorder: the mapping and
    the ``(kind, task, source)`` sequence the sinks were handed."""
    with capturing_outputs() as sink, tracing(TraceRecorder()) as rec:
        executor.run(graphs)
    return dict(sink), [(e.kind, e.task, e.source) for e in rec.events]


class _SpyConn:
    """A control pipe's parent end that logs ``(kind, pickled size, fields)``
    of every message it receives and is the real connection otherwise."""

    def __init__(self, conn, log):
        self._conn, self._log = conn, log

    def recv(self):
        buf = self._conn.recv_bytes()
        msg = pickle.loads(buf)
        self._log.append((msg[0], len(buf), len(msg)))
        return msg

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_memory_contract_of_a_captured_run():
    nbytes, width, steps = 65536, 8, 40
    g = _graph(steps=steps, width=width, nbytes=nbytes,
               kernel=Kernel(kernel_type=KernelType.EMPTY))
    with capturing_outputs() as want:
        make_executor("serial").run([g])
    log = []
    with make_executor("cluster_uds", workers=2) as ex:
        ex.run([g])  # launch the mesh, ship the graph
        conns = ex._cluster._conns
        conns[:] = [_SpyConn(conn, log) for conn in conns]
        tracemalloc.start()
        try:
            with capturing_outputs() as got:
                ex.run([g])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # (c) bytewise serial's; the last row has no readers and is absent.
    assert got == want
    assert len(got) == (steps - 1) * width
    assert not any(t == steps - 1 for _gi, t, _i in got)
    # (a) the mapping itself plus rows in flight (2.5x before the stream).
    captured = sum(len(v) for v in got.values())
    assert captured == (steps - 1) * width * nbytes
    assert peak <= 1.25 * captured
    # (b) one message per rank per timestep, none above a rank's block of
    # one row; ``done`` is the wire stats and nothing else.
    kinds = [kind for kind, _size, _fields in log]
    assert kinds.count("rows") == 2 * steps and kinds.count("done") == 2
    block = width // 2 * nbytes
    assert max(size for kind, size, _ in log if kind == "rows") <= block + 1024
    assert all(
        fields == 2 and size < 1024
        for kind, size, fields in log if kind == "done"
    )


def test_unobserved_run_exchanges_one_spec_and_one_done_per_rank():
    log = []
    with make_executor("cluster_uds", workers=2) as ex:
        ex.run([_graph()])
        conns = ex._cluster._conns
        conns[:] = [_SpyConn(conn, log) for conn in conns]
        ex.run([_graph()])
    assert [kind for kind, _size, _fields in log] == ["done", "done"]


@pytest.mark.parametrize("runtime", ["cluster_uds", "cluster_tcp"])
def test_rows_of_several_graphs_retire_in_serial_order(runtime):
    """Two graphs of different heights on 3 ranks; rank 2 owns no column of
    the 2-wide graph's rows and reports nothing for them.  Each graph's
    events come in ``serial``'s order (which takes graphs in turn a tile, not
    a row, at a time)."""
    graphs = [
        _graph(0, steps=9, width=7),
        _graph(1, steps=4, width=2, dependence=DependenceType.NEAREST, radix=3),
    ]
    want, order = _watched(make_executor("serial"), graphs)
    with make_executor(runtime, workers=3) as ex:
        got, events = _watched(ex, graphs)
        verdict = audited(lambda: ex.run(graphs), graphs, runtime)
    assert got == want
    for gi in range(len(graphs)):
        assert ([e for e in events if e[1][0] == gi]
                == [e for e in order if e[1][0] == gi])
    starts = [(t, gi) for kind, (gi, t, _i), _src in events if kind == "start"]
    assert starts == sorted(starts)  # timestep-major, graph-interleaved
    assert verdict.ok and verdict.num_events == len(order)


def test_rank_crash_mid_stream_leaves_complete_earlier_rows():
    g = _graph(steps=8, width=6)
    want, _ = _watched(make_executor("serial"), [g])
    fault = FaultSpec("crash", worker=1, round_index=3)
    with make_executor("cluster_uds", workers=2, fault=fault) as ex:
        start = time.perf_counter()
        with capturing_outputs() as sink, tracing(TraceRecorder()) as rec:
            with pytest.raises(WorkerCrashError):
                ex.run([g])
        assert time.perf_counter() - start < HANG_BOUND
        # Rank 1 never ran timestep 3, so no row from 3 on is complete.
        rows = {t for _gi, t, _i in sink}
        assert rows and max(rows) < 3
        assert sink == {k: v for k, v in want.items() if k[1] in rows}
        finished = {e.task for e in rec.events if e.kind == "finish"}
        assert finished == {(0, t, i) for t in rows for i in range(6)}
        # The relaunched mesh: the whole mapping, nothing of the dead epoch.
        again, _ = _watched(ex, [g])
    assert again == want


class TestHostileRows:
    """What a rank reports is checked against what it owes before any of it
    reaches a sink."""

    GRAPH = _graph(steps=3, width=4)

    def _stream(self):
        seen = []
        stream = _RowStream(
            [self.GRAPH], 2, lambda g, t, lo, hi, outs: seen.append((t, lo, hi))
        )
        return stream, seen

    def test_rows_retire_when_complete_and_in_order(self):
        stream, seen = self._stream()
        stream.add(1, 0, [(0, 2, [None, None])])
        stream.add(1, 1, [(0, 2, [None, None])])
        assert seen == []  # rank 0's half of row 0 is still missing
        stream.add(0, 0, [(0, 0, [None, None])])
        assert seen == [(0, 0, 4)]
        stream.add(0, 1, [(0, 0, [None, None])])
        assert seen == [(0, 0, 4), (1, 0, 4)]
        with pytest.raises(WireError, match="without reporting every row"):
            stream.finish()

    @pytest.mark.parametrize("blocks, why", [
        ([(0, 1, [None, None])], "columns 1-2 straddle the two ranks"),
        ([(0, 0, [None, None, None])], "column 2 is rank 1's"),
        ([(1, 0, [None, None])], "no such graph"),
        ([(0, 0, [None])], "half its block"),
    ])
    def test_block_the_sender_does_not_owe(self, blocks, why):
        stream, seen = self._stream()
        stream.add(1, 0, [(0, 2, [None, None])])
        with pytest.raises(WireError, match="rank 0 reported row block"):
            stream.add(0, 0, blocks)
        assert seen == []

    def test_second_block_for_the_same_row(self):
        stream, seen = self._stream()
        stream.add(0, 0, [(0, 0, [b"a", b"b"])])
        stream.add(0, 0, [(0, 0, [b"x", b"y"])])  # held: rank 1 has not reported
        with pytest.raises(WireError, match=r"\[0, 0, 0, 2\] where it owed \[1,"):
            stream.add(1, 0, [(0, 2, [None, None])])
            stream.add(1, 1, [(0, 2, [None, None])])
        assert seen == [(0, 0, 4)]

    def test_block_after_the_last_row(self):
        stream, _ = self._stream()
        for t in range(3):
            for r in range(2):
                stream.add(r, t, [(0, 2 * r, [None, None])])
        stream.finish()
        stream.add(0, 2, [(0, 0, [None, None])])
        with pytest.raises(WireError, match="without reporting every row"):
            stream.finish()

    @pytest.mark.parametrize("lie", ["epoch", "column", "twice"])
    def test_lying_rank_tears_the_mesh_down(self, monkeypatch, lie):
        """Ranks are forked from this process, so a patched ``run_epoch``
        is what they run: rank 0 reports a stale epoch, a column of rank
        1's, or its first block twice."""
        real = rank_module.RankDriver.run_epoch

        def run_epoch(self, graphs, epoch, *, rows, **kw):
            def hostile(msg):
                _, _, t, blocks = msg
                if self.rank == 0 and t == 1:
                    if lie == "epoch":
                        msg = ("rows", epoch - 1, t, blocks)
                    elif lie == "column":
                        gi, lo, outs = blocks[0]
                        msg = ("rows", epoch, t, [(gi, lo + 2, outs)])
                    else:
                        rows(msg)
                rows(msg)

            return real(self, graphs, epoch, rows=rows and hostile, **kw)

        monkeypatch.setattr(rank_module.RankDriver, "run_epoch", run_epoch)
        cluster = Cluster(2, "uds", timeout=HANG_BOUND)
        try:
            cluster.run([self.GRAPH])  # unobserved: nothing to lie about
            with capturing_outputs() as sink:
                with pytest.raises((WireError, RuntimeError), match="rank 0"):
                    cluster.run([self.GRAPH], rows=retire_rows, capture=True)
            assert cluster.dead and cluster.alive_ranks == 0
            # Honest rows reached the sink; the doubled block of row 1 is
            # found when rank 0 owes row 2.
            honest = {0, 1} if lie == "twice" else {0}
            assert {t for _gi, t, _i in sink} == honest
        finally:
            cluster.close()
