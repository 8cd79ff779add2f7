"""Tiled ``serial`` against the ``execute_point`` oracle.

``serial`` runs an owner's stack of rows as one tile
(``TaskGraph.execute_tile``): one ``take``, one ``memcmp`` and one copy for
the lot.  That must be invisible except in speed: every output it publishes
equals, byte for byte, what a loop of ``execute_point`` in program order
makes, fed its producers' outputs — on every dependence type and width, on
heights that end inside a tile, at one and at the end of one, on payloads on
both sides of ``_BULK_BYTES``, on several graphs of different heights in one
run, and with budgets so small that tiles and their blocks are evicted and
compiled or stamped again.  And what the sinks see of each graph — the
``--audit`` recorder's event stream — is what a row-by-row run emits.
"""

import functools

import pytest

from repro.check.hb_audit import audited
from repro.core import DependenceType, TaskGraph, fastpath, validation
from repro.core.validation import _BULK_BYTES
from repro.runtimes import make_executor
from repro.runtimes._common import TraceRecorder, capturing_outputs, tracing


@pytest.fixture(autouse=True)
def fresh_tables(monkeypatch):
    """Tables made from here on, so that a patched budget is the one tiles
    are compiled under."""
    monkeypatch.setattr(fastpath, "_table_cached", functools.lru_cache(
        maxsize=None)(fastpath._table_cached.__wrapped__))


def _graph(dependence, width, steps, nbytes=16, graph_index=0, **kw):
    return TaskGraph(timesteps=steps, max_width=width, dependence=dependence,
                     radix=3, period=3, fraction_connected=0.5,
                     output_bytes_per_task=nbytes, graph_index=graph_index,
                     seed=97 * width + steps, **kw)


def _oracle(g):
    """Every published output of ``g`` by task key, as an ``execute_point``
    loop in program order makes it."""
    out = {}
    for t, i in g.points():
        out[t, i] = g.execute_point(
            t, i, [out[t - 1, j] for j in g.dependency_points(t, i)])
    return {(g.graph_index, t, i): value.tobytes()
            for (t, i), value in out.items() if g.consumer_count(t, i)}


def _row_by_row_events(g):
    """The ``(kind, task, source)`` stream a row-by-row run hands the sinks
    for ``g``: each task's start, one acquire per input, finish, and publish
    when somebody reads it, in program order."""
    gi, events = g.graph_index, []
    for t, i in g.points():
        key = (gi, t, i)
        events.append(("start", key, None))
        events += [("acquire", key, (gi, t - 1, j))
                   for j in g.dependency_columns(t, i)]
        events.append(("finish", key, None))
        if g.consumer_count(t, i):
            events.append(("publish", key, None))
    return events


def _serial(graphs):
    with capturing_outputs() as got, make_executor("serial") as ex:
        ex.run(graphs, validate=True)
    return got


class TestEveryPattern:
    """Three full rows a tile: heights 2 and 4 end inside a tile and at
    one past its end, 3 is exactly one tile, 7 is two and a bit."""

    @pytest.mark.parametrize("dependence", list(DependenceType),
                             ids=lambda d: d.value)
    def test_equals_the_point_loop(self, dependence, monkeypatch):
        for width in range(1, 18):
            monkeypatch.setattr(fastpath, "_BATCH", 3 * width)
            for steps in (1, 2, 3, 4, 7):
                g = _graph(dependence, width, steps)
                assert _serial([g]) == _oracle(g), (width, steps)
            if dependence is DependenceType.STENCIL_1D:
                tiles = [g.tile_plan(0), g.tile_plan(3), g.tile_plan(6)]
                assert [(p.t0, p.t1) for p in tiles] == [(0, 3), (3, 6), (6, 7)]


class TestPayloads:
    """A row of exactly ``_BULK_BYTES`` is a tile of one row whose inputs,
    above the bound, are compared one by one; a byte more and the row is no
    tile at all; 40 B is no multiple of the 32-byte header."""

    @pytest.mark.parametrize("nbytes", [16, 40, _BULK_BYTES // 8,
                                        _BULK_BYTES // 8 + 1])
    def test_equals_the_point_loop(self, nbytes):
        g = _graph(DependenceType.STENCIL_1D, 8, 6, nbytes=nbytes)
        assert validation.tiles(g) == (nbytes <= _BULK_BYTES // 8)
        assert _serial([g]) == _oracle(g)
        if validation.tiles(g):
            height = g.tile_plan(0).t1
            assert height == (1 if nbytes * 22 > _BULK_BYTES else g.timesteps)


class TestSeveralGraphs:
    def _graphs(self):
        return [
            _graph(DependenceType.STENCIL_1D, 8, 9, graph_index=0),
            _graph(DependenceType.TREE, 8, 3, graph_index=1),
            _graph(DependenceType.FFT, 4, 1, graph_index=2),
            _graph(DependenceType.SPREAD, 7, 6, nbytes=40, graph_index=3),
            _graph(DependenceType.NEAREST, 3, 5, nbytes=_BULK_BYTES // 2,
                   graph_index=4),  # no tile: a row at a time
        ]

    def test_graphs_of_different_heights_equal_the_point_loop(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_BATCH", 16)
        graphs = self._graphs()
        want = {}
        for g in graphs:
            want.update(_oracle(g))
        assert _serial(graphs) == want

    def test_each_graphs_events_are_a_row_by_row_runs(self, monkeypatch):
        """Under the conformance capture and the ``--audit`` recorder at
        once: each graph's stream is what a row-by-row run emits, and the
        audit of the whole is clean."""
        monkeypatch.setattr(fastpath, "_BATCH", 16)
        graphs = self._graphs()
        with make_executor("serial") as ex:
            with capturing_outputs() as got, tracing(TraceRecorder()) as rec:
                ex.run(graphs, validate=True)
            verdict = audited(lambda: ex.run(graphs), graphs, "serial")
        events = [(e.kind, e.task, e.source) for e in rec.events]
        for g in graphs:
            mine = [e for e in events if e[1][0] == g.graph_index]
            assert mine == _row_by_row_events(g)
            assert {k: v for k, v in got.items() if k[0] == g.graph_index} == (
                _oracle(g))
        assert verdict.ok and verdict.num_events == len(events)


class TestEvictingBudgets:
    """An edge budget of about two rows and a memo of a few blocks: tiles
    and rows go and are compiled again, blocks go and are stamped again,
    within a run and between runs, and nothing published changes."""

    def test_equals_the_point_loop_run_after_run(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_MAX_EDGES", 2 * 8 * 8)
        monkeypatch.setattr(fastpath, "_BATCH", 3 * 8)
        monkeypatch.setattr(validation, "_memo", fastpath.Bounded(4096))
        graphs = [
            _graph(DependenceType.RANDOM_NEAREST, 8, 40, graph_index=0,
                   ).with_(radix=7, fraction_connected=0.75, period=-1),
            _graph(DependenceType.STENCIL_1D, 8, 31, nbytes=40, graph_index=1),
        ]
        want = {}
        for g in graphs:
            want.update(_oracle(g))
        for _ in range(2):
            compiles = fastpath.counters()[1]
            assert _serial(graphs) == want
            assert fastpath.counters()[1] > compiles  # tiles came back
        table = graphs[0]._table._plans
        assert table.held <= table.budget or len(table) == 1
        assert validation._memo.held <= 4096 or len(validation._memo) == 1
