"""Tests of the row plan and ``TaskGraph.execute_row``.

The row path must be *invisible* except in speed, so everything here is
differential: a ``RowPlan``'s fields against the spec's interval math, and
``execute_row`` against a loop of ``execute_point`` over the same block —
identical output bytes on good inputs, the identical ``ValidationError``
message on bad ones.
"""

import functools
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DependenceType, Kernel, KernelType, TaskGraph, fastpath, validation,
)
from repro.core.bufpool import HeapSlabPool, as_array
from repro.core.dependence import DependenceSpec, count_points
from repro.core.fastpath import DependenceTable
from repro.core.validation import _BULK_BYTES, ValidationError, task_output
from repro.runtimes import make_executor
from repro.runtimes._common import capturing_outputs

specs = st.builds(
    DependenceSpec,
    st.sampled_from(list(DependenceType)),
    st.integers(min_value=1, max_value=16),  # width
    st.integers(min_value=1, max_value=8),  # height
    radix=st.integers(min_value=0, max_value=8),
    period=st.sampled_from([-1, 1, 2, 3, 4]),
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)

#: 0 B, the default, one that is no multiple of the 32-byte header, and the
#: two sizes that put a 16-wide row's outputs (and a one-input task's
#: inputs) on either side of ``_BULK_BYTES``.
payloads = st.sampled_from([0, 16, 40, _BULK_BYTES // 16, _BULK_BYTES // 16 + 8])


def _graph_of(s, nbytes=16, **kwargs):
    return TaskGraph(
        timesteps=s.height, max_width=s.width, dependence=s.dtype,
        radix=s.radix, period=s.period, fraction_connected=s.fraction,
        seed=s.seed, output_bytes_per_task=nbytes, **kwargs,
    )


def _block(data, g, t):
    """A drawn ``[lo, hi)`` inside the active window of row ``t``."""
    off = g.offset_at_timestep(t)
    end = off + g.width_at_timestep(t)
    lo = data.draw(st.integers(off, end - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, end), label="hi")
    return lo, hi


def _inputs(g, t, lo, hi):
    """The block's canonical inputs, laid end to end."""
    if t == 0:
        return []
    return [task_output(g, t - 1, j)
            for i in range(lo, hi) for j in g.dependency_columns(t, i)]


def _point_loop(g, t, lo, hi, inputs, out=None):
    """The reference: ``execute_point`` per task, ``inputs`` split at the
    plan's CSR offsets with the last task taking the tail."""
    plan = g.row_plan(t)
    first = plan.starts[lo - plan.off]
    results = []
    for i in range(lo, hi):
        k = i - plan.off
        end = plan.starts[k + 1] - first if i < hi - 1 else None
        results.append(g.execute_point(
            t, i, inputs[plan.starts[k] - first:end],
            out=None if out is None else out[i - lo],
        ))
    return results


def _oracle_row(s, t):
    """Every field of row ``t``'s plan, from the scalar spec alone."""
    off, width = s.offset_at_timestep(t), s.width_at_timestep(t)
    prev_off = s.offset_at_timestep(t - 1) if t else 0
    prev_width = s.width_at_timestep(t - 1) if t else 0
    deps = tuple(tuple(s.dependency_points(t, i))
                 for i in range(off, off + width))
    readers = tuple(tuple(s.reverse_dependency_points(t - 1, j))
                    for j in range(prev_off, prev_off + prev_width))
    counts = [len(d) for d in deps]
    return dict(
        off=off, width=width, prev_off=prev_off, deps=deps, readers=readers,
        counts=counts, starts=[sum(counts[:k]) for k in range(width + 1)],
        cols=tuple(j for d in deps for j in d),
        flat=[j - prev_off for d in deps for j in d],
        reads=[len(r) for r in readers],
        consumers=[count_points(s.reverse_dependencies(t, i))
                   for i in range(off, off + width)],
    )


class TestRowPlanFields:
    @settings(max_examples=60, deadline=None)
    @given(specs)
    def test_fields_match_spec(self, s):
        g = _graph_of(s)
        for t in range(s.height):
            plan, want = g.row_plan(t), _oracle_row(g.spec, t)
            assert {name: getattr(plan, name) for name in want} == want
            assert plan.columns(plan.off, plan.off + plan.width) is plan.cols
            assert plan.index.dtype == np.intp
            assert plan.index.tolist() == want["flat"]

    @settings(max_examples=60, deadline=None)
    @given(specs)
    def test_reads_are_the_previous_rows_consumers(self, s):
        """Duality: how often row ``t`` reads each output of row ``t - 1``
        (counted from the forward relation) is what row ``t - 1`` publishes
        it for (the reverse relation) — the serial executor's drain check."""
        g = _graph_of(s)
        assert g.row_plan(0).reads == []
        for t in range(1, s.height):
            assert g.row_plan(t).reads == g.row_plan(t - 1).consumers
        assert not any(g.row_plan(s.height - 1).consumers)

    @settings(max_examples=40, deadline=None)
    @given(specs)
    def test_totals_are_sums_over_points(self, s):
        g = _graph_of(s)
        points = list(g.points())
        assert g.total_tasks() == len(points)
        assert g.total_dependencies() == sum(
            g.spec.num_dependencies(t, i) for t, i in points)

    def test_shared_per_structure_and_counted_as_hits(self):
        s = DependenceSpec(DependenceType.STENCIL_1D, 8, 20)
        table = DependenceTable(s)
        fastpath.reset_counters()
        plans = [table.row_plan(t) for t in range(s.height)]
        # First, steady and last rows: three structure pairs in all.
        assert len({id(p) for p in plans}) == 3
        assert plans[1] is plans[18]
        hits, compiles = fastpath.counters()
        assert compiles == 2  # one forward, one reverse structure
        fastpath.reset_counters()
        for t in range(s.height):
            assert table.row_plan(t) is plans[t]
        assert fastpath.counters() == (s.height, 0)

    def test_out_of_range_timestep_raises(self):
        g = TaskGraph(timesteps=4, max_width=4)
        with pytest.raises(IndexError):
            g.row_plan(4)
        with pytest.raises(IndexError):
            g.row_plan(-1)

    def test_concurrent_lookups_past_front_cache(self, monkeypatch):
        """3000 never-repeating rows under 4 threads and an edge budget a
        fifth of them fit: insertion and oldest-first eviction of whole
        batches of plans stay atomic, the cache's own count of what it holds
        stays exact, and what was evicted recompiles equal."""
        monkeypatch.setattr(fastpath, "_MAX_EDGES", 1 << 14)
        s = DependenceSpec(DependenceType.RANDOM_NEAREST, 8, 3000, radix=5,
                           period=-1, fraction=0.5, seed=7)
        table = DependenceTable(s)
        errors = []

        def hammer(start):
            try:
                for t in range(start, s.height):
                    plan = table.row_plan(t)
                    assert plan.deps[3] == tuple(s.dependency_points(t, 3))
                    assert plan.consumers[3] == count_points(
                        s.reverse_dependencies(t, 3))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(1 + 5 * k,))
                       for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        plans = table._plans
        assert plans.held == sum(len(p.flat) + p.width for p in plans.values())
        assert plans.budget - 64 < plans.held <= plans.budget == 1 << 14
        assert s.height - 1 in plans and 0 not in plans


def _matrix_spec(dtype, width, height, period, seed):
    return DependenceSpec(dtype, width, height, radix=4, period=period,
                          fraction=0.6, seed=seed)


@functools.lru_cache(maxsize=None)
def _oracle_rows(*spec):
    """The oracle of one matrix cell, shared by its held and evicting runs."""
    s = _matrix_spec(*spec)
    return [_oracle_row(s, t) for t in range(s.height)]


class TestArraysAgainstTheOracle:
    """Every array-built field of every plan, and both per-task views derived
    from it, against the scalar ``dependencies()`` / ``reverse_dependencies()``
    — on graphs whose heights straddle a batch boundary (three rows a batch
    here), the end of the set-id cycle (fft stages, the tree's lead, spread's
    width, a random period) and, with a budget of a few rows, the point
    where the oldest plans go and come back."""

    WIDTHS = range(1, 18)

    @pytest.mark.parametrize("evicting", [False, True], ids=["held", "evicting"])
    @pytest.mark.parametrize("dtype", list(DependenceType), ids=lambda d: d.value)
    def test_every_field_of_every_row(self, dtype, evicting, monkeypatch):
        periods = (-1, 2) if dtype is DependenceType.RANDOM_NEAREST else (-1,)
        for width in self.WIDTHS:
            monkeypatch.setattr(fastpath, "_BATCH", 3 * width)
            if evicting:  # two or three rows of it
                monkeypatch.setattr(fastpath, "_MAX_EDGES", 10 * width)
            for period in periods:
                lead, cycle = DependenceSpec(
                    dtype, width, 2, period=period).dependence_set_cycle()
                heights = {1, 2, 3, 4, 5} | {
                    lead + cycle + d for d in (-1, 0, 1, 2) if period != -1
                    or dtype is not DependenceType.RANDOM_NEAREST}
                for height in sorted(h for h in heights if 1 <= h <= 20):
                    self._check(_matrix_spec(
                        dtype, width, height, period, 31 * width + height),
                        evicting)

    @staticmethod
    def _check(s, evicting):
        table = DependenceTable(s)
        want = _oracle_rows(s.dtype, s.width, s.height, s.period, s.seed)
        # Forward, then back: batches begin at any row, evicted rows return.
        for t in [*range(s.height), *reversed(range(s.height))]:
            plan = table.row_plan(t)
            assert {name: getattr(plan, name) for name in want[t]} == want[t], (
                s.dtype, s.width, s.height, s.period, t)
            lo = plan.off + plan.width // 3
            assert plan.columns(lo, plan.off + plan.width) == tuple(
                j for d in want[t]["deps"][lo - plan.off:] for j in d)
            assert plan.index.tolist() == want[t]["flat"]
        for t, row in enumerate(() if evicting else want):  # once is enough
            for k, i in enumerate(range(row["off"], row["off"] + row["width"])):
                assert table.dependency_columns(t, i) == row["deps"][k]
                assert table.num_dependencies(t, i) == row["counts"][k]
                assert table.consumer_count(t, i) == row["consumers"][k]
                assert table.dependencies(t, i) == s.dependencies(t, i)
                assert table.reverse_dependency_columns(t, i) == tuple(
                    s.reverse_dependency_points(t, i))
        points = sum(row["width"] for row in want)
        assert DependenceTable(s).totals() == table.totals() == (
            points, sum(len(row["flat"]) for row in want))
        plans = table._plans
        assert plans.held == sum(len(p.flat) + p.width for p in plans.values())
        if evicting and points > 40 * s.width:
            assert len(plans) < s.height  # something did go


MUTANTS = ["row before last", "shifted dependency", "swapped inputs"]


def _mutant_inputs(g, t, mutant):
    """Row ``t``'s inputs laid end to end (its window full width), one of
    ``MUTANTS`` applied: every input one row too old, one input the output
    of the column beside its producer, or two inputs of different producers
    swapped."""
    cols = g.row_plan(t).cols
    inputs = [task_output(g, t - 1, j) for j in cols]
    where = len(cols) // 2
    if mutant == "row before last":
        return [task_output(g, t - 2, j) for j in cols]
    if mutant == "shifted dependency":
        inputs[where] = task_output(g, t - 1, (cols[where] + 1) % g.max_width)
    else:
        other = next(n for n, j in enumerate(cols) if j != cols[where])
        inputs[where], inputs[other] = inputs[other], inputs[where]
    return inputs


class TestBatchStampedBlocksKillMutants:
    """A slice of the harness mutants (ROADMAP 5a) aimed at the batch stamp:
    the first validated row of a block owner misses the pattern memo and
    stamps the expected blocks of the rows after it too, so a later row is
    compared against bytes made rows earlier.  Serve it the row before
    last, one dependency shifted, or two inputs swapped, and it must die
    with the text ``execute_point`` dies with — under ``_BULK_BYTES``, where
    the stamped block is what is compared, and over it."""

    T0, T = 2, 5  # the row that stamps, and the row that is served wrong

    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(validation, "_memo",
                            fastpath.Bounded(validation._MEMO_BYTES))

    def _graph(self, nbytes):
        return TaskGraph(
            timesteps=9, max_width=8, dependence=DependenceType.RANDOM_NEAREST,
            radix=7, fraction_connected=0.75, output_bytes_per_task=nbytes,
            seed=0xD5E)

    @pytest.mark.parametrize("nbytes", [16, _BULK_BYTES // 8],
                             ids=["bulk", "per-input"])
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_killed_with_the_text_of_execute_point(self, mutant, nbytes,
                                                   fresh_memo, monkeypatch):
        g = self._graph(nbytes)
        stamped = []  # (producer row, columns) of every expected input block
        stamp = validation._stamp

        def spy(seed, gi, nb, rows, block=False):
            if not block:
                stamped.extend((t, tuple(cols)) for _, t, cols in rows)
            return stamp(seed, gi, nb, rows, block)

        monkeypatch.setattr(validation, "_stamp", spy)
        g.execute_row(self.T0, 0, 8, _inputs(g, self.T0, 0, 8), scratch=None,
                      validate=True)
        plan = g.row_plan(self.T)
        # Row T0's miss stamped row T's expected inputs with its own, under
        # the bulk bound only; row T is judged against those bytes.
        assert ((self.T - 1, plan.cols) in stamped) == (
            nbytes * len(plan.cols) <= _BULK_BYTES) == (nbytes == 16)
        del stamped[:]
        bad = _mutant_inputs(g, self.T, mutant)
        with pytest.raises(ValidationError) as want:
            _point_loop(g, self.T, 0, 8, list(bad))
        with pytest.raises(ValidationError) as got:
            g.execute_row(self.T, 0, 8, bad, scratch=None, validate=True)
        assert str(got.value) == str(want.value)
        assert f"(t={self.T}, i=" in str(got.value)
        # The right inputs still pass against the same stamped block.
        g.execute_row(self.T, 0, 8, _inputs(g, self.T, 0, 8), scratch=None,
                      validate=True)
        assert not stamped

    @pytest.mark.parametrize("nbytes", [16, _BULK_BYTES // 8],
                             ids=["bulk", "per-input"])
    def test_serial_dies_of_a_gather_shifted_by_one(self, nbytes, monkeypatch,
                                                    fresh_memo):
        """The same mutant inside the harness: ``serial`` gathers row 5 from
        a plan whose ``flat`` — and ``index``, what a row kept as one block
        is gathered with — names a neighbour's output once."""
        g = self._graph(nbytes)
        plan = g.row_plan(self.T)
        where = len(plan.flat) // 2
        shifted = list(plan.flat)
        shifted[where] = (shifted[where] + 1) % 8
        monkeypatch.setattr(plan, "flat", shifted)
        monkeypatch.setattr(plan, "index", np.array(shifted, dtype=np.intp))
        with pytest.raises(ValidationError) as got:
            make_executor("serial").run([g], validate=True)
        k = next(k for k in range(8) if plan.starts[k + 1] > where)
        # (A 16-byte output holds half a header: it cannot say whose it is.)
        assert str(got.value) == (
            f"task (t={self.T}, i={k}) of graph 0: input slot "
            f"{where - plan.starts[k]} should be the output of "
            f"(t={self.T - 1}, i={plan.cols[where]}) but " + (
                "does not match any expected task output" if nbytes == 16 else
                f"is the output of graph 0 task (t={self.T - 1}, "
                f"i={shifted[where]})"))


def _point_outputs(g):
    """Every output of ``g`` as bytes by task key: an ``execute_point``
    loop in program order, each task fed its producers' outputs."""
    out = {}
    for t, i in g.points():
        out[g.graph_index, t, i] = g.execute_point(
            t, i, [out[g.graph_index, t - 1, j] for j in g.dependency_points(t, i)])
    return {key: value.tobytes() for key, value in out.items()}


#: The seeded list at tile granularity: what ``serial``'s unit of work can
#: get wrong that a row cannot.
TILE_MUTANTS = ["row before last, inside", "row before last, across",
                "take index shifted", "tail input dropped", "swapped inputs",
                "another tile's token", "recompiled tile"]


class TestTilesKillMutants:
    """``execute_tile`` gathers every input of a stack of rows with one
    ``take`` and compares them all with one ``memcmp``; each mutant of that
    must die with the text ``execute_point`` dies of, naming the first
    offending task of the tile, on the inputs the mutant made.  Three rows
    a tile here, four tiles a graph; 40 B is no multiple of the header."""

    WIDTH, STEPS = 8, 12

    @pytest.fixture(autouse=True)
    def short_tiles(self, monkeypatch):
        # Tables made from here on: nothing compiled under other budgets.
        monkeypatch.setattr(fastpath, "_table_cached", functools.lru_cache(
            maxsize=None)(fastpath._table_cached.__wrapped__))
        monkeypatch.setattr(fastpath, "_BATCH", 3 * self.WIDTH)

    def _graph(self, nbytes):
        return TaskGraph(
            timesteps=self.STEPS, max_width=self.WIDTH, seed=0x711E,
            dependence=DependenceType.RANDOM_NEAREST, radix=7,
            fraction_connected=0.75, output_bytes_per_task=nbytes)

    @staticmethod
    def _rows(g, steps):
        """The true outputs of rows ``steps``, end to end: a tile buffer
        made by nothing under test."""
        return np.array([task_output(g, t, i) for t in steps
                         for i in range(g.max_width)])

    @staticmethod
    def _verdict(g, tile, inputs):
        """What ``execute_point`` says of ``inputs``, split row by row at the
        tile's CSR offsets, in program order: its first error's text."""
        for r, t in enumerate(range(tile.t0, tile.t1)):
            try:
                _point_loop(g, t, 0, g.max_width,
                            list(inputs[tile.starts[r]:tile.starts[r + 1]]))
            except ValidationError as exc:
                return str(exc)
        raise AssertionError("the mutant made no bad input")

    @pytest.mark.parametrize("nbytes", [16, 40])
    @pytest.mark.parametrize("mutant", TILE_MUTANTS)
    def test_killed_with_the_text_of_execute_point(self, mutant, nbytes,
                                                   monkeypatch):
        g = self._graph(nbytes)
        if mutant == "recompiled tile":
            return self._recompiled(g, monkeypatch)
        with make_executor("serial") as ex:
            ex.run([g, g.with_(graph_index=1)], validate=True)  # all warm
        first, tile, last = g.tile_plan(0), g.tile_plan(3), g.tile_plan(6)
        assert (first.t1, tile.t1) == (3, 6)
        prev = self._rows(g, [2])
        buf = self._rows(g, range(2, 6))  # what the tile's buffer must be
        index = tile.index.copy()
        a, b = tile.starts[1], tile.starts[2]  # the middle row's inputs
        if mutant == "row before last, inside":
            index[a:b] -= self.WIDTH
        elif mutant == "row before last, across":
            prev = self._rows(g, [1])
            buf = self._rows(g, [1, *range(3, 6)])
        elif mutant == "take index shifted":
            index[(a + b) // 2] += 1
        elif mutant == "tail input dropped":
            index = index[:-1]
        elif mutant == "swapped inputs":
            cols = np.array(tile.cols[1])
            k = len(cols) // 2
            other = int(np.flatnonzero(cols != cols[k])[0])
            index[[a + k, a + other]] = index[[a + other, a + k]]
        else:  # another tile's token: its blocks are in the memo
            assert (last.t1 - last.t0) == (tile.t1 - tile.t0)
            tile, prev = last, self._rows(g, [5])
            buf = self._rows(g, [5, *range(3, 6)])
            monkeypatch.setattr(tile, "token", g.tile_plan(3).token)
            index = tile.index
        monkeypatch.setattr(tile, "index", index)
        want = self._verdict(g, tile, buf.take(index, 0))
        with pytest.raises(ValidationError) as got:
            g.execute_tile(tile, prev, scratch=None, validate=True)
        assert str(got.value) == want
        named = {"row before last, across": tile.t0,
                 "tail input dropped": tile.t1 - 1}.get(mutant, tile.t0 + 1)
        assert want.startswith(f"task (t={named}, ")

    def _recompiled(self, g, monkeypatch):
        """Tiles evicted and compiled again (an edge budget of about two
        rows) whose index the second compile shifts once: a warm run must
        validate what it recompiled, not pass on what it held."""
        monkeypatch.setattr(fastpath, "_MAX_EDGES", 2 * 8 * g.max_width)
        compile_tile = DependenceTable._compile_tile
        made, bad = set(), []

        def mutated(self, t0, most, gi):
            tile = compile_tile(self, t0, most, gi)
            if t0 in made and not bad and len(tile.index):
                tile.index[len(tile.index) // 2] += 1
                bad.append(tile)
            made.add(t0)
            return tile

        monkeypatch.setattr(DependenceTable, "_compile_tile", mutated)
        with make_executor("serial") as ex:
            ex.run([g], validate=True)
            assert not bad
            with pytest.raises(ValidationError) as got:
                ex.run([g], validate=True)
        tile, = bad
        buf = self._rows(g, range(max(tile.t0 - 1, 0), tile.t1))
        assert str(got.value) == self._verdict(g, tile, buf.take(tile.index, 0))


class TestPlanKeyedBlocksDoNotAlias:
    """Expected blocks are filed under a plan's token and ``(t, lo, hi,
    graph_index, nbytes)``.  Graphs that share a dependence table, or a
    seed, graph index and width, and a graph whose plans are evicted and
    compiled again within a run — run back to back and interleaved in one
    ``serial`` run — must each read only their own blocks: outputs equal to
    an ``execute_point`` loop's, no row walked task by task (an aliased
    block is a mismatch the walk would pass), and the mutants dying with
    ``execute_point``'s text on both sides of ``_BULK_BYTES``."""

    SEED = 0xA11A5

    @pytest.fixture(autouse=True)
    def few_plans(self, monkeypatch):
        # A table made under these holds about six rows of the random graph.
        monkeypatch.setattr(fastpath, "_MAX_EDGES", 6 * 8 * 8)
        monkeypatch.setattr(fastpath, "_BATCH", 3 * 8)

    def _graphs(self, nbytes):
        """The four graphs, and the runs that take them back to back and
        interleaved (a run's graph indexes are its positions)."""
        def graph(dependence, graph_index, nbytes, timesteps=12, **kw):
            return TaskGraph(
                timesteps=timesteps, max_width=8, dependence=dependence,
                output_bytes_per_task=nbytes, graph_index=graph_index,
                seed=self.SEED, **kw)

        # One table; two graph indexes and payloads (16 + 24 = 40 B is no
        # multiple of the 32-byte header).
        stencil = graph(DependenceType.STENCIL_1D, 0, nbytes)
        wider = graph(DependenceType.STENCIL_1D, 1, nbytes + 24)
        # The first one's seed, graph index and width; another pattern.
        fft = graph(DependenceType.FFT, 0, nbytes)
        # Every row its own plan, a few of them held at a time.
        random = graph(DependenceType.RANDOM_NEAREST, 2, nbytes, timesteps=40,
                       radix=7, fraction_connected=0.75)
        mixes = [[stencil, wider, random], [fft, wider, random]]
        alone = [stencil, fft, wider.with_(graph_index=0)]
        return [stencil, wider, fft, random], [[g] for g in alone] + mixes * 2

    def test_every_graph_reads_its_own_blocks(self, monkeypatch):
        graphs, runs = self._graphs(16)
        oracle = {id(g): _point_outputs(g) for run in runs for g in run}
        walked = []
        validate_inputs = validation.validate_inputs
        monkeypatch.setattr(validation, "validate_inputs",
                            lambda g, t, i, inputs: walked.append((g, t, i))
                            or validate_inputs(g, t, i, inputs))
        with make_executor("serial") as ex:
            for run in runs:
                compiles = fastpath.counters()[1]
                with capturing_outputs() as got:
                    ex.run(run, validate=True)
                want = {key: value for g in run
                        for key, value in oracle[id(g)].items()}
                assert got == {key: want[key] for key in got}
                assert set(got) == {
                    (g.graph_index, t, i) for g in run for t, i in g.points()
                    if g.consumer_count(t, i)}
                assert not walked
        # The last run did compile again what the random graph's table let go.
        assert fastpath.counters()[1] > compiles
        assert len(graphs[-1]._table._plans) < graphs[-1].timesteps // 4

    @pytest.mark.parametrize("nbytes", [16, _BULK_BYTES // 8],
                             ids=["bulk", "per-input"])
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutants_die_among_neighbours(self, mutant, nbytes):
        graphs, runs = self._graphs(nbytes)
        with make_executor("serial") as ex:
            for run in runs[:4]:
                ex.run(run, validate=True)
        t = 5
        for g in graphs:
            bad = _mutant_inputs(g, t, mutant)
            with pytest.raises(ValidationError) as want:
                _point_loop(g, t, 0, 8, list(bad))
            with pytest.raises(ValidationError) as got:
                g.execute_row(t, 0, 8, np.array(bad), scratch=None,
                              validate=True, plan=g.row_plan(t))
            assert str(got.value) == str(want.value)

    def test_a_neighbours_block_is_not_its_own(self):
        """Columns ``[4, 8)`` of a stencil row read as many inputs as ``[0,
        4)``: handed the inputs of ``[0, 4)``, just compared as a block of
        their own, they die with ``execute_point``'s text."""
        g = self._graphs(16)[0][0]
        t, plan = 5, g.row_plan(5)
        left = np.array(_inputs(g, t, 0, 4))
        assert len(left) == len(_inputs(g, t, 4, 8))
        g.execute_row(t, 0, 4, left, scratch=None, validate=True, plan=plan)
        with pytest.raises(ValidationError) as want:
            _point_loop(g, t, 4, 8, list(left))
        with pytest.raises(ValidationError) as got:
            g.execute_row(t, 4, 8, left, scratch=None, validate=True, plan=plan)
        assert str(got.value) == str(want.value)

    def test_a_stale_plan_misses_rather_than_passes(self):
        """A block owner that gathers row ``t`` with row ``t - 1``'s plan and
        hands it over: the plan's token was never stamped for ``t``, so the
        block is stamped from the table's own plan and the inputs fail."""
        g = self._graphs(16)[0][-1].with_(graph_index=0)
        make_executor("serial").run([g], validate=True)
        t = 5
        row = np.array([task_output(g, t - 1, i) for i in range(8)])
        stale = g.row_plan(t - 1)
        assert stale.cols != g.row_plan(t).cols
        with pytest.raises(ValidationError):
            g.execute_row(t, 0, 8, row.take(stale.index, 0), scratch=None,
                          validate=True, plan=stale)
        g.execute_row(t, 0, 8, row.take(g.row_plan(t).index, 0),
                      scratch=None, validate=True, plan=g.row_plan(t))

    def test_a_plan_whose_window_is_not_the_rows_stamps_nothing_for_it(self):
        """A plan claiming columns ``[0, 8)`` of a tree's row 1, whose window
        is ``[0, 2)``: the first row of the batch that holds those columns is
        row 3, and its expected block is not row 1's — served exactly the
        inputs row 3 reads, row 1 fails."""
        tree = TaskGraph(timesteps=8, max_width=8, seed=self.SEED,
                         dependence=DependenceType.TREE)
        wrong, later = tree.row_plan(4), tree.row_plan(3)
        assert (wrong.off, wrong.width, len(wrong.cols)) == (0, 8, 8)
        assert (later.off, later.width, len(later.cols)) == (0, 8, 8)
        served = np.array([task_output(tree, 2, j) for j in later.cols])
        with pytest.raises(ValidationError, match=r"task \(t=1, i=0\)"):
            tree.execute_row(1, 0, 8, served, scratch=None, validate=True,
                             plan=wrong)


class TestExecuteRowEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(st.data(), specs, payloads, st.booleans())
    def test_same_output_bytes_as_point_loop(self, data, s, nbytes, pooled):
        g = _graph_of(s, nbytes)
        t = data.draw(st.integers(0, s.height - 1), label="t")
        lo, hi = _block(data, g, t)
        inputs = _inputs(g, t, lo, hi)
        with HeapSlabPool() as pool:
            out_row = out_loop = None
            if pooled:
                out_row = pool.acquire_batch(nbytes, [1] * (hi - lo))
                out_loop = pool.acquire_batch(nbytes, [1] * (hi - lo))
            got = g.execute_row(t, lo, hi, inputs, scratch=None,
                                validate=True, out=out_row)
            want = _point_loop(g, t, lo, hi, inputs, out_loop)
            if pooled:
                assert got is out_row
            assert len(got) == hi - lo
            assert ([as_array(x).tobytes() for x in got]
                    == [as_array(x).tobytes() for x in want])
            for x in got:
                arr = as_array(x)
                assert arr.dtype == np.uint8 and arr.shape == (nbytes,)
                assert arr.flags.c_contiguous and arr.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(st.data(), specs, payloads)
    def test_accepts_pool_handles_as_inputs(self, data, s, nbytes):
        g = _graph_of(s, nbytes)
        t = data.draw(st.integers(0, s.height - 1), label="t")
        lo, hi = _block(data, g, t)
        with HeapSlabPool() as pool:
            refs = []
            for buf in _inputs(g, t, lo, hi):
                ref = pool.acquire(nbytes)
                as_array(ref)[:] = buf
                refs.append(ref)
            g.execute_row(t, lo, hi, refs, scratch=None, validate=True)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), specs, payloads,
           st.sampled_from(["short", "long", "size", "flip", "stale", "swap"]))
    def test_same_validation_error_as_point_loop(self, data, s, nbytes, fault):
        g = _graph_of(s, nbytes)
        t = data.draw(st.integers(0, s.height - 1), label="t")
        lo, hi = _block(data, g, t)
        inputs = _inputs(g, t, lo, hi)
        where = (data.draw(st.integers(0, len(inputs) - 1), label="where")
                 if inputs else 0)
        if fault == "short" and inputs:
            del inputs[where]
        elif fault == "long":
            inputs.append(task_output(g, 0, g.offset_at_timestep(0)))
        elif fault == "size" and inputs:
            inputs[where] = np.zeros(nbytes + 3, dtype=np.uint8)
        elif fault == "flip" and inputs and nbytes:
            inputs[where][data.draw(st.integers(0, nbytes - 1))] ^= 0x5A
        elif fault == "stale" and inputs and t >= 2:
            # The right producer column, one timestep too old.
            col = g.row_plan(t).columns(lo, hi)[where]
            if g.contains_point(t - 2, col):
                inputs[where] = task_output(g, t - 2, col)
        elif fault == "swap" and len(inputs) >= 2:
            inputs[0], inputs[-1] = inputs[-1], inputs[0]
        try:
            _point_loop(g, t, lo, hi, list(inputs))
            want = None
        except ValidationError as exc:
            want = str(exc)
        if want is None:
            g.execute_row(t, lo, hi, inputs, scratch=None, validate=True)
        else:
            with pytest.raises(ValidationError) as got:
                g.execute_row(t, lo, hi, inputs, scratch=None, validate=True)
            assert str(got.value) == want
        # Unvalidated, anything goes — as with execute_point.
        g.execute_row(t, lo, hi, inputs, scratch=None, validate=False)

    def test_faults_are_caught_on_both_sides_of_bulk_bytes(self):
        """The property above draws its faults; this pins one of each kind
        on a block compared with one memcmp and on one walked buffer by
        buffer, so neither arm can go vacuous."""
        for nbytes in (64, _BULK_BYTES):
            g = TaskGraph(timesteps=4, max_width=6, output_bytes_per_task=nbytes,
                          dependence=DependenceType.STENCIL_1D)
            good = _inputs(g, 2, 1, 5)
            assert (nbytes * len(good) <= _BULK_BYTES) == (nbytes == 64)
            g.execute_row(2, 1, 5, good, scratch=None, validate=True)
            cases = {
                r"\(t=2, i=4\).*expected 3 inputs.*got 2": good[:-1],
                r"\(t=2, i=4\).*expected 3 inputs.*got 4": good + good[:1],
                r"\(t=2, i=2\).*slot 1.*wrong size 7":
                    good[:4] + [np.zeros(7, dtype=np.uint8)] + good[5:],
                r"\(t=2, i=3\).*slot 0 should be the output of \(t=1, i=2\)"
                r".*is the output of graph 0 task \(t=0, i=2\)":
                    good[:6] + [task_output(g, 0, 2)] + good[7:],
            }
            flipped = [b.copy() for b in good]
            flipped[-1][nbytes // 2] ^= 0xFF
            cases[r"\(t=2, i=4\).*slot 2.*does not match|"
                  r"\(t=2, i=4\).*slot 2.*is the output"] = flipped
            for pattern, bad in cases.items():
                with pytest.raises(ValidationError, match=pattern):
                    g.execute_row(2, 1, 5, bad, scratch=None, validate=True)

    def test_block_outside_the_row_raises(self):
        g = TaskGraph(timesteps=4, max_width=8, dependence=DependenceType.TREE)
        for lo, hi in [(0, 3), (2, 4), (-1, 1), (1, 0)]:  # row 1 is [0, 2)
            with pytest.raises(IndexError):
                g.execute_row(1, lo, hi, [], scratch=None, validate=False)
        assert g.execute_row(1, 1, 1, [], scratch=None, validate=True) == []


def _verdict(call):
    """``None`` when ``call`` validates, else the ``ValidationError`` text."""
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


def _stacked(buffers, nbytes):
    """Equal-sized buffers as the ``(count, nbytes)`` block ``take`` makes."""
    return (np.array(buffers) if buffers
            else np.empty((0, nbytes), dtype=np.uint8))


def _block_mutants(rng, g, t, lo, hi):
    """``(name, inputs)`` for the seeded mutant list (ROADMAP 5(a)) of the
    inputs of columns ``[lo, hi)`` of row ``t``: every wrong thing a harness
    could gather for a block owner, each as the list of equal-sized buffers
    it would hand over.  The first entry is the right inputs."""
    plan, nbytes = g.row_plan(t), g.output_bytes_per_task
    a, b = plan.starts[lo - plan.off], plan.starts[hi - plan.off]
    flat, cols = plan.flat[a:b], plan.columns(lo, hi)
    prev = [task_output(g, t - 1, plan.prev_off + j)
            for j in range(len(plan.reads))]
    good = [prev[j] for j in flat]
    assert [x.tobytes() for x in good] == [
        task_output(g, t - 1, j).tobytes() for j in cols]
    yield "right", good
    if not good:
        return
    where = rng.randrange(len(good))
    if nbytes:
        # One byte at each position class: the very first, the boundary of
        # two header fields, the very last of the block.
        for name, k, at in [("flip first", 0, 0),
                            ("flip field boundary", where, min(8, nbytes - 1)),
                            ("flip last", len(good) - 1, nbytes - 1)]:
            bad = [x.copy() for x in good]
            bad[k][at] ^= 1 << rng.randrange(8)
            yield name, bad
    yield "row before last", [task_output(g, t - 2, j) for j in cols]
    other = rng.randrange(len(good))
    swapped = list(good)
    swapped[where], swapped[other] = swapped[other], swapped[where]
    yield "two inputs swapped", swapped
    yield "tail dropped", good[:-1]
    shifted = list(flat)
    shifted[where] = (shifted[where] + 1) % len(prev)
    bad = [prev[j] for j in shifted]
    # What ``take`` makes of a previous row kept as a block, one index off.
    assert _stacked(prev, nbytes).take(shifted, 0).tobytes() == b"".join(bad)
    yield "take index shifted", bad


class TestBlockVerdictIsThePerInputVerdict:
    """A gathered block and the list it replaces pass and fail together,
    with the text ``execute_point`` gives — for every dependence type, widths
    1–17, payloads on both sides of ``_BULK_BYTES``, a seeded row and
    sub-block of each, under the seeded mutant list: exactly the right
    bytes pass, and nothing else does."""

    @staticmethod
    def _payloads(width):
        return [1, 16, 48, 4096, _BULK_BYTES // width - 1,
                _BULK_BYTES // width + 1]

    @pytest.mark.parametrize("dtype", list(DependenceType), ids=lambda d: d.value)
    def test_under_the_mutant_list(self, dtype):
        rng = random.Random(f"block verdict {dtype.value}")
        killed = {}
        for width in range(1, 18):
            for nbytes in self._payloads(width):
                g = TaskGraph(
                    timesteps=5, max_width=width, dependence=dtype, radix=5,
                    fraction_connected=0.6, output_bytes_per_task=nbytes,
                    seed=rng.randrange(1 << 32))
                t = rng.randrange(1, g.timesteps)
                off, end = g.offset_at_timestep(t), g.width_at_timestep(t)
                end += off
                lo = rng.choice([off, rng.randrange(off, end)])
                hi = rng.choice([end, rng.randrange(lo + 1, end + 1)])
                right = None
                for name, bad in _block_mutants(rng, g, t, lo, hi):
                    want = _verdict(lambda: _point_loop(g, t, lo, hi, bad))
                    as_list = _verdict(lambda: g.execute_row(
                        t, lo, hi, bad, scratch=None, validate=True))
                    as_block = _verdict(lambda: g.execute_row(
                        t, lo, hi, _stacked(bad, nbytes), scratch=None,
                        validate=True))
                    assert as_block == as_list == want, (
                        name, width, nbytes, t, lo, hi)
                    data = [x.tobytes() for x in bad]
                    right = right or data  # the first is the right inputs
                    assert (want is None) == (data == right), (
                        name, width, nbytes, t, lo, hi)
                    side = nbytes * len(right) <= _BULK_BYTES
                    killed[name, side] = killed.get((name, side), 0) + (
                        want is not None)
        # No arm is vacuous: every mutant died on both sides of _BULK_BYTES
        # (trivial has no inputs to get wrong).
        if dtype is not DependenceType.TRIVIAL:
            for name in ("flip first", "flip field boundary", "flip last",
                         "row before last", "two inputs swapped",
                         "tail dropped", "take index shifted"):
                assert killed[name, True] and killed[name, False], name
        assert not killed["right", True] and not killed.get(("right", False))


class TestTheRowIsOneBuffer:
    """What ``execute_row`` returns and what ``serial`` keeps, by identity
    and count: no clock."""

    def test_a_small_block_is_one_array_and_a_large_one_a_list(self):
        for width, nbytes, block in [(8, 16, True), (2, 16, True),
                                     (8, _BULK_BYTES // 8, True),
                                     (8, _BULK_BYTES // 8 + 1, False),
                                     (8, 0, False)]:
            g = TaskGraph(timesteps=3, max_width=width,
                          output_bytes_per_task=nbytes,
                          dependence=DependenceType.STENCIL_1D)
            got = g.execute_row(1, 0, width, _inputs(g, 1, 0, width),
                                scratch=None, validate=True)
            if block:
                assert type(got) is np.ndarray and got.dtype == np.uint8
                assert got.shape == (width, nbytes) and got.flags.c_contiguous
                assert got.flags.writeable and got.base is None
            else:
                assert type(got) is list and len(got) == width
                assert all(x.base is None for x in got)
            assert [x.tobytes() for x in got] == [
                task_output(g, 1, i).tobytes() for i in range(width)]
        # One task is the list ``execute_point`` takes its output from.
        assert type(g.execute_row(0, 3, 4, [], scratch=None,
                                  validate=True)) is list

    @pytest.mark.parametrize("given", [2, 6])
    def test_destinations_must_number_the_tasks(self, given):
        """``out=`` used to be zipped against the columns: two destinations
        for four tasks wrote two tasks and said nothing, six left two
        buffers unwritten."""
        g = TaskGraph(timesteps=3, max_width=4)
        out = [np.zeros(16, dtype=np.uint8) for _ in range(given)]
        for call in (
            lambda: g.execute_row(1, 0, 4, [], scratch=None, validate=False,
                                  out=out),
            lambda: validation.task_outputs(g, 1, 0, 4, out),
        ):
            with pytest.raises(ValueError, match=(
                    rf"row 1 block \[0, 4\) of graph 0 has 4 tasks but {given} "
                    "output destinations")):
                call()
        assert not any(x.any() for x in out)  # nothing was written first

    def test_a_gathered_block_is_compared_where_it_lies(self, monkeypatch):
        """What ``validate_row`` hands the memcmp for a C-contiguous block
        *is* the block; for a list of arrays, the joined bytes.  Once the
        expected block is memoised, ``execute_row`` compares a C-contiguous
        block itself, calling neither."""
        handed, walked = [], []
        joined, validate_row = validation._joined, validation.validate_row

        def spy(inputs):
            handed.append(joined(inputs))
            return handed[-1]

        monkeypatch.setattr(validation, "_memo",
                            fastpath.Bounded(validation._MEMO_BYTES))
        monkeypatch.setattr(validation, "_joined", spy)
        monkeypatch.setattr(validation, "validate_row",
                            lambda *a: walked.append(a) or validate_row(*a))
        g = TaskGraph(timesteps=3, max_width=8,
                      dependence=DependenceType.STENCIL_1D)
        plan = g.row_plan(2)
        row = g.execute_row(1, 0, 8, _inputs(g, 1, 0, 8), scratch=None,
                            validate=False)
        block = row.take(plan.index, 0)
        del handed[:]
        g.execute_row(2, 0, 8, block, scratch=None, validate=True)
        assert len(handed) == len(walked) == 1 and handed[0] is block
        g.execute_row(2, 0, 8, block, scratch=None, validate=True)
        assert len(handed) == len(walked) == 1  # the memoised block's hit
        as_list = list(block)
        g.execute_row(2, 0, 8, as_list, scratch=None, validate=True)
        assert type(handed[1]) is bytes and handed[1] == block.tobytes()
        # A block that is not laid out end to end is joined like its rows.
        g.execute_row(2, 0, 8, np.asfortranarray(block), scratch=None,
                      validate=True)
        assert type(handed[2]) is bytes and handed[2] == block.tobytes()

    def test_serial_retires_rows_as_views_of_the_tile_buffer(self, monkeypatch):
        """A warm run of the ``fine_stencil`` shape: two tiles, no row run
        on its own.  What ``retire_rows`` receives for each row is a view of
        the buffer ``execute_tile`` returned — the row before the tile, then
        its rows end to end — each tile is handed the last row of the one
        before, and the index arrays are built once per tile, not once per
        run.  With no sink installed nothing is retired at all."""
        from repro.runtimes import _common

        g = TaskGraph(timesteps=250, max_width=8, output_bytes_per_task=16,
                      dependence=DependenceType.STENCIL_1D,
                      kernel=Kernel(kernel_type=KernelType.EMPTY))
        executor = make_executor("serial")
        executor.run([g], validate=True)
        returned, handed, retired = [], [], []
        execute_tile = TaskGraph.execute_tile

        def spy(self, tile, prev, **kw):
            handed.append((tile, tile.index, prev))
            returned.append(execute_tile(self, tile, prev, **kw))
            return returned[-1]

        monkeypatch.setattr(TaskGraph, "execute_tile", spy)
        monkeypatch.setattr(TaskGraph, "execute_row", None)  # never called
        monkeypatch.setattr(
            _common, "retire_rows",
            lambda g, t, lo, hi, outputs: retired.append((t, lo, hi, outputs)))
        executor.run([g], validate=True)
        assert len(returned) == 2 and not retired
        indexes = [index for _, index, _ in handed]
        del returned[:], handed[:]
        with _common.tracing(_common.TraceRecorder()):
            executor.run([g], validate=True)
        assert [index for _, index, _ in handed] == indexes
        assert [t for t, *_ in retired] == list(range(g.timesteps))
        want = {key: value.tobytes() for key, value in (
            ((t, i), task_output(g, t, i)) for t, i in g.points())}
        for (tile, index, prev), buf in zip(handed, returned):
            assert tile.index is index and type(buf) is np.ndarray
            assert buf.shape == (8 * (tile.t1 - tile.t0 + (tile.t0 > 0)), 16)
            assert buf.flags.c_contiguous and buf.base is None
            assert prev.base is (returned[0] if tile.t0 else None)
            for t, lo, hi, rows in retired[tile.t0:tile.t1]:
                assert (lo, hi) == (0, 8) and rows.base is buf
                assert [row.tobytes() for row in rows] == [
                    want[t, i] for i in range(8)]
        assert handed[0][2].shape == (0, 16)


class TestExecuteRowKernels:
    def _graph(self, **kw):
        return TaskGraph(
            timesteps=3, max_width=4, dependence=DependenceType.STENCIL_1D,
            kernel=Kernel(kernel_type=KernelType.MEMORY_BOUND, iterations=1,
                          span_bytes=8),
            scratch_bytes_per_task=64, **kw,
        )

    def test_scratch_shared_or_per_task(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            Kernel, "execute",
            lambda self, t=0, i=0, scratch=None, seed=0:
                seen.append((t, i, scratch)))
        g = self._graph()
        one = g.prepare_scratch()
        g.execute_row(0, 1, 4, [], scratch=one, validate=True)
        assert [(t, i) for t, i, _ in seen] == [(0, 1), (0, 2), (0, 3)]
        assert all(buf is one for _, _, buf in seen)
        del seen[:]
        each = [g.prepare_scratch() for _ in range(3)]
        g.execute_row(0, 1, 4, [], scratch=each, validate=True)
        assert [buf for _, _, buf in seen] == each

    def test_memory_kernel_without_scratch_raises(self):
        with pytest.raises(ValueError, match="scratch"):
            self._graph().execute_row(0, 0, 4, [], scratch=None, validate=True)

    def test_empty_kernel_is_never_called_untraced(self, monkeypatch):
        def boom(self, t=0, i=0, scratch=None, seed=0):
            raise AssertionError("empty kernel dispatched")

        monkeypatch.setattr(Kernel, "execute", boom)
        g = TaskGraph(timesteps=2, max_width=4,
                      kernel=Kernel(kernel_type=KernelType.EMPTY))
        assert len(g.execute_row(0, 0, 4, [], scratch=None, validate=True)) == 4

    def test_one_kernel_span_per_task_when_traced(self):
        from repro.trace import capture, check_trace

        for kind in (KernelType.EMPTY, KernelType.COMPUTE_BOUND):
            g = TaskGraph(timesteps=1, max_width=5,
                          kernel=Kernel(kernel_type=kind, iterations=1))
            with capture() as rec:
                g.execute_row(0, 0, 5, [], scratch=None, validate=True)
                trace = rec.collect()
            assert check_trace(trace, [g]) == []
            assert len(trace.kernel_spans()) == 5


class TestSerialRowBuffers:
    """``serial`` writes a row above ``_BULK_BYTES`` over the buffers of the
    row before last; what it publishes must not depend on that."""

    #: A fixed window, and one that widens and then holds (rows of a new
    #: width cannot be written over the row before last).
    SHAPES = [DependenceType.STENCIL_1D, DependenceType.TREE]

    @pytest.mark.parametrize("dependence", SHAPES)
    @pytest.mark.parametrize("nbytes", [16, 4096, 1 << 16, (1 << 16) + 5])
    def test_published_bytes_equal_the_point_oracle(self, dependence, nbytes):
        g = TaskGraph(timesteps=7, max_width=8, dependence=dependence,
                      output_bytes_per_task=nbytes, seed=3)
        with capturing_outputs() as sink:
            make_executor("serial").run([g], validate=True)
        rows = {}
        for t, i in g.points():
            inputs = [rows[t - 1, j] for j in g.dependency_columns(t, i)]
            rows[t, i] = g.execute_point(t, i, inputs)
        want = {(0, t, i): out.tobytes() for (t, i), out in rows.items()
                if g.consumer_count(t, i)}
        assert sink == want

    def test_a_large_row_is_written_over_the_row_before_last(self, monkeypatch):
        calls = []
        execute_row = TaskGraph.execute_row

        def spy(self, t, lo, hi, inputs, **kw):
            got = execute_row(self, t, lo, hi, inputs, **kw)
            calls.append((kw["out"], got))
            return got

        monkeypatch.setattr(TaskGraph, "execute_row", spy)
        for nbytes, recycled in [(_BULK_BYTES // 8, False),
                                 (_BULK_BYTES // 8 + 1, True)]:
            del calls[:]
            g = TaskGraph(timesteps=6, max_width=8, output_bytes_per_task=nbytes,
                          dependence=DependenceType.STENCIL_1D)
            make_executor("serial").run([g], validate=True)
            if not recycled:  # a row that is one block runs in tiles
                assert calls == []
                continue
            assert [out for out, _ in calls[:2]] == [None, None]
            for t in range(2, 6):
                out, got = calls[t]
                assert out is calls[t - 2][1] and got is out
