"""Tests of the compiled hot path (:mod:`repro.core.fastpath` and friends).

Compilation must be *invisible* except in speed: every dependence-table
query must agree bit-exactly with the :class:`~repro.core.dependence.
DependenceSpec` interval math it was compiled from (the oracle here), the
memoized validation patterns must equal the tiled-header bytes, bulk
validation must reject exactly what a per-input walk would, and the batched
wire framing must deliver exactly what per-message framing would.  The bulk
query tables are compiled from must equal the scalar spec edge for edge and
hash for hash.  Plus the regressions: put-time consumer counts, kernel
buffer reuse, and cache eviction under concurrent lookups.
"""

import pickle
import sys
import threading
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.core import DependenceType, Kernel, KernelType, TaskGraph, fastpath
from repro.core import dependence
from repro.core.dependence import (
    DependenceSpec,
    _edge_hash_u01,
    _splitmix64,
    count_points,
)
from repro.core.fastpath import DependenceTable, table_for
from repro.core.kernels import execute_kernel_compute, execute_kernel_compute2
from repro.core.validation import (
    _BULK_BYTES,
    ValidationError,
    _expected,
    _output_bytes,
    expected_inputs,
    task_output,
    validate_inputs,
    write_task_output,
)
from repro.runtimes import make_executor


specs = st.builds(
    DependenceSpec,
    st.sampled_from(list(DependenceType)),
    st.integers(min_value=1, max_value=64),  # width (issue: 1-64)
    st.integers(min_value=1, max_value=10),  # height
    radix=st.integers(min_value=0, max_value=8),
    period=st.sampled_from([-1, 1, 2, 3, 4]),
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)


def _all_points(s):
    for t in range(s.height):
        off = s.offset_at_timestep(t)
        for i in range(off, off + s.width_at_timestep(t)):
            yield t, i


def _graph_of(s, **kwargs):
    return TaskGraph(
        timesteps=s.height,
        max_width=s.width,
        dependence=s.dtype,
        radix=s.radix,
        period=s.period,
        fraction_connected=s.fraction,
        seed=s.seed,
        **kwargs,
    )


class TestDependenceTableEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(specs)
    def test_intervals_match_spec(self, s):
        """Forward and reverse intervals agree with the spec at every point
        of every pattern (including random_nearest edge hashing, where the
        structure differs per timestep)."""
        table = DependenceTable(s)
        for t, i in _all_points(s):
            assert table.dependencies(t, i) == s.dependencies(t, i)
            assert table.reverse_dependencies(t, i) == s.reverse_dependencies(t, i)

    @settings(max_examples=50, deadline=None)
    @given(specs)
    def test_columns_and_counts_match_spec(self, s):
        table = DependenceTable(s)
        for t, i in _all_points(s):
            assert table.dependency_columns(t, i) == tuple(
                s.dependency_points(t, i)
            )
            assert table.reverse_dependency_columns(t, i) == tuple(
                s.reverse_dependency_points(t, i)
            )
            assert table.num_dependencies(t, i) == s.num_dependencies(t, i)
            assert table.consumer_count(t, i) == count_points(
                s.reverse_dependencies(t, i)
            )

    @settings(max_examples=30, deadline=None)
    @given(specs)
    def test_taskgraph_delegation_matches_spec(self, s):
        """Every TaskGraph dependence query (all served from the table)
        gives the answer the spec's interval math gives."""
        g = _graph_of(s)
        o = g.spec
        for t, i in _all_points(o):
            assert g.dependencies(t, i) == o.dependencies(t, i)
            assert g.reverse_dependencies(t, i) == o.reverse_dependencies(t, i)
            assert g.num_dependencies(t, i) == o.num_dependencies(t, i)
            deps = list(o.dependency_points(t, i))
            rdeps = list(o.reverse_dependency_points(t, i))
            assert list(g.dependency_points(t, i)) == deps
            assert g.dependency_columns(t, i) == tuple(deps)
            assert list(g.reverse_dependency_points(t, i)) == rdeps
            assert g.reverse_dependency_columns(t, i) == tuple(rdeps)
        for t in range(o.height):
            off = o.offset_at_timestep(t)
            assert g.dependency_count_row(t) == (off, [
                o.num_dependencies(t, i)
                for i in range(off, off + o.width_at_timestep(t))
            ])

    def test_out_of_range_point_raises_like_spec(self):
        s = DependenceSpec(DependenceType.TREE, 8, 4)
        table = DependenceTable(s)
        # Timestep 1 of a tree graph has width 2: column 5 exists in the
        # iteration space but not at that timestep.
        with pytest.raises(IndexError):
            table.dependencies(1, 5)
        with pytest.raises(IndexError):
            table.reverse_dependencies(1, 5)
        with pytest.raises(IndexError):
            table.dependencies(99, 0)

    def test_tables_shared_by_value(self):
        a = DependenceSpec(DependenceType.STENCIL_1D, 16, 8)
        b = DependenceSpec(DependenceType.STENCIL_1D, 16, 8)
        assert table_for(a) is table_for(b)
        c = DependenceSpec(DependenceType.STENCIL_1D, 16, 9)
        assert table_for(a) is not table_for(c)

    def test_table_pickles_to_shared_instance(self):
        g = TaskGraph(timesteps=6, max_width=8,
                      dependence=DependenceType.FFT)
        g.dependencies(3, 2)  # materialize the cached table
        clone = pickle.loads(pickle.dumps(g))
        assert clone.dependencies(3, 2) == g.dependencies(3, 2)
        # The reconstructed table is the receiving process's shared one.
        assert clone._table is table_for(g.spec)

    def test_hit_and_compile_counters_advance(self):
        s = DependenceSpec(DependenceType.STENCIL_1D, 8, 20, period=1)
        table = DependenceTable(s)
        fastpath.reset_counters()
        for t, i in _all_points(s):
            table.dependencies(t, i)
        hits, compiles = fastpath.counters()
        # One steady-state set compiled — its forward structure and, from
        # the same edges, the reverse one; every later timestep hits.
        assert compiles == 2
        assert hits >= 8 * 17


class TestEdgeHash:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**20),
           st.integers(0, 2**20), st.integers(0, 2**20))
    def test_scalar_hash_is_the_four_plain_rounds(self, seed, t, i, j):
        """Hoisting the (seed, t, i) prefix changes how the rounds are
        grouped, never what an edge hashes to."""
        h = _splitmix64(seed)
        for x in (t, i, j):
            h = _splitmix64(h ^ x)
        assert _edge_hash_u01(seed, t, i, j) == h / 2.0**64


#: Like ``specs``, with seeds on both sides of what 64 bits hold (the scalar
#: hash masks them) and graphs tall enough for a period to come round.
bulk_specs = st.builds(
    DependenceSpec,
    st.sampled_from(list(DependenceType)),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=10),
    radix=st.integers(min_value=0, max_value=30),
    period=st.sampled_from([-1, 1, 2, 3, 5]),
    fraction=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
    seed=st.integers(min_value=-2**63, max_value=2**65),
)

NAMED_SPECS = {
    "negative seed": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 6, radix=5, fraction=0.5, seed=-7),
    "seed >= 2**63": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 6, radix=5, fraction=0.5,
        seed=2**63 + 11),
    "t >= period": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 11, radix=5, period=3, fraction=0.5),
    "radix 0": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 4, radix=0, fraction=0.5),
    "radix > width": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 5, 4, radix=40, fraction=0.5),
    "fraction 0": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 4, radix=5, fraction=0.0),
    "fraction 1": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 4, radix=5, fraction=1.0),
    "width 1": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 1, 4, radix=3, fraction=0.5),
    "height 1": DependenceSpec(
        DependenceType.RANDOM_NEAREST, 8, 1, radix=3, fraction=0.5),
    "tree expanding": DependenceSpec(DependenceType.TREE, 16, 8),
}


def _check_bulk(s, t0, t1):
    """``dependency_columns_batch(t0, t1)`` against the scalar spec: the CSR
    cut back into rows, every one forward, and transposed against the
    reverse relation."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # uint64 wrap-around must be silent
        cols, counts = s.dependency_columns_batch(t0, t1)
    assert cols.dtype == counts.dtype == np.int64
    assert cols.ndim == counts.ndim == 1 and len(cols) == counts.sum()
    deps = iter(np.split(cols, np.cumsum(counts)[:-1]) if len(counts) else ())
    for t in range(t0, min(t1, s.height)):
        off, width = s.offset_at_timestep(t), s.width_at_timestep(t)
        row = [tuple(next(deps).tolist()) for _ in range(width)]
        assert row == [tuple(s.dependency_points(t, i))
                       for i in range(off, off + width)]
        if t == 0:
            continue
        readers = {}
        for i, cols in enumerate(row, off):
            for j in cols:
                readers.setdefault(j, []).append(i)
        before = s.offset_at_timestep(t - 1)
        for j in range(before, before + s.width_at_timestep(t - 1)):
            assert tuple(readers.get(j, ())) == tuple(
                s.reverse_dependency_points(t - 1, j))
    assert next(deps, None) is None  # every task accounted for, none over


class TestBulkQuery:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), bulk_specs)
    def test_batch_equals_scalar_spec_both_ways(self, data, s):
        t0 = data.draw(st.integers(0, s.height - 1), label="t0")
        t1 = data.draw(st.integers(t0, s.height + 3), label="t1")
        _check_bulk(s, t0, t1)

    @pytest.mark.parametrize("name", NAMED_SPECS)
    def test_named_cases(self, name):
        s = NAMED_SPECS[name]
        _check_bulk(s, 0, s.height)
        # A batch that begins mid-graph and straddles its end.
        _check_bulk(s, s.height // 2, s.height + 5)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), bulk_specs)
    def test_array_hashes_are_the_scalar_chain(self, data, s):
        """The raw 64-bit hashes, not only the thresholded edges: a rounding
        difference between the two paths could hide behind ``< fraction``."""
        t0 = data.draw(st.integers(1, s.height), label="t0")
        t1 = data.draw(st.integers(t0, s.height), label="t1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hashes, cols = s._edge_hashes(t0, t1)
        assert hashes.dtype == np.uint64
        assert hashes.shape == (t1 - t0, s.width, cols.shape[1])
        for i in range(s.width):
            window = [j for j in cols[i].tolist() if 0 <= j < s.width]
            assert window == list(s._nearest_window(i))
        for t in range(t0, t1):
            teff = t % s.period if s.period > 0 else t
            for i in range(s.width):
                for r, j in enumerate(cols[i].tolist()):
                    if 0 <= j < s.width:
                        h = _splitmix64(s.seed)
                        for x in (teff, i, j):
                            h = _splitmix64(h ^ x)
                        assert int(hashes[t - t0, i, r]) == h
                        assert (h / 2.0**64 < s.fraction) == s._random_edge(
                            t, i, j)

    def test_random_edges_are_hashed_per_batch_not_per_edge(self, monkeypatch):
        """Compiling ``dense_random``'s shape calls ``_splitmix64`` four times
        a batch (once on the seed, three times on arrays)."""
        calls = []
        plain = dependence._splitmix64
        monkeypatch.setattr(dependence, "_splitmix64",
                            lambda x: calls.append(1) or plain(x))
        s = DependenceSpec(DependenceType.RANDOM_NEAREST, 8, 250, radix=7,
                           fraction=0.75, seed=0xD5E)
        table = DependenceTable(s)
        edges = sum(len(cols) for t in range(s.height)
                    for cols in table.row_plan(t).deps)
        batches = -(-s.height // (fastpath._BATCH // s.width))
        assert len(calls) == 4 * batches
        assert edges > 100 * len(calls)

    def test_wide_random_graph_compiles_far_below_width_squared(self):
        s = DependenceSpec(DependenceType.RANDOM_NEAREST, 4096, 64, radix=5,
                           fraction=0.5)
        table = DependenceTable(s)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            assert table.dependency_columns(1, 7) == tuple(
                s.dependency_points(1, 7))
            assert table.consumer_count(0, 7) == count_points(
                s.reverse_dependencies(0, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < s.width**2 // 4, f"compile held {peak - base} B"


class TestValidationEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=300),
        st.sampled_from([1, 5, 16, 31, 32, 33, 64, 100, 4096]),
    )
    def test_memoized_pattern_equals_cached_bytes(self, seed, gi, t, i, nbytes):
        """The memoised pattern — one packed header tiled for a single
        column, the stamped template for a block — is byte-identical to the
        tiled-header bytes for any (seed, graph, task, size)."""
        want = _output_bytes(seed, gi, t, i, nbytes)
        assert bytes(_expected(seed, gi, t, (i,), nbytes)) == want
        assert (bytes(_expected(seed, gi, t, (i, i + 1), nbytes))
                == want + _output_bytes(seed, gi, t, i + 1, nbytes))

    def test_task_output_identical_in_both_modes(self):
        """The allocating (``task_output``) and in-place
        (``write_task_output``) modes produce the same bytes: the tiled
        header of ``_output_bytes``."""
        g = TaskGraph(timesteps=5, max_width=4,
                      dependence=DependenceType.STENCIL_1D,
                      output_bytes_per_task=40, seed=99)
        for t in range(5):
            for i in range(4):
                want = _output_bytes(g.seed, g.graph_index, t, i, 40)
                assert task_output(g, t, i).tobytes() == want
                dest = np.zeros(40, dtype=np.uint8)
                write_task_output(g, t, i, dest)
                assert dest.tobytes() == want

    def test_task_output_returns_fresh_mutable_array(self):
        g = TaskGraph(timesteps=3, max_width=2,
                      dependence=DependenceType.TRIVIAL,
                      output_bytes_per_task=16)
        a = task_output(g, 1, 0)
        a[:] = 0  # must not poison the cache
        assert task_output(g, 1, 0).tobytes() != a.tobytes()

    # (2, 3) of a width-6 stencil has three inputs: 64 B each stays under
    # _BULK_BYTES (one memcmp), 64 KiB each goes over it (per-input walk).
    SIZES = [64, _BULK_BYTES]

    def _graph(self, nbytes):
        return TaskGraph(timesteps=4, max_width=6,
                         dependence=DependenceType.STENCIL_1D,
                         output_bytes_per_task=nbytes)

    @pytest.mark.parametrize("bulk", [True, False])
    def test_validate_inputs_accepts_and_pinpoints(self, bulk):
        nbytes = self.SIZES[0 if bulk else 1]
        g = self._graph(nbytes)
        inputs = expected_inputs(g, 2, 3)
        assert (nbytes * len(inputs) <= _BULK_BYTES) == bulk
        validate_inputs(g, 2, 3, inputs)
        inputs[1][nbytes // 2] ^= 0xFF  # one flipped byte
        with pytest.raises(ValidationError, match="slot 1"):
            validate_inputs(g, 2, 3, inputs)

    def test_validate_inputs_wrong_count_and_size(self):
        for nbytes in self.SIZES:
            g = self._graph(nbytes)
            with pytest.raises(ValidationError, match="expected 3 inputs"):
                validate_inputs(g, 2, 3, expected_inputs(g, 2, 3)[:-1])
            bad = expected_inputs(g, 2, 3)
            bad[2] = np.zeros(7, dtype=np.uint8)
            with pytest.raises(ValidationError, match="slot 2.*wrong size 7"):
                validate_inputs(g, 2, 3, bad)

    def test_stale_timestep_input_rejected_naming_slot(self):
        """A stale buffer (right producer column, wrong timestep) is
        rejected, and the error names the slot and what the buffer is."""
        for nbytes in self.SIZES:
            g = self._graph(nbytes)
            stale = expected_inputs(g, 1, 1)  # outputs of timestep 0
            with pytest.raises(ValidationError) as exc:
                validate_inputs(g, 2, 1, stale)
            msg = str(exc.value)
            assert "slot 0 should be the output of (t=1, i=0)" in msg
            assert "is the output of graph 0 task (t=0, i=0)" in msg


class TestConsumerCountRegression:
    @settings(max_examples=40, deadline=None)
    @given(specs)
    def test_put_time_count_matches_graph_level(self, s):
        """The count used by OutputStore.put / slab acquisition (via
        ``consumer_count``) equals the spec's reverse-dependence count."""
        g = _graph_of(s)
        for t, i in _all_points(g.spec):
            truth = count_points(g.spec.reverse_dependencies(t, i))
            assert g.consumer_count(t, i) == truth


class TestFrontCacheEviction:
    """Plans are held per distinct row, not per timestep: a tall periodic
    graph holds a handful and never evicts (the never-repeating one that
    does is hammered in ``test_row_plan``)."""

    def test_concurrent_lookups_over_tall_spec(self):
        s = DependenceSpec(DependenceType.STENCIL_1D, 8, 3000)
        table = DependenceTable(s)
        errors = []

        def hammer(start):
            try:
                for _ in range(2):
                    for t in range(start, s.height - 1):
                        assert table.dependency_columns(t, 3) == (2, 3, 4)
                        assert table.consumer_count(t, 3) == 3
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(1 + k,))
                       for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert sorted(table._plans) == [1]  # the steady row, for every query

    def test_second_sweep_of_a_tall_stencil_only_hits(self):
        s = DependenceSpec(DependenceType.STENCIL_1D, 8, 3000)
        table = DependenceTable(s)
        plans = [table.row_plan(t) for t in range(s.height)]
        fastpath.reset_counters()
        for t in range(s.height):
            assert table.row_plan(t) is plans[t]
        assert fastpath.counters() == (s.height, 0)
        # The first, steady and last rows.
        assert sorted(table._plans) == [0, 1, s.height - 1]

    def test_threads_run_taller_than_front_cache(self):
        g = TaskGraph(timesteps=1500, max_width=8,
                      dependence=DependenceType.STENCIL_1D,
                      output_bytes_per_task=16)
        ex = make_executor("threads", workers=2)
        for _ in range(3):
            assert ex.run([g], validate=True).total_tasks == 1500 * 8


def _tiles_of(g):
    """The tiles ``serial`` runs ``g`` in, as the table holds them."""
    tiles = [g.tile_plan(0)]
    while tiles[-1].t1 < g.timesteps:
        tiles.append(g.tile_plan(tiles[-1].t1))
    return tiles


class TestTallRandomGraphsByCount:
    """What a graph taller or wider than the plans' budget costs, counted —
    compiles, stamps and the cache's own accounting — not clocked."""

    def test_second_run_of_2000_random_rows_compiles_and_stamps_nothing(
            self, monkeypatch):
        """The ``dense_random`` shape eight times as tall: every row is its
        own dependence set, and all of them — plans and expected blocks —
        are still held when the run comes round again."""
        from repro.core import validation

        g = TaskGraph(timesteps=2000, max_width=8,
                      dependence=DependenceType.RANDOM_NEAREST, radix=7,
                      fraction_connected=0.75, output_bytes_per_task=16,
                      seed=0xD5E)
        stamps = []
        stamp = validation._stamp
        monkeypatch.setattr(validation, "_stamp",
                            lambda *a, **k: stamps.append(a) or stamp(*a, **k))
        with make_executor("serial") as ex:
            fastpath.reset_counters()
            ex.run([g], validate=True)
            tiles = len(_tiles_of(g))
            # Two structures a row with inputs, and each tile built once.
            assert fastpath.counters()[1] == 2 * (g.timesteps - 1) + tiles
            assert stamps
            del stamps[:]
            fastpath.reset_counters()
            ex.run([g], validate=True)
        # One lookup a tile, a hit.
        assert fastpath.counters() == (tiles, 0) and 10 < tiles < 40
        assert not stamps

    @pytest.mark.parametrize("shape", ["fine_stencil", "dense_random"])
    def test_a_warm_run_is_one_lookup_one_compare_one_copy_a_tile(
            self, shape, monkeypatch):
        """Both 16-byte benchmark shapes at 2,000 steps: the second run
        finds every tile and both blocks of each where the first left them
        — filed under the tiles' tokens, so a tile the table kept is a hit
        — and runs each on ``execute_tile``'s own take, compare and copy:
        no stamp, no compile, no row validated or written on its own."""
        from repro.core import validation

        g = TaskGraph(timesteps=2000, max_width=8, output_bytes_per_task=16,
                      seed=0x3A12, **(
                          dict(dependence=DependenceType.STENCIL_1D)
                          if shape == "fine_stencil" else
                          dict(dependence=DependenceType.RANDOM_NEAREST,
                               radix=7, fraction_connected=0.75)))
        called = []

        def spy(name):  # records (name, second argument: a row or a tile)
            real = getattr(validation, name)
            return lambda *a, **k: called.append((name, a[1])) or real(*a, **k)

        for name in ("_stamp", "validate_row", "task_outputs",
                     "validate_tile", "tile_block"):
            monkeypatch.setattr(validation, name, spy(name))
        ran = []
        execute_tile = TaskGraph.execute_tile
        monkeypatch.setattr(TaskGraph, "execute_tile", lambda self, tile, *a, **k:
                            ran.append(tile) or execute_tile(self, tile, *a, **k))
        with make_executor("serial") as ex:
            ex.run([g], validate=True)
            assert called
            del called[:], ran[:]
            hits, compiles = fastpath.counters()
            ex.run([g], validate=True)
        assert fastpath.counters() == (hits + len(ran), compiles)
        assert ran == _tiles_of(g) and len(ran) <= 2000 // 90
        assert called == []

    def test_a_recycling_graph_still_runs_on_two_rows_of_buffers(
            self, monkeypatch):
        """A row above ``_BULK_BYTES`` is no tile: it runs a row at a time
        on ``execute_row``, written over the buffers of the row before
        last, so that a run makes two rows of output buffers."""
        from repro.core import validation

        g = TaskGraph(timesteps=7, max_width=8, output_bytes_per_task=(
            _BULK_BYTES // 8 + 32), dependence=DependenceType.STENCIL_1D)
        assert validation.recycles_rows(g) and not validation.tiles(g)
        rows = []
        execute_row = TaskGraph.execute_row
        monkeypatch.setattr(TaskGraph, "execute_row", lambda *a, **k:
                            rows.append(execute_row(*a, **k)) or rows[-1])
        monkeypatch.setattr(TaskGraph, "execute_tile", None)  # never called
        with make_executor("serial") as ex:
            ex.run([g], validate=True)
            ex.run([g], validate=True)
        assert len(rows) == 2 * g.timesteps
        for run in (rows[:g.timesteps], rows[g.timesteps:]):
            assert len({id(buf) for row in run for buf in row}) == 2 * g.max_width

    def test_plans_are_budgeted_in_edges_not_entries(self):
        """64 x 2,048 random: twice what the budget holds.  The table keeps
        the newest rows, its count of what they hold is exact, and a row
        that went comes back equal."""
        s = DependenceSpec(DependenceType.RANDOM_NEAREST, 64, 2048, radix=5,
                           fraction=0.5, seed=11)
        table = DependenceTable(s)
        first = table.row_plan(1)
        for t in range(s.height):
            table.row_plan(t)
        plans = table._plans
        cost = [len(p.flat) + p.width for p in plans.values()]
        assert plans.held == sum(cost) <= plans.budget == fastpath._MAX_EDGES
        assert plans.held > plans.budget - max(cost)  # full, not half empty
        assert s.height // 4 < len(plans) < s.height
        assert list(plans) == list(range(s.height - len(plans), s.height))
        again = table.row_plan(1)
        assert again is not first and astuple(again) == astuple(first)
        # An 8-wide graph of any radix keeps the 1,024 rows it always kept.
        assert fastpath._MAX_EDGES >= 1024 * (8 + 8 * 8)


class TestKernelBufferReuse:
    def test_compute_kernels_do_not_allocate_per_call(self):
        """After warmup, the compute kernels run out of per-thread reusable
        buffers — no per-task ndarray allocation (satellite fix)."""
        execute_kernel_compute(4)
        execute_kernel_compute2(4)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            for _ in range(200):
                execute_kernel_compute(4)
                execute_kernel_compute2(4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 400 calls x 512-byte vectors would exceed 200 KB if each call
        # allocated; reused buffers keep the loop's footprint trivial.
        assert peak - base < 16_384, f"kernel loop allocated {peak - base} B"

    def test_compute_kernel_values_unchanged(self):
        """Buffer reuse must not change the arithmetic: a = a*a + a from
        1.2345, elementwise, same as the original allocation-per-call
        form."""
        a = np.full(64, 1.2345)
        for _ in range(3):
            a = a * a + a
        assert np.array_equal(execute_kernel_compute(3), a)


class TestWireBatchFraming:
    def _payload(self, n, fill):
        return np.full(n, fill, dtype=np.uint8)

    def test_batch_roundtrip(self):
        items = [
            ((0, 3, 1), self._payload(16, 7)),
            ((0, 3, 2), self._payload(0, 0)),  # empty payload survives
            ((1, 4, 0), self._payload(33, 9)),
        ]
        header, views = wire.encode_data_batch(5, items)
        frame = bytearray(header)
        for v in views:
            frame += v
        kind, decoded = wire.decode(memoryview(bytes(frame)))
        assert kind == wire.MSG_DATA_BATCH
        assert [tag for tag, _ in decoded] == [
            (5, 0, 3, 1), (5, 0, 3, 2), (5, 1, 4, 0)
        ]
        for (_, payload), (_, original) in zip(decoded, items):
            assert np.array_equal(payload, original)

    def test_truncated_batch_rejected(self):
        header, views = wire.encode_data_batch(
            1, [((0, 0, 0), self._payload(8, 1))]
        )
        frame = bytes(header) + bytes(views[0])
        with pytest.raises(wire.WireError):
            wire.decode(memoryview(frame[:-1]))
        with pytest.raises(wire.WireError):
            wire.decode(memoryview(frame + b"x"))

    def test_counters_track_batched_payloads(self):
        c = wire.WireCounters()
        c.count_sent(100, 0.0, batched=3)
        c.count_received(100, 0.0, batched=3)
        c.count_sent(40, 0.0)  # plain DATA frame
        snap = c.snapshot()
        assert snap.messages_sent == 2
        assert snap.batched_payloads_sent == 3
        assert snap.batched_payloads_received == 3
        merged = snap.merged(snap)
        assert merged.batched_payloads_sent == 6


class TestStatsSurface:
    def test_fastpath_counters_fold_into_data_plane(self):
        """An instrumented executor's report gains the fastpath line; the
        serial executor stays 'not instrumented' (see test_cli)."""
        fastpath.reset_counters()
        # A seed no other test uses: the table cache is keyed by spec
        # value, so a shared shape could be compiled before the reset
        # above and leave this run with zero compiles.
        g = TaskGraph(timesteps=10, max_width=4,
                      dependence=DependenceType.STENCIL_1D,
                      output_bytes_per_task=16, seed=0xFA57)
        stats = make_executor("threads", workers=2).run([g]).data_plane
        assert stats is not None
        assert stats.fastpath_hits > 0
        assert stats.fastpath_compiles >= 1
        assert any("Fastpath" in line for line in stats.report_lines())
