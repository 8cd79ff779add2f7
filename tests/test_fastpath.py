"""Tests of the compiled hot path (:mod:`repro.core.fastpath` and friends).

Compilation must be *invisible* except in speed: every dependence-table
query must agree bit-exactly with the :class:`~repro.core.dependence.
DependenceSpec` interval math it was compiled from (the oracle here), the
memoized validation patterns must equal the tiled-header bytes, bulk
validation must reject exactly what a per-input walk would, and the batched
wire framing must deliver exactly what per-message framing would.  Plus the
regressions: put-time consumer counts, kernel buffer reuse, and front-cache
eviction under concurrent lookups.
"""

import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.core import DependenceType, Kernel, KernelType, TaskGraph, fastpath
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
        # One steady-state structure compiled; every later timestep hits.
        assert compiles == 1
        assert hits >= 8 * 17


class TestEdgeHashMemo:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**20),
           st.integers(0, 2**20), st.integers(0, 2**20))
    def test_memoised_hash_is_the_four_plain_rounds(self, seed, t, i, j):
        """Hoisting the (seed, t, i) prefix and memoising the value changes
        how often an edge is hashed, never what it hashes to."""
        h = _splitmix64(seed)
        for x in (t, i, j):
            h = _splitmix64(h ^ x)
        assert _edge_hash_u01(seed, t, i, j) == h / 2.0**64
        assert _edge_hash_u01(seed, t, i, j) == h / 2.0**64  # now a hit


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
    """Graphs taller than ``_MAX_SETS`` timesteps evict from the
    timestep-keyed front caches; insert + evict must be atomic."""

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
        assert len(table._fwd_t) <= fastpath._MAX_SETS
        assert len(table._rev_t) <= fastpath._MAX_SETS

    def test_threads_run_taller_than_front_cache(self):
        g = TaskGraph(timesteps=1500, max_width=8,
                      dependence=DependenceType.STENCIL_1D,
                      output_bytes_per_task=16)
        ex = make_executor("threads", workers=2)
        for _ in range(3):
            assert ex.run([g], validate=True).total_tasks == 1500 * 8


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
