"""Unit tests for the fully-validating output/input scheme (paper §2)."""

import copy
import sys
import threading

import numpy as np
import pytest

from repro.core import DependenceType, TaskGraph, ValidationError
from repro.core import fastpath, validation
from repro.core.bufpool import (
    HeapSlabPool,
    SharedMemorySlabPool,
    StaleHandleError,
    as_array,
)
from repro.core.validation import (
    _BULK_BYTES,
    HEADER_BYTES,
    expected_inputs,
    task_output,
    validate_inputs,
    validate_row,
)
from repro.runtimes import make_executor


def graph(**kw):
    base = dict(timesteps=5, max_width=6, dependence=DependenceType.STENCIL_1D)
    base.update(kw)
    return TaskGraph(**base)


class TestTaskOutput:
    def test_length_matches_config(self):
        for n in (0, 1, 8, 16, 32, 33, 100):
            g = graph(output_bytes_per_task=n)
            assert task_output(g, 2, 3).nbytes == n

    def test_outputs_unique_across_points(self):
        """Paper: 'The output of every task in Task Bench is unique.'"""
        g = graph(output_bytes_per_task=32)
        seen = set()
        for t, i in g.points():
            seen.add(task_output(g, t, i).tobytes())
        assert len(seen) == g.total_tasks()

    def test_outputs_unique_across_graphs(self):
        g0 = graph(graph_index=0, output_bytes_per_task=32)
        g1 = graph(graph_index=1, output_bytes_per_task=32)
        assert task_output(g0, 1, 1).tobytes() != task_output(g1, 1, 1).tobytes()

    def test_outputs_unique_across_seeds(self):
        a = graph(seed=1, output_bytes_per_task=32)
        b = graph(seed=2, output_bytes_per_task=32)
        assert task_output(a, 1, 1).tobytes() != task_output(b, 1, 1).tobytes()

    def test_deterministic(self):
        g = graph()
        assert np.array_equal(task_output(g, 3, 2), task_output(g, 3, 2))

    def test_header_encodes_identity(self):
        g = graph(output_bytes_per_task=64, graph_index=2, seed=77)
        t, i, gidx, seed = task_output(g, 3, 4)[:HEADER_BYTES].view("<i8")
        assert (t, i, gidx, seed) == (3, 4, 2, 77)

    def test_small_outputs_unique_within_graph(self):
        """(t, i) lead the header so 16-byte outputs stay unique."""
        g = graph(output_bytes_per_task=16)
        seen = {task_output(g, t, i).tobytes() for t, i in g.points()}
        assert len(seen) == g.total_tasks()

    def test_tiled_beyond_header(self):
        g = graph(output_bytes_per_task=HEADER_BYTES * 2)
        out = task_output(g, 1, 1)
        assert np.array_equal(out[:HEADER_BYTES], out[HEADER_BYTES:])

    def test_returns_fresh_copy(self):
        g = graph()
        a = task_output(g, 1, 1)
        a[0] ^= 0xFF
        assert not np.array_equal(a, task_output(g, 1, 1))


class TestValidateInputs:
    def test_accepts_expected(self):
        g = graph()
        for t, i in g.points():
            validate_inputs(g, t, i, expected_inputs(g, t, i))

    def test_rejects_missing_input(self):
        g = graph()
        inputs = expected_inputs(g, 2, 3)
        with pytest.raises(ValidationError, match="expected 3 inputs"):
            validate_inputs(g, 2, 3, inputs[:-1])

    def test_rejects_extra_input(self):
        g = graph()
        inputs = expected_inputs(g, 2, 3)
        with pytest.raises(ValidationError):
            validate_inputs(g, 2, 3, inputs + [inputs[0]])

    def test_rejects_wrong_timestep_input(self):
        g = graph(output_bytes_per_task=64)
        stale = [task_output(g, 0, j) for j in g.dependency_points(2, 3)]
        with pytest.raises(ValidationError, match=r"t=0"):
            validate_inputs(g, 2, 3, stale)

    def test_rejects_wrong_column_input(self):
        g = graph(output_bytes_per_task=64)
        inputs = expected_inputs(g, 2, 3)
        inputs[0] = task_output(g, 1, 5)
        with pytest.raises(ValidationError, match="i=5"):
            validate_inputs(g, 2, 3, inputs)

    def test_rejects_wrong_size(self):
        g = graph()
        inputs = expected_inputs(g, 2, 3)
        inputs[0] = inputs[0][:-1]
        with pytest.raises(ValidationError, match="wrong size"):
            validate_inputs(g, 2, 3, inputs)

    def test_rejects_corruption_anywhere(self):
        """Tiled pattern means corruption beyond the header is detected."""
        g = graph(output_bytes_per_task=128)
        inputs = expected_inputs(g, 2, 3)
        inputs[2] = inputs[2].copy()
        inputs[2][100] ^= 0x01
        with pytest.raises(ValidationError, match="slot 2"):
            validate_inputs(g, 2, 3, inputs)

    def test_rejects_cross_graph_input(self):
        g0 = graph(graph_index=0, output_bytes_per_task=64)
        g1 = graph(graph_index=1, output_bytes_per_task=64)
        inputs = expected_inputs(g0, 2, 3)
        inputs[0] = task_output(g1, 1, 2)
        with pytest.raises(ValidationError, match="graph 1"):
            validate_inputs(g0, 2, 3, inputs)

    def test_first_timestep_expects_nothing(self):
        g = graph()
        validate_inputs(g, 0, 0, [])
        with pytest.raises(ValidationError):
            validate_inputs(g, 0, 0, [task_output(g, 0, 0)])

    def test_zero_byte_outputs_validate_by_count(self):
        g = graph(output_bytes_per_task=0)
        validate_inputs(g, 2, 3, expected_inputs(g, 2, 3))

    def test_accepts_flat_bytes_like(self):
        g = graph()
        inputs = [np.asarray(b) for b in expected_inputs(g, 2, 3)]
        validate_inputs(g, 2, 3, inputs)

    def test_expected_inputs_order_matches_dependency_points(self):
        g = graph(dependence=DependenceType.SPREAD, radix=3)
        for t, i in g.points():
            if t == 0:
                continue
            cols = list(g.dependency_points(t, i))
            inputs = expected_inputs(g, t, i)
            assert len(cols) == len(inputs)
            for col, buf in zip(cols, inputs):
                assert np.array_equal(buf, task_output(g, t - 1, col))

    def test_validation_error_is_assertion_error(self):
        """Paper: 'an assertion is thrown if validation fails'."""
        assert issubclass(ValidationError, AssertionError)


# Task (3, 3) of the six-wide stencil reads columns 2, 3, 4 of row 2.  Three
# inputs of 21845 B are the largest block still joined and compared with one
# memcmp; one byte more each and every size above is compared input by
# input, in place.  None but 64 KiB is a multiple of the 32-byte header.
T, I, COLS = 3, 3, (2, 3, 4)
SIZES = [_BULK_BYTES // 3, _BULK_BYTES // 3 + 1, _BULK_BYTES, _BULK_BYTES + 5]


def _via_validate_inputs(g, inputs):
    validate_inputs(g, T, I, inputs)


def _via_validate_row(g, inputs):
    validate_row(g, T, g.row_plan(T), I, I + 1, inputs)


def _via_execute_point(g, inputs):
    g.execute_point(T, I, inputs)


def _via_execute_row(g, inputs):
    g.execute_row(T, I, I + 1, inputs, scratch=None, validate=True)


VIAS = [_via_validate_inputs, _via_validate_row, _via_execute_point,
        _via_execute_row]


def _readonly(buf, pool):
    buf.setflags(write=False)
    return buf


def _strided(buf, pool):
    view = np.repeat(buf, 2)[::2]
    assert not view.flags.c_contiguous
    return view


def _pool_handle(buf, pool):
    ref = pool.acquire(buf.nbytes)
    as_array(ref)[:] = buf
    return ref


FORMS = [_readonly, _strided, _pool_handle,
         lambda buf, pool: buf.tobytes(),
         lambda buf, pool: memoryview(buf.tobytes())]


@pytest.mark.parametrize("via", VIAS)
@pytest.mark.parametrize("nbytes", SIZES)
class TestEveryByteOfLargeInputs:
    """The memcmp paths check what the per-element comparison checked, and
    say the same about what they reject."""

    def _msg(self, slot, found):
        return (f"task (t={T}, i={I}) of graph 0: input slot {slot} should "
                f"be the output of (t={T - 1}, i={COLS[slot]}) but {found}")

    def test_accepts_every_form_of_the_right_bytes(self, via, nbytes):
        g = graph(output_bytes_per_task=nbytes)
        assert (3 * nbytes <= _BULK_BYTES) == (nbytes == SIZES[0])
        with HeapSlabPool() as pool:
            for form in FORMS:
                via(g, [form(b, pool) for b in expected_inputs(g, T, I)])

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_flipped_byte_is_caught_and_named(self, via, nbytes, where):
        g = graph(output_bytes_per_task=nbytes)
        offset = {"first": 0, "middle": nbytes // 2, "last": nbytes - 1}[where]
        # Past the first header a buffer still reads as its producer's; a
        # flip of the lowest byte of the timestep field reads as another's.
        found = ("is the output of graph 0 task (t=253, i=4)" if offset == 0
                 else "is the output of graph 0 task (t=2, i=4)")
        with HeapSlabPool() as pool:
            for form in FORMS:
                inputs = expected_inputs(g, T, I)
                inputs[2][offset] ^= 0xFF
                with pytest.raises(ValidationError) as exc:
                    via(g, [form(b, pool) for b in inputs])
                assert str(exc.value) == self._msg(2, found)

    def test_recycled_buffer_of_an_older_row_is_caught(self, via, nbytes):
        """What a row buffer written over two rows late would hold: the
        right column's pattern, stamped with the timestep before last."""
        g = graph(output_bytes_per_task=nbytes)
        inputs = expected_inputs(g, T, I)
        inputs[1] = task_output(g, T - 3, COLS[1])
        with pytest.raises(ValidationError) as exc:
            via(g, inputs)
        assert str(exc.value) == self._msg(
            1, "is the output of graph 0 task (t=0, i=3)")

    def test_bytes_are_compared_not_values(self, via, nbytes):
        """An input is its raw bytes whatever its dtype: a wider view of
        the right bytes passes, values equal modulo 256 do not."""
        g = graph(output_bytes_per_task=nbytes)
        inputs = expected_inputs(g, T, I)
        if nbytes % 8 == 0:
            via(g, [b.view("<i8") for b in inputs])
        inputs[0] = inputs[0].astype(np.int64) + 256
        with pytest.raises(ValidationError) as exc:
            via(g, inputs)
        assert str(exc.value) == self._msg(
            0, f"has wrong size {8 * nbytes} (expected {nbytes})")

    def test_an_input_without_a_byte_view_is_rejected(self, via, nbytes):
        g = graph(output_bytes_per_task=nbytes)
        inputs = expected_inputs(g, T, I)
        inputs[1] = [1, 2, 3]
        with pytest.raises(ValidationError, match=r"slot 1 .* no byte view"):
            via(g, inputs)


def _verdict(call):
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


#: ``(name, block -> odd array, passes)``: arrays holding (or pretending to
#: hold) the right inputs in a layout ``take`` would never produce.
ODD_SHAPES = [
    ("strided", lambda b: np.repeat(b, 2, axis=1)[:, ::2], True),
    ("fortran", np.asfortranarray, True),
    ("read-only", lambda b: _readonly(b.copy(), None), True),
    ("wider itemsize, right bytes", lambda b: b.view("<i8"), True),
    ("three-dimensional", lambda b: b.reshape(len(b), 2, -1), True),
    ("wider itemsize, equal values", lambda b: b.astype(np.int64), False),
    ("values equal modulo 256", lambda b: b.astype(np.int16) + 256, False),
    ("half the count", lambda b: b.reshape(len(b) // 2, -1), False),
    ("twice the count", lambda b: b.reshape(len(b) * 2, -1), False),
    ("flat", lambda b: b.reshape(-1), False),
    ("transposed", lambda b: np.ascontiguousarray(b.T), False),
]


@pytest.mark.parametrize("nbytes", [16, _BULK_BYTES // 16 + 8,
                                    _BULK_BYTES // 3 + 3],
                         ids=["one memcmp", "memcmp per task", "per input"])
class TestOddShapedBlocks:
    """An array handed over as a block's inputs is the sequence of its rows,
    compared as raw bytes: each odd one is accepted or rejected exactly as
    the list of its rows is, with the same text — never value-cast, never
    passed because its shape or byte count happens to fit."""

    ROW = 3  # the six-wide stencil's row 3 reads 16 inputs

    def _block(self, g):
        plan = g.row_plan(self.ROW)
        return np.array([task_output(g, self.ROW - 1, j) for j in plan.cols])

    @pytest.mark.parametrize("name, odd, passes", ODD_SHAPES,
                             ids=[name for name, _, _ in ODD_SHAPES])
    def test_a_block_is_judged_as_the_list_of_its_rows(self, nbytes, name,
                                                       odd, passes):
        g = graph(output_bytes_per_task=nbytes)
        plan, block = g.row_plan(self.ROW), self._block(g)
        assert len(block) == 16
        assert (block.nbytes <= _BULK_BYTES) == (nbytes == 16)
        flipped = block.copy()
        flipped[-1, -1] ^= 0x40
        validate_row(g, self.ROW, plan, 0, 6, block)  # the expected block memoised
        for good, data in ((True, block), (False, flipped)):
            shaped = odd(data)
            assert type(shaped) is np.ndarray
            got = _verdict(lambda: validate_row(g, self.ROW, plan, 0, 6, shaped))
            assert got == _verdict(
                lambda: validate_row(g, self.ROW, plan, 0, 6, list(shaped)))
            # ``execute_row``'s own compare of a block judges it the same.
            assert got == _verdict(lambda: g.execute_row(
                self.ROW, 0, 6, shaped, scratch=None, validate=True, plan=plan))
            assert (got is None) == (passes and good), got
        # One task's share of it, through ``validate_inputs``.
        a, b = plan.starts[I], plan.starts[I + 1]
        if shaped.ndim > 1 and len(shaped) == 16:
            share = odd(block)[a:b]
            got = _verdict(lambda: validate_inputs(g, self.ROW, I, share))
            assert got == _verdict(
                lambda: validate_inputs(g, self.ROW, I, list(share)))
            assert (got is None) == passes, got


def _charged(memo):
    """What a pattern memo's values cost, counted from the values: bytes of
    a ``bytearray`` (a compared pattern), of an array (an output block),
    plus the per-entry charge."""
    return sum((p.nbytes if isinstance(p, np.ndarray) else len(p))
               + validation._ENTRY_BYTES for p in memo.values())


#: The block memo and the column memo, with their budgets.
MEMOS = [("_memo", "_MEMO_BYTES"), ("_columns", "_COLUMN_BYTES")]


class TestPatternMemoIsBoundedInBytes:
    def _held_after_serial_run(self, steps, nbytes=1 << 16, seed=12345):
        """What the block memo and the column memo hold after ``serial``
        ran a stencil, each memo's own count checked against its values."""
        g = TaskGraph(timesteps=steps, max_width=8, output_bytes_per_task=nbytes,
                      dependence=DependenceType.STENCIL_1D, seed=seed)
        make_executor("serial").run([g], validate=True)
        held = []
        for memo, budget in MEMOS:
            memo, budget = getattr(validation, memo), getattr(validation, budget)
            assert _charged(memo) == memo.held <= budget
            held.append(memo.held)
        return tuple(held)

    @pytest.fixture
    def fresh_memos(self, monkeypatch):
        for memo, budget in MEMOS:
            monkeypatch.setattr(validation, memo, fastpath.Bounded(
                getattr(validation, budget)))

    def test_held_bytes_do_not_grow_with_graph_height(self, monkeypatch,
                                                      fresh_memos):
        stamps = []
        stamp = validation._stamp
        monkeypatch.setattr(validation, "_stamp",
                            lambda *a, **k: stamps.append(a) or stamp(*a, **k))
        short = self._held_after_serial_run(100)
        tall = self._held_after_serial_run(400)
        # 64 KiB patterns are columns, tiled from one header — never a block,
        # never batch-stamped — and the rows in flight fill the column memo.
        assert short == tall == (0, tall[1])
        assert validation._COLUMN_BYTES - (1 << 16) - validation._ENTRY_BYTES < (
            tall[1]) <= validation._COLUMN_BYTES
        assert not stamps

    def test_clear_forgets_the_queue_and_the_count(self, fresh_memos):
        """``clear`` empties the queue of keys and the byte count with the
        dict: left behind, the next eviction would pop a key that is gone (a
        ``KeyError`` mid-run) and the budget count bytes no longer held."""
        memo = fastpath.Bounded(300)
        for k in range(5):
            memo.add(k, str(k), 100)
        memo.clear()
        assert memo.held == 0 and not memo
        for k in range(5, 10):
            memo.add(k, str(k), 100)
        assert list(memo) == [7, 8, 9] and memo.held == 300
        # The pattern memos themselves, cleared between two serial runs of
        # 64 KiB (columns) and of 16 bytes (blocks).
        for nbytes, memo in ((1 << 16, 1), (16, 0)):
            held = self._held_after_serial_run(20, nbytes)[memo]
            validation._memo.clear()
            validation._columns.clear()
            assert validation._memo.held == validation._columns.held == 0
            assert self._held_after_serial_run(20, nbytes)[memo] == held

    def test_small_blocks_of_both_kinds_are_charged_what_they_hold(
            self, monkeypatch):
        """A 16-byte stencil too tall for the budget: the expected inputs
        (``bytearray``) and output blocks (arrays) of its tiles fill the
        memo, and what it holds at the end is the same for a graph taller by
        a whole tile — the newest blocks, charged exactly."""
        # A row stamps 22 inputs and 8 outputs of 16 bytes.
        assert 8000 * (22 + 8) * 16 > validation._MEMO_BYTES
        # Tiles start where they started on the short graph.
        endless = TaskGraph(timesteps=1 << 20, max_width=8,
                            dependence=DependenceType.STENCIL_1D)
        steady = endless.tile_plan(endless.tile_plan(0).t1)
        taller = 8000 + steady.t1 - steady.t0
        held, kinds = [], set()
        for steps in (8000, taller):
            held.append(self._held_after_serial_run(steps, 16, seed=0xB17E5)[0])
            kinds.add(frozenset(type(p) for p in validation._memo.values()))
        # Full but for less than one entry: none holds more than a tile's inputs.
        assert held[0] == held[1] <= validation._MEMO_BYTES < (
            held[0] + validation._BULK_BYTES + validation._ENTRY_BYTES)
        assert kinds == {frozenset((bytearray, np.ndarray))}

    def test_concurrent_misses_keep_the_count_exact(self):
        """Four threads miss, insert and evict at once (the ``threads``
        executor validates from every worker): a lost update would leave the
        counter off the bytes actually held, for good."""
        errors = []

        def hammer(k):
            try:
                for t in range(300):
                    for nbytes in (40, 1 << 16):
                        want = validation._output_bytes(9, k, t, 5, nbytes)
                        assert validation._expected(9, k, t, (5,), nbytes) == want
                        # Joined: a block memo entry of two column entries.
                        assert validation._expected(9, k, t, (4, 5), nbytes) == (
                            validation._output_bytes(9, k, t, 4, nbytes) + want)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,))
                       for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        for memo, budget in MEMOS:
            memo, budget = getattr(validation, memo), getattr(validation, budget)
            assert _charged(memo) == memo.held <= budget


class TestLargeRowsKillMutants:
    """The large branch of ``validate_row`` — a block above ``_BULK_BYTES``
    checked against one memo probe per producer, one ``memcmp`` per input
    where it lies — at 64 KiB, through ``validate_row``, ``execute_row`` and
    ``serial``.  Each mutant dies with the text ``execute_point`` dies with
    (same task, slot and producer): a corrupted slot among distinct buffers
    (a compare deduplicated by column or by buffer identity would pass all
    but one of them), the row before last served as the last, two inputs
    swapped, and a slab handle of a released slot (its bytes right again)."""

    NBYTES = 1 << 16
    T = 4  # the row served wrong; it reads the eight outputs of row 3

    def _graph(self):
        return TaskGraph(timesteps=6, max_width=8, output_bytes_per_task=self.NBYTES,
                         dependence=DependenceType.STENCIL_1D, seed=0xB16)

    @staticmethod
    def _point_verdict(g, t, inputs):
        """The first ``execute_point`` error of row ``t`` fed ``inputs``."""
        plan = g.row_plan(t)
        for k in range(plan.width):
            verdict = _verdict(lambda: g.execute_point(
                t, plan.off + k, inputs[plan.starts[k]:plan.starts[k + 1]]))
            if verdict:
                return verdict
        return None

    def _via_validate_row(self, g, inputs):
        validate_row(g, self.T, g.row_plan(self.T), 0, 8, inputs)

    def _via_execute_row(self, g, inputs):
        out = [np.empty(self.NBYTES, np.uint8) for _ in range(8)]
        g.execute_row(self.T, 0, 8, inputs, scratch=None, validate=True,
                      out=out, plan=g.row_plan(self.T))

    def _via_serial(self, g, inputs, monkeypatch):
        """``serial`` runs the graph, and row ``T`` is handed ``inputs``
        (a function of what the rows before it returned) instead of its own
        gather."""
        rows, execute_row = {}, TaskGraph.execute_row

        def mutant(graph, t, lo, hi, gathered, **kw):
            if t == self.T:
                gathered = inputs(rows, gathered)
                mutant.want = self._point_verdict(graph, t, gathered)
            rows[t] = execute_row(graph, t, lo, hi, gathered, **kw)
            return rows[t]

        monkeypatch.setattr(TaskGraph, "execute_row", mutant)
        make_executor("serial").run([g], validate=True)
        return mutant.want

    def test_the_right_row_passes_every_way(self, monkeypatch):
        g = self._graph()
        cols = g.row_plan(self.T).cols
        assert len(cols) == 22 and 22 * self.NBYTES > _BULK_BYTES
        self._via_validate_row(g, [task_output(g, self.T - 1, j) for j in cols])
        self._via_execute_row(g, [task_output(g, self.T - 1, j) for j in cols])
        assert self._via_serial(g, lambda rows, got: got, monkeypatch) is None

    @pytest.mark.parametrize("slot", range(22))
    def test_each_corrupted_slot_is_named(self, slot, monkeypatch):
        g = self._graph()
        cols = g.row_plan(self.T).cols

        def corrupted(buffers):
            distinct = [np.array(as_array(b)) for b in buffers]
            distinct[slot][-1] ^= 0x01
            return distinct

        bad = corrupted(task_output(g, self.T - 1, j) for j in cols)
        want = self._point_verdict(g, self.T, bad)
        assert want.startswith(f"task (t={self.T}, i=") and (
            f"should be the output of (t={self.T - 1}, i={cols[slot]})" in want)
        for via in (self._via_validate_row, self._via_execute_row):
            assert _verdict(lambda: via(g, bad)) == want
        with pytest.raises(ValidationError) as got:
            self._via_serial(g, lambda rows, gathered: corrupted(gathered),
                             monkeypatch)
        assert str(got.value) == want

    def test_the_row_before_last_is_caught(self, monkeypatch):
        """What ``serial`` would hand row ``T`` if it gathered from its spare
        row — the buffers it is about to write over, still row ``T - 2``."""
        g = self._graph()
        plan = g.row_plan(self.T)
        stale = [task_output(g, self.T - 2, j) for j in plan.cols]
        want = self._point_verdict(g, self.T, stale)
        assert want.endswith(f"is the output of graph 0 task (t={self.T - 2}, "
                             f"i={plan.cols[0]})")
        for via in (self._via_validate_row, self._via_execute_row):
            assert _verdict(lambda: via(g, stale)) == want
        with pytest.raises(ValidationError) as got:
            self._via_serial(g, lambda rows, gathered: [
                rows[self.T - 2][j] for j in plan.flat], monkeypatch)
        assert str(got.value) == want

    def test_two_swapped_inputs_are_caught(self, monkeypatch):
        """The first inputs of tasks 3 and 4 (columns 2 and 3) swapped: in
        ``serial``'s gather each is a buffer compared already, at a slot of
        its own producer, so a compare skipped by buffer or by column would
        pass them both."""
        g = self._graph()
        cols = g.row_plan(self.T).cols
        a, b = 8, 11

        def swapped(buffers):
            buffers = list(buffers)
            buffers[a], buffers[b] = buffers[b], buffers[a]
            return buffers

        assert cols[a] != cols[b]
        bad = swapped(task_output(g, self.T - 1, j) for j in cols)
        want = self._point_verdict(g, self.T, bad)
        assert f"(t={self.T}, i=3)" in want and "input slot 0" in want
        for via in (self._via_validate_row, self._via_execute_row):
            assert _verdict(lambda: via(g, bad)) == want
        with pytest.raises(ValidationError) as got:
            self._via_serial(g, lambda rows, gathered: swapped(gathered),
                             monkeypatch)
        assert str(got.value) == want

    def test_producers_are_the_tables_not_the_plan_handed_in(self):
        """A plan the table does not hold — row ``T``'s with one producer
        moved, the inputs gathered by it — names no producer anything is
        compared with: the row is walked task by task, and dies."""
        g = self._graph()
        fake = copy.copy(g.row_plan(self.T))
        cols = list(fake.cols)
        cols[9] = 5  # task 3 reads columns 2, 3, 4
        fake.cols = tuple(cols)
        bad = [task_output(g, self.T - 1, j) for j in fake.cols]
        want = self._point_verdict(g, self.T, bad)
        assert want.endswith("is the output of graph 0 task (t=3, i=5)")
        assert _verdict(lambda: validate_row(g, self.T, fake, 0, 8, bad)) == want
        assert _verdict(lambda: g.execute_row(
            self.T, 0, 8, bad, scratch=None, validate=True, plan=fake)) == want

    def test_a_stale_slab_handle_is_rejected(self):
        """A handle whose slot was released and acquired again holds the
        right bytes, but not its generation: it is refused, not compared."""
        g = self._graph()
        cols = g.row_plan(self.T).cols
        with SharedMemorySlabPool() as pool:
            refs = [pool.acquire(self.NBYTES) for _ in cols]
            for ref, j in zip(refs, cols):
                as_array(ref)[:] = task_output(g, self.T - 1, j)
            self._via_validate_row(g, refs)  # live handles pass
            pool.decref(refs[5])
            again = pool.acquire(self.NBYTES)
            assert again.slot == refs[5].slot
            as_array(again)[:] = task_output(g, self.T - 1, cols[5])
            for via in (self._via_validate_row, self._via_execute_row):
                with pytest.raises(StaleHandleError):
                    via(g, refs)
                via(g, refs[:5] + [again] + refs[6:])
