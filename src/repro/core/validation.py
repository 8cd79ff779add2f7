"""Full validation of task inputs and outputs (paper §2).

"The output of every task in Task Bench is unique, and all inputs are
verified.  An assertion is thrown if validation fails.  These checks ensure
that every execution of Task Bench, if it completes successfully, is
correct."

The output of task ``(t, i)`` of graph ``g`` is a deterministic byte pattern:
a 32-byte header packing ``(seed, graph_index, timestep, column)`` as little-
endian int64s, tiled to fill ``output_bytes_per_task``.  Tiling (rather than
header-then-zeros) means corruption *anywhere* in a communicated buffer is
detected, not just in the first bytes.  Any runtime bug — a wrong dependency,
a stale buffer, a dropped or reordered message — trips a
:class:`ValidationError` naming the offending task and input.

Validation happens on every input of every task, so this is the hottest
path of the core library (the paper bounds validation overhead at 3%).
Every comparison is one C ``memcmp``: ``validate_inputs`` (one task) and
``validate_row`` (a column block of one timestep) compare small inputs
against the expected bytes of the whole block — where they lie when they
arrive as one C-contiguous array (a row block gathered with one ``take``),
joined when they arrive as a list; an input too large to be worth joining
is compared in place through the buffer protocol.  Only a mismatch walks
small inputs one by one, to name the offending slot.
``TaskGraph.execute_row`` does a block's hit inline — one probe, one
``memcmp``, one copy of the output block — and comes here for the rest;
``TaskGraph.execute_tile`` does the same for a stack of rows at once, and
:func:`validate_tile` walks a tile's mismatch row by row.

Expected patterns come from one memo bounded in bytes (``_memo``).  The
blocks of a row owner are filed under the row plan's token
(:attr:`~repro.core.fastpath.RowPlan.token`) and ``(t, lo, hi,
graph_index, nbytes)``: ``token`` for the inputs of columns ``[lo, hi)``
of row ``t`` — the outputs of the producers the plan names, end to end, a
``bytearray`` —, ``~token`` for what those columns write — the
``(hi - lo, nbytes)`` ``uint8`` array a fresh output block is one copy of.
A tile (:class:`~repro.core.fastpath.TilePlan`) files its two blocks the
same way under ``(token, graph_index, nbytes)`` and ``~token``: a tile
serves only its own rows.  A token stands for one plan of one dependence
table, so two dependence types of one seed, two graphs of one table or a
plan evicted and compiled again never share a key, and ``t`` is in a row's
key because a plan serves every timestep of its class.  Single columns and
the inputs of one task — the per-task path, the walk that names an
offender, payloads above ``_BULK_BYTES`` — are keyed ``(seed, graph_index,
t, cols, nbytes)``: a column is one packed header tiled, a task's inputs
their columns' patterns joined (:func:`_expected`).

A block is never made alone: the first row that compares or writes it
misses, and the miss stamps the same block of a **batch** of rows — as many
as hold ``fastpath._BATCH`` tasks or ``_BULK_BYTES`` of patterns — with one
header-array store, cut into the memo row by row (:func:`_stamp`), so that a
first pass over a small-payload graph costs a slice per row, not a header
per input.  Block keys are filed by that stamp alone, from the table's own
plans: a hit is the arithmetic of ``(seed, graph_index, t, column)`` for the
row and block it names, whatever plan the caller holds, and nothing
expected is ever derived from a buffer under test.
"""

from __future__ import annotations

import struct
import threading
from itertools import accumulate, chain, pairwise
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

import numpy as np

from .bufpool import as_array
from .fastpath import _BATCH, Bounded

if TYPE_CHECKING:  # pragma: no cover
    from .bufpool import Payload
    from .fastpath import RowPlan, TilePlan
    from .task_graph import TaskGraph

HEADER_BYTES = 32

#: ``(timestep, column, graph_index, seed)`` as little-endian int64s.
#: ``(t, i)`` lead so that even outputs smaller than the full 32 bytes
#: remain unique within a graph; graph_index and seed follow for cross-graph
#: and cross-run uniqueness when the buffer is larger.
_HEADER = struct.Struct("<4q")

#: Inputs whose combined size is at most this many bytes are checked with
#: one concatenated bulk comparison; larger payloads are compared buffer by
#: buffer (concatenation would copy more than it saves).  Likewise a block
#: of outputs up to this size is stamped as one buffer.  The only size that
#: selects a path.
_BULK_BYTES = 1 << 16

#: Byte budget of the pattern memo, and what one entry is charged on top of
#: its pattern (key, dict slot, object header), so that tiny or empty
#: patterns are bounded as well.  A pattern is reused only by the row that
#: consumes it (about 2.7 times on a stencil), so the memo need hold no more
#: than two rows of large payloads; the budget keeps those within a core's
#: L2 while every row of a small-payload graph a few thousand steps tall
#: stays memoised from one warm run to the next.
_MEMO_BYTES = 1 << 21
_ENTRY_BYTES = 128

#: Oldest first, like the row plans: a graph too tall for it misses on every
#: row of every pass under any order.  Hits are lock-free probes; inserts
#: and evictions hold the lock.  An evicted 64 KiB pattern is the allocation
#: the next one reuses.
_memo = Bounded(_MEMO_BYTES)
_memo_lock = threading.Lock()


class ValidationError(AssertionError):
    """Raised when a task receives an input that does not match the graph
    specification.  Subclasses :class:`AssertionError` to mirror the paper's
    "an assertion is thrown if validation fails"."""


def _output_bytes(seed: int, graph_index: int, t: int, i: int, nbytes: int) -> bytes:
    """A task's output pattern as immutable ``bytes``: the plain tiled
    header, derived without :data:`_HEADER` or the memo — the oracle the
    forms below are tested against, called by nothing else."""
    header = np.array([t, i, graph_index, seed], dtype="<i8").tobytes()
    reps = -(-nbytes // HEADER_BYTES)  # ceil division
    return (header * reps)[:nbytes]


def _stamp(seed: int, graph_index: int, nbytes: int,
           rows: Sequence[Tuple[tuple, int, Sequence[int]]],
           block: bool = False) -> Any:
    """Memoise the outputs of producers ``(t, col)``, ``col`` in ``cols``,
    under ``key`` for every ``(key, t, cols)`` of ``rows`` and return the
    first one's: all their headers are packed by one array store (``t``
    repeated per column, the columns laid end to end), tiled, and cut into
    the memo a key at a time — rows filed under one key (a tile's) end to
    end — as a ``bytearray`` (what inputs are compared with), or with
    ``block`` as a ``(len(cols), nbytes)`` array (what an output block is
    copied from)."""
    counts = [len(cols) for *_, cols in rows]
    total = sum(counts)
    headers = np.empty((total, 1, 4), dtype="<i8")
    headers[:, 0, 0] = np.repeat([t for _, t, _ in rows], counts)
    headers[:, 0, 1] = np.fromiter(
        chain.from_iterable(cols for *_, cols in rows), "<i8", total)
    headers[:, 0, 2:] = graph_index, seed
    reps = -(-nbytes // HEADER_BYTES)  # ceil division
    tiled = np.broadcast_to(headers, (total, reps, 4))
    data = np.ascontiguousarray(
        tiled.reshape(total, 4 * reps).view(np.uint8)[:, :nbytes])
    ends = list(accumulate(counts))
    spans: Dict[Any, List[int]] = {}
    for (key, _, _), a, b in zip(rows, [0] + ends, ends):
        spans.setdefault(key, [a, b])[1] = b
    with _memo_lock:
        patterns = [
            _memo.add(key, data[a:b].copy() if block else bytearray(
                data[a:b].data), (b - a) * nbytes + _ENTRY_BYTES)
            for key, (a, b) in spans.items()
        ]
    return patterns[0]


def _batch_of(graph: "TaskGraph", t: int, row_bytes: int) -> range:
    """The timesteps from ``t`` on that one miss stamps together, at
    ``row_bytes`` of patterns each."""
    rows = min(_BATCH // graph.max_width, _BULK_BYTES // row_bytes)
    return range(t, min(t + max(1, rows), graph.timesteps))


def _expected(seed: int, graph_index: int, t: int, cols: Sequence[int],
              nbytes: int) -> bytearray:
    """The outputs of producers ``(t, col)`` for ``col`` in ``cols``, laid
    end to end, from the memo.  Shared — callers must not mutate it.  A
    ``bytearray`` because that is the type whose ``==`` compares against
    any contiguous buffer with one ``memcmp``.  The writer of row ``t``
    leaves here what the validation of row ``t + 1`` looks up.

    A miss on one column packs its header and tiles it; a miss on several —
    the inputs of one task, where no batch is in sight — joins theirs."""
    key = (seed, graph_index, t, cols, nbytes)
    try:
        return _memo[key]
    except KeyError:
        pass
    if len(cols) == 1:
        pattern = bytearray(_HEADER.pack(t, cols[0], graph_index, seed))
        pattern *= -(-nbytes // HEADER_BYTES)  # ceil division
        del pattern[nbytes:]
    else:
        pattern = bytearray().join(
            [_expected(seed, graph_index, t, (col,), nbytes) for col in cols])
    with _memo_lock:
        return _memo.add(key, pattern, len(pattern) + _ENTRY_BYTES)


def task_output(graph: "TaskGraph", t: int, i: int) -> np.ndarray:
    """The unique output buffer of task ``(t, i)``.

    Deterministic in ``(seed, graph_index, t, i)`` and of length
    ``graph.output_bytes_per_task``.  Returns a fresh mutable array (the
    memoised pattern backs comparisons and in-place writes only).
    """
    out = np.empty(graph.output_bytes_per_task, dtype=np.uint8)
    write_task_output(graph, t, i, out)
    return out


def write_task_output(graph: "TaskGraph", t: int, i: int, dest: np.ndarray) -> None:
    """Write the unique output of task ``(t, i)`` into ``dest`` in place.

    The in-place twin of :func:`task_output`, used to fill a recycled
    buffer — a slab slot of the pooled data plane
    (:mod:`repro.core.bufpool`), a row buffer of ``serial`` — instead of
    allocating a fresh array per task.
    """
    nbytes = graph.output_bytes_per_task
    if dest.nbytes != nbytes:
        raise ValueError(
            f"destination holds {dest.nbytes} bytes, task output needs {nbytes}"
        )
    # One memcpy through the buffer protocol, as the compare is one memcmp.
    dest.data[:] = _expected(graph.seed, graph.graph_index, t, (i,), nbytes)


def task_outputs(
    graph: "TaskGraph", t: int, lo: int, hi: int,
    out: Sequence["Payload"] | None = None,
) -> Sequence["Payload"]:
    """The outputs of tasks ``(t, lo) .. (t, hi - 1)``, in column order:
    the one output writer behind ``execute_point`` and ``execute_row``.

    With ``out`` (exactly one destination per task, array or pool handle)
    each pattern is written in place and ``out`` is returned.  Otherwise a
    block of several tasks and at most ``_BULK_BYTES`` is one fresh
    ``(hi - lo, nbytes)`` ``uint8`` array — a copy of the block memoised
    under ``~token`` of row ``t``'s plan, stamped with the same block of the
    rows after it on a miss — returned as it is: indexing or iterating it
    yields the per-task views, and only who needs one makes one.  A larger
    block (where one big copy costs more than it saves) or a single task is
    a list of a fresh buffer per task.
    """
    if out is not None:
        if len(out) != hi - lo:
            raise ValueError(
                f"row {t} block [{lo}, {hi}) of graph {graph.graph_index} has "
                f"{hi - lo} tasks but {len(out)} output destinations")
        for i, dest in zip(range(lo, hi), out):
            write_task_output(
                graph, t, i, dest if type(dest) is np.ndarray else as_array(dest))
        return out
    nbytes = graph.output_bytes_per_task
    if hi - lo > 1 and 0 < (hi - lo) * nbytes <= _BULK_BYTES:
        gidx, cols = graph.graph_index, range(lo, hi)
        block = _memo.get((~graph.row_plan(t).token, t, lo, hi, gidx, nbytes))
        if block is None:
            block = _stamp(graph.seed, gidx, nbytes, [
                ((~graph.row_plan(u).token, u, lo, hi, gidx, nbytes), u, cols)
                for u in _batch_of(graph, t, (hi - lo) * nbytes)], block=True)
        return block.copy()
    return [task_output(graph, t, i) for i in range(lo, hi)]


def tile_block(graph: "TaskGraph", tile: "TilePlan") -> np.ndarray:
    """The outputs of every task of ``tile``, row after row: the ``(tasks,
    nbytes)`` array memoised under ``~tile.token`` that a tile buffer is one
    copy of, shared — callers must not mutate it.  On a miss it is stamped
    from the table's own tile from ``tile.t0``; a tile the table does not
    hold (stale, or not its own) is written row by row by
    :func:`task_outputs`, fresh."""
    gidx, nbytes = graph.graph_index, graph.output_bytes_per_task
    if graph.tile_plan(tile.t0) is not tile:
        return np.concatenate([
            np.reshape(task_outputs(graph, t, lo, hi), (-1, nbytes))
            for t, lo, hi, _, _ in tile.rows()])
    key = (~tile.token, gidx, nbytes)
    return _stamp(graph.seed, gidx, nbytes, [
        (key, t, range(lo, hi)) for t, lo, hi, _, _ in tile.rows()], block=True)


def validate_tile(graph: "TaskGraph", tile: "TilePlan",
                  inputs: np.ndarray) -> None:
    """Check every input of ``tile`` at once: ``inputs``, gathered with
    ``tile.index``, against the expected inputs filed under ``tile.token``
    — stamped on a miss, in one header store, from the table's own tile
    from ``tile.t0`` — with one ``memcmp``.  Anything else — a mismatch, a
    tile the table does not hold, inputs above ``_BULK_BYTES`` — goes to
    :func:`validate_row` row by row, splitting ``inputs`` at
    ``tile.starts``, so the error names the first offending task, slot and
    producer exactly as ``execute_point`` would."""
    gidx, nbytes = graph.graph_index, graph.output_bytes_per_task
    key = (tile.token, gidx, nbytes)
    expected = _memo.get(key)
    if (expected is None and nbytes * len(tile.index) <= _BULK_BYTES
            and graph.tile_plan(tile.t0) is tile):
        expected = _stamp(graph.seed, gidx, nbytes, [
            (key, t - 1, cols)
            for t, cols in zip(range(tile.t0, tile.t1), tile.cols)])
    if expected is not None and expected == inputs:
        return
    for (t, lo, hi, _, _), (a, b) in zip(tile.rows(), pairwise(tile.starts)):
        validate_row(graph, t, graph.row_plan(t), lo, hi, inputs[a:b])


def tiles(graph: "TaskGraph") -> bool:
    """Whether a full row of ``graph`` is one block of outputs — some bytes,
    at most ``_BULK_BYTES`` — so that an owner of every column runs a stack
    of its rows as one tile (``TaskGraph.execute_tile``)."""
    return 0 < graph.max_width * graph.output_bytes_per_task <= _BULK_BYTES


def recycles_rows(graph: "TaskGraph") -> bool:
    """Whether a full row of ``graph`` is above ``_BULK_BYTES`` — written
    buffer by buffer, not stamped as one block — so that a block owner saves
    an allocation per task by passing the buffers of the row before last
    back as ``out=``."""
    return graph.max_width * graph.output_bytes_per_task > _BULK_BYTES


#: What the conversions of :func:`_as_flat_uint8` raise for an object that
#: has no contiguous byte view.
_NO_BYTE_VIEW = (TypeError, ValueError, BufferError)


def _as_flat_uint8(buf) -> np.ndarray:
    """The raw bytes of ``buf`` — array of any dtype, pool handle or
    bytes-like — as a contiguous 1-D uint8 array: a view, but a copy of a
    strided array.  Never a value cast."""
    if (type(buf) is np.ndarray and buf.dtype == np.uint8 and buf.ndim == 1
            and buf.flags.c_contiguous):
        return buf
    buf = as_array(buf)
    if isinstance(buf, np.ndarray):
        buf = np.ascontiguousarray(buf)
    return np.frombuffer(buf, dtype=np.uint8)


def _joined(inputs: Sequence["Payload"]) -> "bytes | np.ndarray | None":
    """``inputs`` laid end to end, to be compared with the expected bytes of
    a whole block by one ``memcmp`` (``None``, equal to nothing, when one of
    them has no byte view).  A C-contiguous array — a gathered row block, or
    a task's slice of one — is its rows laid end to end already and is
    compared where it lies, as raw bytes whatever its dtype.  Contiguous
    arrays in a list join as they are (buffer protocol) — a raw copy of at
    most ``_BULK_BYTES``, far cheaper than per-input comparisons at this
    size."""
    if type(inputs) is np.ndarray and inputs.flags.c_contiguous:
        return inputs
    try:
        return b"".join(inputs)
    except TypeError:  # pool handles, strided views or non-buffers among them
        try:
            return b"".join([_as_flat_uint8(b) for b in inputs])
        except _NO_BYTE_VIEW:
            return None


def validate_inputs(
    graph: "TaskGraph", t: int, i: int, inputs: Sequence["Payload"]
) -> None:
    """Check that ``inputs`` are exactly the outputs of the dependencies of
    task ``(t, i)``, in canonical (ascending-column) order.

    Raises
    ------
    ValidationError
        If the number of inputs is wrong or any buffer differs from the
        expected producer output.
    """
    cols = graph.dependency_columns(t, i) if t > 0 else ()
    if len(inputs) != len(cols):
        raise ValidationError(
            f"task (t={t}, i={i}) of graph {graph.graph_index}: expected "
            f"{len(cols)} inputs from columns {list(cols)}, "
            f"got {len(inputs)}"
        )
    if not cols:
        return
    seed, gidx = graph.seed, graph.graph_index
    nbytes = graph.output_bytes_per_task
    if 0 < nbytes * len(cols) <= _BULK_BYTES and _expected(
        seed, gidx, t - 1, cols, nbytes
    ) == _joined(inputs):
        return
    # Large inputs, or a mismatch somewhere: the per-input walk pinpoints
    # the offending slot for the error message.  One memcmp per input, in
    # place: ``bytearray == buffer`` makes no temporary.
    for slot, (col, buf) in enumerate(zip(cols, inputs)):
        try:
            arr = _as_flat_uint8(buf)
        except _NO_BYTE_VIEW as exc:
            raise _bad_input(graph, t, i, slot, col,
                             f"has no byte view ({exc})") from None
        if not _expected(seed, gidx, t - 1, (col,), nbytes) == arr:
            raise _bad_input(graph, t, i, slot, col,
                             _describe_buffer(graph, arr))


def validate_row(
    graph: "TaskGraph", t: int, plan: "RowPlan", lo: int, hi: int,
    inputs: Sequence["Payload"],
) -> None:
    """Check the inputs of tasks ``(t, lo) .. (t, hi - 1)`` at once.

    ``inputs`` is the tasks' canonical input lists laid end to end (the
    order of ``plan.flat``): a list, or one array with an input per row.
    When the count is right and the block is small it is compared against
    the expected bytes of the whole block with one ``memcmp`` (in place when
    it is a C-contiguous array, :func:`_joined`; the count of an array is
    its ``len``, so one of the right bytes in another shape is walked like
    the list of its rows): every input byte of every task is still checked
    (against the block filed under ``plan.token`` and ``t``; one the memo
    does not hold is stamped from the table's plans together with the same
    block of the rows after it, as far as a batch goes and the rows hold it).
    Anything else — a mismatch, a wrong count, a block above
    ``_BULK_BYTES`` — goes to :func:`validate_inputs` task by task,
    splitting ``inputs`` at the plan's CSR offsets (the last task takes the
    tail), so the error names the same task, slot and stale producer as
    ``execute_point`` would.
    Inputs may be pool handles; they are resolved (and their generation
    tags verified) on the way.
    """
    starts = plan.starts
    first = starts[lo - plan.off]
    count = starts[hi - plan.off] - first
    nbytes = graph.output_bytes_per_task
    if len(inputs) == count:
        if not count:
            return
        expected = 0 < nbytes * count <= _BULK_BYTES and (
            _memo.get((plan.token, t, lo, hi, graph.graph_index, nbytes))
            or _stamp_rows(graph, t, lo, hi, nbytes * count))
        if expected and expected == _joined(inputs):
            return
    for i in range(lo, hi):
        k = i - plan.off
        end = starts[k + 1] - first if i < hi - 1 else None
        validate_inputs(graph, t, i, inputs[starts[k] - first:end])


def _stamp_rows(graph: "TaskGraph", t: int, lo: int, hi: int,
                row_bytes: int) -> "bytearray | None":
    """The expected inputs of columns ``[lo, hi)`` of row ``t`` (``None``
    when its window does not hold them), memoised with those of the rows of
    its batch whose windows hold the block."""
    gidx, nbytes = graph.graph_index, graph.output_bytes_per_task
    plans = map(graph.row_plan, _batch_of(graph, t, row_bytes))
    rows = [((plan.token, u, lo, hi, gidx, nbytes), u - 1, plan.columns(lo, hi))
            for u, plan in enumerate(plans, t)
            if plan.off <= lo <= hi <= plan.off + plan.width]
    return (_stamp(graph.seed, gidx, nbytes, rows)
            if rows and rows[0][1] == t - 1 else None)


def _bad_input(
    graph: "TaskGraph", t: int, i: int, slot: int, col: int, detail: str
) -> ValidationError:
    return ValidationError(
        f"task (t={t}, i={i}) of graph {graph.graph_index}: input "
        f"slot {slot} should be the output of (t={t - 1}, i={col}) "
        f"but {detail}"
    )


def _describe_buffer(graph: "TaskGraph", arr: np.ndarray) -> str:
    """Best-effort description of an unexpected buffer for error messages."""
    if arr.nbytes != graph.output_bytes_per_task:
        return f"has wrong size {arr.nbytes} (expected {graph.output_bytes_per_task})"
    if arr.nbytes >= HEADER_BYTES:
        t, i, gidx, seed = arr[:HEADER_BYTES].view("<i8")
        if seed == graph.seed:
            return f"is the output of graph {gidx} task (t={t}, i={i})"
    return "does not match any expected task output"


def expected_inputs(graph: "TaskGraph", t: int, i: int) -> List[np.ndarray]:
    """The exact input buffers task ``(t, i)`` must receive, in canonical
    order.  Useful for constructing tests and for runtimes that need to
    seed the first timestep."""
    if t == 0:
        return []
    return [task_output(graph, t - 1, j) for j in graph.dependency_points(t, i)]
