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
Expected patterns are memoized as read-only NumPy arrays built from a
per-column-tuple int64 template with the timestep stamped in place, and
``validate_inputs`` (one task) and ``validate_row`` (a column block of one
timestep) compare small inputs against one cached concatenated block in a
single bulk comparison; only a mismatch (or inputs too large to be worth
concatenating) walks the buffers one by one to name the offending slot.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .bufpool import as_array

if TYPE_CHECKING:  # pragma: no cover
    from .bufpool import Payload
    from .fastpath import RowPlan
    from .task_graph import TaskGraph

HEADER_BYTES = 32

#: Inputs whose combined size is at most this many bytes are checked with
#: one concatenated bulk comparison; larger payloads are compared buffer by
#: buffer (concatenation would copy more than it saves).
_BULK_BYTES = 1 << 16


class ValidationError(AssertionError):
    """Raised when a task receives an input that does not match the graph
    specification.  Subclasses :class:`AssertionError` to mirror the paper's
    "an assertion is thrown if validation fails"."""


@lru_cache(maxsize=65536)
def _output_bytes(seed: int, graph_index: int, t: int, i: int, nbytes: int) -> bytes:
    """A task's output pattern as immutable ``bytes``: the plain tiled
    header the array forms below are tested against.

    ``(t, i)`` lead the packed header so that even outputs smaller than the
    full 32 bytes remain unique within a graph; graph_index and seed follow
    for cross-graph and cross-run uniqueness when the buffer is larger.

    Keyed on plain ints so lookups avoid numpy construction entirely."""
    header = np.array([t, i, graph_index, seed], dtype="<i8").tobytes()
    reps = -(-nbytes // HEADER_BYTES)  # ceil division
    return (header * reps)[:nbytes]


@lru_cache(maxsize=2048)
def _block_template(seed: int, graph_index: int, cols: Tuple[int, ...],
                    nbytes: int) -> np.ndarray:
    """Read-only ``(len(cols), reps, 4)`` int64 header template of the
    outputs of columns ``cols`` with the timestep field left zero — one per
    (graph identity, column tuple), shared by every timestep (the dependence
    relation revisits the same columns each timestep, the timestep is
    stamped per use).  Keyed by shape, never by timestep, so a run caches
    one template per distinct row block however tall the graph is."""
    reps = -(-nbytes // HEADER_BYTES)  # ceil division
    tmpl = np.empty((len(cols), reps, 4), dtype="<i8")
    tmpl[:, :, 0] = 0
    tmpl[:, :, 1] = np.asarray(cols, dtype="<i8").reshape(-1, 1)
    tmpl[:, :, 2] = graph_index
    tmpl[:, :, 3] = seed
    tmpl.setflags(write=False)
    return tmpl


def _stamped_block(seed: int, graph_index: int, t: int,
                   cols: Tuple[int, ...], nbytes: int) -> np.ndarray:
    """Fresh ``(len(cols), nbytes)`` uint8 array whose row ``k`` is the
    output pattern of ``(t, cols[k])``: the cached template with ``t``
    stamped in.  Bit-identical to :func:`_output_bytes` row by row."""
    block = _block_template(seed, graph_index, cols, nbytes).copy()
    block[:, :, 0] = t
    return block.reshape(len(cols), -1).view(np.uint8)[:, :nbytes]


@lru_cache(maxsize=65536)
def _expected_array(seed: int, graph_index: int, t: int, i: int,
                    nbytes: int) -> np.ndarray:
    """Read-only uint8 array of the output pattern of ``(t, i)``, usable in
    zero-copy NumPy comparisons and in-place writes."""
    arr = _stamped_block(seed, graph_index, t, (i,), nbytes)[0]
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=65536)
def _expected_block(seed: int, graph_index: int, t: int,
                    cols: Tuple[int, ...], nbytes: int) -> bytes:
    """Concatenated outputs of producers ``(t, col)`` for ``col`` in
    ``cols`` — the expected inputs of one task, or of a whole row block —
    as one immutable ``bytes`` block: small-input bulk validation is a
    single C ``memcmp`` against it."""
    return _stamped_block(seed, graph_index, t, cols, nbytes).tobytes()


def task_output(graph: "TaskGraph", t: int, i: int) -> np.ndarray:
    """The unique output buffer of task ``(t, i)``.

    Deterministic in ``(seed, graph_index, t, i)`` and of length
    ``graph.output_bytes_per_task``.  Returns a fresh mutable array (the
    cached pattern backs validation comparisons only).
    """
    nbytes = graph.output_bytes_per_task
    if nbytes == 0:
        return np.empty(0, dtype=np.uint8)
    return _expected_array(graph.seed, graph.graph_index, t, i, nbytes).copy()


def write_task_output(graph: "TaskGraph", t: int, i: int, dest: np.ndarray) -> None:
    """Write the unique output of task ``(t, i)`` into ``dest`` in place.

    The in-place twin of :func:`task_output`, used by the pooled data plane
    (:mod:`repro.core.bufpool`) to fill a recycled slab slot instead of
    allocating a fresh array per task.
    """
    nbytes = graph.output_bytes_per_task
    if dest.nbytes != nbytes:
        raise ValueError(
            f"destination holds {dest.nbytes} bytes, task output needs {nbytes}"
        )
    if nbytes == 0:
        return
    dest[:] = _expected_array(graph.seed, graph.graph_index, t, i, nbytes)


def task_outputs(
    graph: "TaskGraph", t: int, lo: int, hi: int,
    out: Sequence[np.ndarray] | None = None,
) -> Sequence[np.ndarray]:
    """The outputs of tasks ``(t, lo) .. (t, hi - 1)``, in column order:
    the one output writer behind ``execute_point`` and ``execute_row``.

    With ``out`` (one destination array per task) each pattern is written in
    place and ``out`` is returned.  Otherwise a block of small outputs is
    stamped whole from one cached template and handed out as per-task views
    of it; a single task, or a block above ``_BULK_BYTES`` (where one big
    copy costs more than it saves), gets a fresh array per task.
    """
    if out is not None:
        for i, dest in zip(range(lo, hi), out):
            write_task_output(graph, t, i, dest)
        return out
    nbytes = graph.output_bytes_per_task
    if hi - lo > 1 and 0 < (hi - lo) * nbytes <= _BULK_BYTES:
        return list(_stamped_block(graph.seed, graph.graph_index, t,
                                   tuple(range(lo, hi)), nbytes))
    return [task_output(graph, t, i) for i in range(lo, hi)]


def _as_flat_uint8(buf) -> np.ndarray:
    if type(buf) is np.ndarray and buf.dtype == np.uint8 and buf.ndim == 1:
        return buf
    return np.asarray(buf, dtype=np.uint8).reshape(-1)


def _matches_block(graph: "TaskGraph", t: int, cols: Tuple[int, ...],
                   inputs: Sequence["Payload"]) -> bool:
    """Whether ``inputs``, laid end to end, are byte for byte the outputs of
    producers ``(t, col)`` for ``col`` in ``cols``: one ``memcmp`` against
    the cached expected block.  Contiguous arrays join as they are (buffer
    protocol) — a raw copy of at most ``_BULK_BYTES``, far cheaper than
    per-input NumPy comparisons at this size."""
    try:
        combined = b"".join(inputs)
    except TypeError:  # pool handles, strided views or non-arrays among them
        combined = b"".join(
            [_as_flat_uint8(as_array(b)).tobytes() for b in inputs]
        )
    return combined == _expected_block(
        graph.seed, graph.graph_index, t, cols, graph.output_bytes_per_task
    )


def validate_inputs(
    graph: "TaskGraph", t: int, i: int, inputs: Sequence[np.ndarray]
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
    nbytes = graph.output_bytes_per_task
    if 0 < nbytes * len(cols) <= _BULK_BYTES and _matches_block(
        graph, t - 1, cols, inputs
    ):
        return
    # Large inputs, or a mismatch somewhere: the per-input walk pinpoints
    # the offending slot for the error message.
    seed, gidx = graph.seed, graph.graph_index
    for slot, (col, buf) in enumerate(zip(cols, inputs)):
        arr = _as_flat_uint8(buf)
        expected = _expected_array(seed, gidx, t - 1, col, nbytes)
        if not np.array_equal(arr, expected):
            _raise_bad_input(graph, t, i, slot, col, arr)


def validate_row(
    graph: "TaskGraph", t: int, plan: "RowPlan", lo: int, hi: int,
    inputs: Sequence["Payload"],
) -> None:
    """Check the inputs of tasks ``(t, lo) .. (t, hi - 1)`` at once.

    ``inputs`` is the tasks' canonical input lists laid end to end (the
    order of ``plan.flat``).  When the count is right and the block is small
    it is compared against the expected bytes of the whole block with one
    ``memcmp``: every input byte of every task is still checked.  Anything
    else — a mismatch, a wrong count, a block above ``_BULK_BYTES`` — goes
    to :func:`validate_inputs` task by task, splitting ``inputs`` at the
    plan's CSR offsets (the last task takes the tail), so the error names
    the same task, slot and stale producer as ``execute_point`` would.
    Inputs may be pool handles; they are resolved (and their generation
    tags verified) on the way.
    """
    starts = plan.starts
    first = starts[lo - plan.off]
    count = starts[hi - plan.off] - first
    if len(inputs) == count and (
        not count
        or 0 < graph.output_bytes_per_task * count <= _BULK_BYTES
        and _matches_block(graph, t - 1, plan.columns(lo, hi), inputs)
    ):
        return
    for i in range(lo, hi):
        k = i - plan.off
        end = starts[k + 1] - first if i < hi - 1 else None
        validate_inputs(
            graph, t, i,
            [as_array(b) for b in inputs[starts[k] - first:end]],
        )


def _raise_bad_input(
    graph: "TaskGraph", t: int, i: int, slot: int, col: int, arr: np.ndarray
) -> None:
    detail = _describe_buffer(graph, arr)
    raise ValidationError(
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
