"""The task graph abstraction (paper §2).

A :class:`TaskGraph` is a 2-D iteration space (``timesteps`` × ``max_width``)
combined with a dependence relation, a kernel, and per-dependency
communication payload sizes.  The graph is *unmaterialized*: dependencies are
computed on demand from the dependence relation, which is what lets every
Task Bench implementation stay small (paper §2) and lets the core library
validate every execution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple

import numpy as np

from ..trace import recorder as _trace
from . import bufpool as _bufpool
from . import fastpath as _fastpath
from . import validation as _validation
from .dependence import DependenceSpec, Interval

if TYPE_CHECKING:  # pragma: no cover
    from . import bufpool
from .kernels import Kernel
from .types import DependenceType, KernelType

DEFAULT_SEED = 12345

#: Bound once: an ``Enum`` member read off its class costs ~0.1 µs.
_EMPTY = KernelType.EMPTY


@dataclass(frozen=True)
class TaskGraph:
    """A parameterized task graph (Table 1 of the paper).

    Attributes
    ----------
    timesteps:
        Height of the graph: number of timesteps (vertical axis).
    max_width:
        Width of the graph: degree of parallelism (horizontal axis).
    dependence:
        Dependence relation between consecutive timesteps.
    radix:
        Dependencies per task for the parameterized patterns.
    period:
        Repetition period of the random pattern (``-1``: never repeats).
    fraction_connected:
        Edge probability for the random pattern.
    kernel:
        Work performed by each task.
    output_bytes_per_task:
        Bytes produced by each task and communicated along every dependence
        edge (degree of communication).
    scratch_bytes_per_task:
        Total working-set size of the memory-bound kernel, per column.
    graph_index:
        Index of this graph when several graphs execute concurrently.
    seed:
        Seed for deterministic pseudo-randomness (random edges, imbalance).
    """

    timesteps: int
    max_width: int
    dependence: DependenceType = DependenceType.TRIVIAL
    radix: int = 3
    period: int = -1
    fraction_connected: float = 0.25
    kernel: Kernel = field(default_factory=Kernel)
    output_bytes_per_task: int = 16
    scratch_bytes_per_task: int = 0
    graph_index: int = 0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if self.max_width < 1:
            raise ValueError(f"max_width must be >= 1, got {self.max_width}")
        if self.output_bytes_per_task < 0:
            raise ValueError(
                f"output_bytes_per_task must be >= 0, got {self.output_bytes_per_task}"
            )
        if self.scratch_bytes_per_task < 0:
            raise ValueError(
                f"scratch_bytes_per_task must be >= 0, got {self.scratch_bytes_per_task}"
            )
        if (
            self.kernel.kernel_type is KernelType.MEMORY_BOUND
            and self.scratch_bytes_per_task < 2
        ):
            raise ValueError(
                "memory_bound kernel requires scratch_bytes_per_task >= 2"
            )

    # ------------------------------------------------------------------
    # Shape / dependence queries (delegated to the dependence relation)
    # ------------------------------------------------------------------
    @cached_property
    def spec(self) -> DependenceSpec:
        """The dependence relation object for this graph."""
        return DependenceSpec(
            self.dependence,
            self.max_width,
            self.timesteps,
            radix=self.radix,
            period=self.period,
            fraction=self.fraction_connected,
            seed=self.seed,
        )

    @cached_property
    def _table(self) -> "_fastpath.DependenceTable":
        """Compiled dependence table (shared process-wide per parameter
        set): every dependence query below is answered from it."""
        return _fastpath.table_for(self.spec)

    def offset_at_timestep(self, t: int) -> int:
        """First active column at timestep ``t``."""
        return self.spec.offset_at_timestep(t)

    def width_at_timestep(self, t: int) -> int:
        """Number of active columns at timestep ``t``."""
        return self.spec.width_at_timestep(t)

    def contains_point(self, t: int, i: int) -> bool:
        """Whether task ``(t, i)`` exists."""
        return self.spec.contains_point(t, i)

    def dependencies(self, t: int, i: int) -> List[Interval]:
        """Intervals of columns at ``t - 1`` that task ``(t, i)`` reads."""
        return self._table.dependencies(t, i)

    def reverse_dependencies(self, t: int, i: int) -> List[Interval]:
        """Intervals of columns at ``t + 1`` that read task ``(t, i)``."""
        return self._table.reverse_dependencies(t, i)

    def dependency_points(self, t: int, i: int) -> Iterator[int]:
        """Columns at ``t - 1`` read by ``(t, i)``, ascending.  This is the
        canonical input order expected by :meth:`execute_point`."""
        return iter(self._table.dependency_columns(t, i))

    def reverse_dependency_points(self, t: int, i: int) -> Iterator[int]:
        """Columns at ``t + 1`` that read ``(t, i)``, ascending."""
        return iter(self._table.reverse_dependency_columns(t, i))

    def dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Columns at ``t - 1`` read by ``(t, i)`` as an ascending tuple.

        The tuple is compiled once per (dependence-set id, column) and
        shared by every timestep in the equivalence class, so hot
        gather/validation loops avoid re-walking intervals per task.
        """
        return self._table.dependency_columns(t, i)

    def reverse_dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Columns at ``t + 1`` that read ``(t, i)`` as an ascending tuple."""
        return self._table.reverse_dependency_columns(t, i)

    def num_dependencies(self, t: int, i: int) -> int:
        """Number of inputs of task ``(t, i)``."""
        return self._table.num_dependencies(t, i)

    def dependency_count_row(self, t: int) -> Tuple[int, Sequence[int]]:
        """``(offset, per-column input counts)`` for all tasks at ``t``.

        The bulk twin of :meth:`num_dependencies` used by scheduler
        initialization: the whole row is served from one compiled
        structure.  The returned sequence may be shared — callers must not
        mutate it.
        """
        return self._table.row_task_counts(t)

    def consumer_count(self, t: int, i: int) -> int:
        """Number of tasks at ``t + 1`` that read the output of ``(t, i)``."""
        return self._table.consumer_count(t, i)

    def row_plan(self, t: int) -> "_fastpath.RowPlan":
        """The compiled plan of timestep ``t``: window, per-column
        dependency tuples and their CSR flattening, dependency and consumer
        counts (see :class:`~repro.core.fastpath.RowPlan`).  Shared — callers
        must not mutate it."""
        return self._table.row_plan(t)

    def tile_plan(self, t0: int) -> "_fastpath.TilePlan":
        """The compiled tile of rows from ``t0`` on (see
        :class:`~repro.core.fastpath.TilePlan`): as many rows as hold
        ``fastpath._BATCH`` tasks and ``validation._BULK_BYTES`` of inputs,
        at least one.  For a graph whose row is one block
        (:func:`~repro.core.validation.tiles`).  Shared — callers must not
        mutate it."""
        return self._table.tile_plan(
            t0, _validation._BULK_BYTES // self.output_bytes_per_task,
            self.graph_index)

    def max_dependencies(self) -> int:
        """Upper bound on inputs of any task (receive-buffer sizing)."""
        return self.spec.max_dependencies()

    def points(self) -> Iterator[Tuple[int, int]]:
        """Iterate all ``(t, i)`` points in timestep-major order."""
        for t in range(self.timesteps):
            off = self.offset_at_timestep(t)
            for i in range(off, off + self.width_at_timestep(t)):
                yield (t, i)

    # ------------------------------------------------------------------
    # Whole-graph accounting
    # ------------------------------------------------------------------
    def total_tasks(self) -> int:
        """Number of tasks in the graph."""
        return self._table.totals()[0]

    def total_dependencies(self) -> int:
        """Number of dependence edges in the graph."""
        return self._table.totals()[1]

    def total_flops(self) -> int:
        """Useful FLOPs executed by the whole graph (imbalance-aware)."""
        k = self.kernel
        if k.kernel_type in (KernelType.COMPUTE_BOUND, KernelType.COMPUTE_BOUND2):
            return self.total_tasks() * k.flops_per_task()
        if k.kernel_type is KernelType.LOAD_IMBALANCE:
            return sum(k.flops_per_task(t, i, self.seed) for t, i in self.points())
        return 0

    def total_bytes(self) -> int:
        """Bytes moved by the memory kernel over the whole graph."""
        return self.total_tasks() * self.kernel.bytes_per_task()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def prepare_scratch(self) -> np.ndarray:
        """Allocate and initialize one column's scratch buffer."""
        return np.zeros(self.scratch_bytes_per_task, dtype=np.uint8)

    def execute_point(
        self,
        t: int,
        i: int,
        inputs: Sequence["bufpool.Payload"],
        scratch: np.ndarray | None = None,
        *,
        validate: bool = True,
        out: "bufpool.Payload | None" = None,
    ) -> "bufpool.Payload":
        """Execute task ``(t, i)``: validate inputs, run the kernel, and
        return the task's output buffer.

        ``inputs`` must contain the outputs of the task's dependencies in
        canonical (ascending-column) order, i.e. the order produced by
        :meth:`dependency_points`.  Each input may be a raw ``np.ndarray``
        or a :class:`~repro.core.bufpool.PayloadRef` handle into a buffer
        pool; handles are resolved (and their generation tags verified)
        before validation, so pooled executors ship only handles between
        address spaces.  Every Task Bench runtime shim calls this single
        entry point, which is what makes implementations comparable (paper
        §2: "the core library ... ensures the kernels are identical in all
        systems").

        When ``out`` is given (an array or pool handle of exactly
        ``output_bytes_per_task`` bytes), the output pattern is written into
        it in place and ``out`` itself is returned — the zero-copy output
        path.  Otherwise a fresh array is returned as before.
        """
        as_array = _bufpool.as_array
        resolved = [x if type(x) is np.ndarray else as_array(x)
                    for x in inputs]
        if validate:
            _validation.validate_inputs(self, t, i, resolved)
        kernel = self.kernel
        if kernel.kernel_type is not _EMPTY:
            kernel.execute(t, i, scratch=scratch, seed=self.seed)
        return _validation.task_outputs(
            self, t, i, i + 1, None if out is None else (out,))[0]

    def execute_row(
        self,
        t: int,
        lo: int,
        hi: int,
        inputs: Sequence["bufpool.Payload"],
        *,
        scratch: "np.ndarray | Sequence[np.ndarray | None] | None",
        validate: bool,
        out: Sequence["bufpool.Payload"] | None = None,
        plan: "_fastpath.RowPlan | None" = None,
    ) -> Sequence["bufpool.Payload"]:
        """Execute tasks ``(t, lo) .. (t, hi - 1)`` — a contiguous column
        block of one timestep — and return their outputs in column order.

        The row form of :meth:`execute_point` for executors that own column
        blocks: same validation, same kernels, same output bytes, paid once
        per block instead of once per task.  ``inputs`` is the tasks'
        canonical input lists laid end to end, i.e. the outputs of row
        ``t - 1`` at ``row_plan(t).flat[starts[lo - off]:starts[hi - off]]``
        — a list, or one array with an input per row (what ``take`` with
        ``row_plan(t).index`` makes of a previous row kept as a block);
        validation compares the whole block in one pass, an array where it
        lies, and walks it task by task only to name the offender (see
        :func:`~repro.core.validation.validate_row`).  ``scratch`` is one
        buffer for every task, or one per task of the block.

        The outputs of a block of several tasks and at most
        ``validation._BULK_BYTES`` are **one** fresh ``(hi - lo, nbytes)``
        ``uint8`` array, the unit a block owner keeps, gathers from and
        ships; a larger block, or a single task, is a list of a fresh array
        per task.  Either way the result has a ``len`` and is indexed and
        iterated task by task — and nothing else: a block has no truth value
        and ``+`` adds its bytes.  A per-task view of a block (what indexing
        it gives a sink, a rank's delivery, a per-task store) keeps the
        whole block alive.  ``out``, when given, holds exactly one
        destination (array or pool handle) per task and is returned — a
        block owner may pass the buffers of the row before last, which
        nothing reads any more, so whoever keeps an output past the start of
        the row after next must copy it.

        Handles among ``inputs`` are resolved (and their generation tags
        verified) only when validating: nothing else reads them.

        ``plan`` is ``row_plan(t)`` when the caller already holds it (it
        gathered with it), saving a second lookup.  A warm block is done
        here: the inputs, one C-contiguous array of the planned count, are
        compared with the block the memo files under ``plan.token`` and
        ``t``, and the outputs are a copy of the block under ``~plan.token``
        — keys only the table's own plans are ever stamped under, so a stale
        plan misses rather than passes.  Anything else goes to
        :func:`~repro.core.validation.validate_row` and
        :func:`~repro.core.validation.task_outputs`.
        """
        plan = plan or self._table.row_plan(t)
        off = plan.off
        if not off <= lo <= hi <= off + plan.width:
            self.spec._check_point(t, lo)
            self.spec._check_point(t, hi - 1)
            raise IndexError(f"reversed column block [{lo}, {hi})")
        memo, token = _validation._memo, plan.token
        gidx, nbytes = self.graph_index, self.output_bytes_per_task
        if validate:
            starts = plan.starts
            if not (type(inputs) is np.ndarray
                    and len(inputs) == starts[hi - off] - starts[lo - off]
                    and inputs.flags.c_contiguous
                    and (expected := memo.get(
                        (token, t, lo, hi, gidx, nbytes))) is not None
                    and expected == inputs):
                _validation.validate_row(self, t, plan, lo, hi, inputs)
        kernel = self.kernel
        traced = _trace.enabled
        if traced or kernel.kernel_type is not _EMPTY:
            shared = scratch is None or type(scratch) is np.ndarray
            for i in range(lo, hi):
                t0 = _trace.begin() if traced else 0
                kernel.execute(
                    t, i, scratch=scratch if shared else scratch[i - lo],
                    seed=self.seed,
                )
                if traced:
                    _trace.complete(
                        "task", _trace.CAT_KERNEL, t0,
                        {"task": (gidx, t, i)},
                    )
        if out is None and (block := memo.get(
                (~token, t, lo, hi, gidx, nbytes))) is not None:
            return block.copy()
        return _validation.task_outputs(self, t, lo, hi, out)

    def execute_tile(
        self,
        tile: "_fastpath.TilePlan",
        prev: np.ndarray,
        *,
        scratch: "np.ndarray | Sequence[np.ndarray | None] | None",
        validate: bool,
    ) -> np.ndarray:
        """Execute every task of rows ``[tile.t0, tile.t1)`` — ``tile`` is
        ``tile_plan(t0)`` — and return the tile's buffer: ``prev``, the
        outputs of row ``t0 - 1`` as one ``(width, nbytes)`` block (no rows
        at ``t0 == 0``), followed by every output of the tile, one task a
        row; row ``t0 + r`` is ``buf[tile.at[r + 1]:tile.at[r + 2]]``, and
        the last row is the next tile's ``prev``.

        The stack of rows form of :meth:`execute_row` for an owner of every
        column: same validation, same kernels, same output bytes, with the
        bookkeeping paid once per tile.  The buffer is one copy of ``prev``
        and the tile's memoised output block; every input of the tile is one
        ``take`` of it with ``tile.index``, compared, before any kernel
        runs, with the expected inputs of the whole tile by one ``memcmp``
        (:func:`~repro.core.validation.validate_tile`, which stamps what
        the memo lacks and walks a mismatch row by row through
        ``validate_row``, naming the offender as ``execute_point`` would).
        Then each task's kernel runs in program order with its own ``(t,
        i)`` and ``scratch`` — one buffer for every task, or one per column
        (indexed by column).
        """
        if len(prev) != tile.at[1]:
            raise ValueError(
                f"tile [{tile.t0}, {tile.t1}) of graph {self.graph_index} "
                f"reads a row of {tile.at[1]} outputs but was handed {len(prev)}")
        memo = _validation._memo
        gidx, nbytes = self.graph_index, self.output_bytes_per_task
        block = memo.get((~tile.token, gidx, nbytes))
        if block is None:
            block = _validation.tile_block(self, tile)
        buf = np.concatenate((prev, block))
        if validate:
            inputs = buf.take(tile.index, 0)
            expected = memo.get((tile.token, gidx, nbytes))
            if expected is None or not expected == inputs:
                _validation.validate_tile(self, tile, inputs)
        kernel = self.kernel
        traced = _trace.enabled
        if traced or kernel.kernel_type is not _EMPTY:
            shared = scratch is None or type(scratch) is np.ndarray
            for t, lo, hi, _, _ in tile.rows():
                for i in range(lo, hi):
                    began = _trace.begin() if traced else 0
                    kernel.execute(t, i, scratch=scratch if shared else scratch[i],
                                   seed=self.seed)
                    if traced:
                        _trace.complete("task", _trace.CAT_KERNEL, began,
                                        {"task": (gidx, t, i)})
        return buf

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_(self, **changes) -> "TaskGraph":
        """Return a copy of this graph with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary of the graph configuration."""
        k = self.kernel
        return (
            f"graph {self.graph_index}: {self.timesteps}x{self.max_width} "
            f"{self.dependence.value} (radix={self.radix}) "
            f"kernel={k.kernel_type.value} iter={k.iterations} "
            f"output={self.output_bytes_per_task}B scratch={self.scratch_bytes_per_task}B"
        )
