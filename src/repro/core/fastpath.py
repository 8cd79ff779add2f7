"""Compiled rows: how the core library answers dependence queries.

Computed per call, Python interval math would be the hottest non-kernel
code in the harness: every task needs its forward dependencies (gather +
validation), every publish its reverse dependencies (consumer counting),
and schedulers need both again when wiring completion notifications.  The
paper's C++ core library pays little for this, and here the cost is avoided
because dependence relations are *periodic*: ``dependence_set_at_timestep(t)``
assigns every timestep an equivalence-class id, and two timesteps with the
same id have identical dependencies for every column and the same active
window (see ``DependenceSpec.max_dependence_sets``) — one structure for
most patterns, a handful for FFT/tree/spread, one per timestep for
``random_nearest`` — regardless of graph height.

**The row is the compiled form.**  :class:`DependenceTable` keeps one
:class:`RowPlan` per distinct timestep row, under the first timestep that
exhibits it (``DependenceSpec.dependence_set_cycle`` gets there from any
timestep with one comparison and one modulo), so a graph of a million
timesteps of a stencil holds what a graph of three does: the first row, the
steady one and the last (its class's plan with nobody reading it).  A plan
is everything an executor that owns a contiguous column block needs to run
a whole timestep row — the window, the CSR of every task's inputs as
positions in the previous row, the token its expected blocks are filed
under and both sides of the reference count — and
:meth:`TaskGraph.execute_row` runs a block of a row from it with one input
count check, one bulk comparison and one copy of the output block.

**A stack of rows is a tile.**  An owner of every column runs tiles
(:class:`TilePlan`) — as many consecutive rows as hold ``_BATCH`` tasks and
a given number of inputs — with :meth:`TaskGraph.execute_tile`: one
``take``, one bulk comparison and one copy for the lot.  A tile is cut from
the row plans (its index is theirs, shifted to where each previous row lies
in the tile's buffer; the drained-store invariant between its rows is
checked then) and filed beside them under the same edge budget.

**Arrays are its only source.**  A miss compiles a **batch**: the missing
rows of as many consecutive timesteps as hold ``_BATCH`` tasks, cut with
array operations out of one ``DependenceSpec.dependency_columns_batch`` call
(producer columns + per-task counts, one timestep past the batch: what a row
is read by is what the next one reads) and converted with one ``tolist()``
per field — what is left per row is slicing those lists, never a Python
step per edge, which is what makes the never-repeating ``random_nearest``
cheap to set up (and a batch large: the array pass costs per call what it
costs per thousand candidate edges).  The table computes
nothing about dependencies itself; agreement with the scalar
``dependencies()`` / ``reverse_dependencies()`` is what the property tests
check of every field.

**Each edge is held once.**  The per-task queries (``dependency_columns``,
``consumer_count``, ...) read the same plans; the two per-task views — every
column's dependency tuple (:attr:`RowPlan.deps`) and its transpose
(:attr:`RowPlan.readers`) — are derived from a plan the first time a
task-by-task executor asks and kept on it, as is the index array
(:attr:`RowPlan.index`) a block owner gathers a row with.

**Bounded by what it holds.**  The plans of a table are budgeted in edges
(``_MAX_EDGES``; a task counts as one more), not in entries, so a wide
graph keeps few rows and a narrow one many, and evicted oldest first
(:class:`Bounded`): a sweep over a graph that does not fit misses on every
row under any order, and the oldest is the one found without bookkeeping on
a hit.  Only ``random_nearest`` with ``period=-1`` ever evicts; what it
recompiles is equal to what it dropped.  Hits are lock-free ``dict.get``
probes; every insert and eviction happens under the table's lock.

:mod:`repro.core.dependence` is what rows are compiled *from* and the
oracle the property tests compare them against; out-of-range points go to
the spec for the canonical error.

Module-level ``counters()`` expose how many lookups were served from
compiled rows and tiles (*hits*) and how many structures were compiled
(*compiles*: two per row that has inputs, the edges as it reads them and as
the row before is read, and one per tile); executors fold the per-run delta
into :class:`~repro.core.metrics.DataPlaneStats` under ``--report``.
Counter increments are plain int updates (no lock): they are statistics,
and the occasional lost increment under free-running threads is acceptable.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import accumulate, chain, count, pairwise
from typing import Any, Deque, Dict, Iterator, List, Tuple

import numpy as np

from .dependence import DependenceSpec, Interval, merge_intervals

#: What the row plans of one table may hold, in dependence edges plus tasks
#: (an edgeless row still holds its per-task fields): about 20 MB of lists
#: at worst.  ``random_nearest`` with ``period=-1`` never repeats, so it has
#: as many plans as timesteps: an 8-wide one keeps 3,600 rows at any radix,
#: a 4,096-wide one a few dozen.
_MAX_EDGES = 1 << 18

#: Tasks per compile: a miss compiles the missing rows of ``_BATCH // width``
#: consecutive timesteps (at least one) from one bulk query.  Counted in
#: tasks, not timesteps, so that what a single lookup can cost, in time and
#: in memory, does not grow with the graph's width.
_BATCH = 2048

_hits: int = 0
_compiles: int = 0
_tokens = count()  # ``next`` is one C call: atomic under the GIL


def counters() -> Tuple[int, int]:
    """``(hits, compiles)`` accumulated by this process since the last reset."""
    return _hits, _compiles


def reset_counters() -> None:
    global _hits, _compiles
    _hits = 0
    _compiles = 0


class Bounded(Dict[Any, Any]):
    """A ``dict`` bounded by what its values cost (each what :meth:`add` was
    told, summed in ``held``, at most ``budget``), evicting the oldest
    entries first.  Which is oldest comes off a queue of keys in O(1):
    ``next(iter(d))`` walks every slot emptied before it.  Lookups are plain
    lock-free ``dict`` probes; :meth:`add` is called under the owner's
    lock, and entries leave by eviction only."""

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget = budget
        self.held = 0
        self._oldest: Deque[Tuple[Any, int]] = deque()

    def add(self, key: Any, value: Any, cost: int) -> Any:
        """File ``value`` under ``key`` unless something is there already
        (the first stays) and return what is cached; then evict down to the
        budget, sparing the newest entry whatever it costs."""
        kept = self.setdefault(key, value)
        if kept is value:
            self._oldest.append((key, cost))
            self.held += cost
            while self.held > self.budget and len(self) > 1:
                key, cost = self._oldest.popleft()
                del self[key]
                self.held -= cost
        return kept

    def clear(self) -> None:
        """Drop every entry, and with them the queue and the count: what
        ``dict.clear`` alone leaves would evict keys that are gone."""
        super().clear()
        self._oldest.clear()
        self.held = 0


@dataclass(eq=False)
class RowPlan:
    """One timestep row, compiled: what a block-owning executor needs to
    gather, validate, run and publish every task of the row at once.

    ``off``/``width``
        the row's active window; ``prev_off`` is the previous row's offset.
    ``flat`` / ``starts``
        CSR of every task's inputs: those of local columns ``[a, b)`` are
        ``flat[starts[a]:starts[b]]``.  ``flat`` holds positions *in the
        previous row* (column minus that row's offset), so a previous row
        kept as a plain list gathers with ``[row[j] for j in plan.flat]``
        and one kept as a block with ``row.take(plan.index, 0)``.
    ``counts[k]`` / ``consumers[k]``
        how many inputs local column ``k`` reads, and how many tasks of row
        ``t + 1`` read its output.
    ``reads[j]``
        how many tasks of this row read position ``j`` of the previous row.
        Counted from this row's edges, where ``consumers`` is counted from
        the next row's: ``plan(t).reads == plan(t - 1).consumers`` is the
        drained-store invariant of a run, checked per row.
    ``cols``
        the producer columns themselves, as one tuple: what the row's
        expected block is stamped from.
    ``token``
        a small integer no other plan of this process has (not a field:
        equal plans have different ones), assigned when the plan is made —
        with ``t`` it keys the row's expected blocks in the pattern memo,
        which keying on the plan itself would keep alive after eviction.

    The sequences are plain lists (the warm row loop indexes and compares
    them) and shared: callers must not mutate them.
    """

    # The fields in slots, the views beside them in ``__dict__``: filling
    # that would slow every read of a field that lived there too.
    __slots__ = ("off", "width", "prev_off", "flat", "starts", "counts",
                 "reads", "consumers", "cols", "token", "__dict__")
    off: int
    width: int
    prev_off: int
    flat: List[int]
    starts: List[int]
    counts: List[int]
    reads: List[int]
    consumers: List[int]
    cols: Tuple[int, ...]

    def __post_init__(self) -> None:
        self.token = next(_tokens)

    def columns(self, lo: int, hi: int) -> Tuple[int, ...]:
        """Producer columns of every input of columns ``[lo, hi)``, in
        gather order (what the block's expected bytes are stamped from)."""
        starts = self.starts  # (the whole of a tuple is the tuple itself)
        return self.cols[starts[lo - self.off]:starts[hi - self.off]]

    @cached_property
    def index(self) -> np.ndarray:
        """``flat`` as the index array a previous row kept as one block is
        gathered with."""
        return np.array(self.flat, dtype=np.intp)

    @cached_property
    def deps(self) -> Tuple[Tuple[int, ...], ...]:
        """``deps[k]``: ascending columns at ``t - 1`` read by local column
        ``k`` — the per-task view of ``cols``."""
        return tuple(self.cols[a:b] for a, b in pairwise(self.starts))

    @cached_property
    def readers(self) -> Tuple[Tuple[int, ...], ...]:
        """``readers[j]``: ascending columns of this row that read position
        ``j`` of the previous row — ``deps`` transposed (by a plain loop:
        for one row it beats a stable ``argsort`` at every width)."""
        readers: List[List[int]] = [[] for _ in self.reads]
        for i, cols in enumerate(self.deps, self.off):
            for j in cols:
                readers[j - self.prev_off].append(i)
        return tuple(map(tuple, readers))


@dataclass(eq=False)
class TilePlan:
    """Rows ``[t0, t1)`` of a graph, compiled as one unit: what an owner of
    every column needs to gather, validate and publish a stack of rows with
    one ``take``, one ``memcmp`` and one copy.

    The tile's buffer is the row before it followed by its own rows, end to
    end, one task a row of the buffer: row ``t0 + r`` is ``buf[at[r + 1]:at[r
    + 2]]`` (``at[0] == 0`` is where the row before starts).
    ``index``
        every row's :attr:`RowPlan.index` shifted by where its previous row
        lies in the buffer, laid end to end: ``buf.take(index, 0)`` is every
        input of the tile, row ``t0 + r``'s at ``[starts[r], starts[r + 1])``.
    ``offs`` / ``cols``
        each row's window offset and producer columns (what its expected
        inputs are stamped from).
    ``reads`` / ``consumers``
        the first row's reads and the last row's consumers: the drained-store
        invariant across a tile boundary is ``tile.reads ==
        before.consumers``; inside the tile it was checked when it was built.
    ``token``
        a small integer no other plan of this process has, like
        :attr:`RowPlan.token`: the tile's blocks are filed under it.
    """

    __slots__ = ("t0", "t1", "offs", "at", "starts", "index", "cols",
                 "reads", "consumers", "token")
    t0: int
    t1: int
    offs: List[int]
    at: List[int]
    starts: List[int]
    index: np.ndarray
    cols: List[Tuple[int, ...]]
    reads: List[int]
    consumers: List[int]

    def __post_init__(self) -> None:
        self.token = next(_tokens)

    def rows(self) -> Iterator[Tuple[int, int, int, int, int]]:
        """``(t, lo, hi, a, b)`` for each row of the tile, in order: its
        window ``[lo, hi)``, and ``buf[a:b]`` where it lies in the tile's
        buffer."""
        return ((t, off, off + b - a, a, b) for t, off, (a, b) in zip(
            range(self.t0, self.t1), self.offs, pairwise(self.at[1:])))


def check_reads(where: str, t: int, published: List[int],
                read: List[int]) -> None:
    """The drained-store invariant of row ``t``: each output of row ``t - 1``
    is read exactly as often as it was published for."""
    if read != published:
        raise RuntimeError(
            f"{where}outputs of timestep {t - 1} were published for "
            f"{published} reads but are read {read} times — task outputs "
            "never consumed (or consumed twice)")


class DependenceTable:
    """O(1) dependence queries for one :class:`DependenceSpec`, compiled
    lazily, a batch of rows at a time.

    ``_plans[t]`` is the :class:`RowPlan` of timestep ``t``, the first
    timestep whose row looks like it: the edges entering ``t`` as ``t`` reads
    them, and how often ``t + 1`` reads each of its outputs.  Every timestep
    below ``_stop`` — where the set ids have come round once, or the graph
    ends — is filed under itself, every later one but the last under the
    timestep of the first cycle with its set id (whose successor has the set
    id of its own), and the last row under itself again: nobody reads it,
    whatever its set id says.
    """

    def __init__(self, spec: DependenceSpec) -> None:
        self.spec = spec
        self._last = spec.height - 1
        self._lead, self._cycle = spec.dependence_set_cycle()
        self._stop = min(self._lead + self._cycle, spec.height)
        self._plans = Bounded(_MAX_EDGES)
        self._totals: Tuple[int, int] | None = None
        self._lock = threading.Lock()

    def __reduce__(self):
        # Tables hold a lock and potentially large compiled structures;
        # pickling (e.g. a TaskGraph whose cached ``_table`` was
        # materialized before shipping to a worker) reduces to a fresh
        # lookup in the receiving process's shared cache.
        s = self.spec
        return (_table_cached, (s.dtype, s.width, s.height, s.radix,
                                s.period, s.fraction, s.seed))

    # ------------------------------------------------------------------
    # Row lookup / lazy compilation
    # ------------------------------------------------------------------
    def row_plan(self, t: int) -> RowPlan:
        """The compiled :class:`RowPlan` of timestep ``t`` (shared by every
        timestep with the same structures; callers must not mutate it): one
        lock-free probe unless it is missing."""
        global _hits
        lead = self._lead
        if lead <= t < self._last:
            key = lead + (t - lead) % self._cycle
        else:
            if not 0 <= t <= self._last:
                self.spec._check_timestep(t)  # raises: a key could hit
            key = t
        plan = self._plans.get(key)
        if plan is None:
            return self._compile(key)
        _hits += 1
        return plan

    def _compile(self, key: int) -> RowPlan:
        """Compile the row filed under timestep ``key`` and, out of the same
        bulk query, the rows after it — as far as the batch, the graph, the
        distinct rows and the missing entries go."""
        global _hits, _compiles
        spec, plans = self.spec, self._plans
        if key >= self._stop:  # the last row, of a class compiled before it
            plan = self.row_plan(self._lead + (key - self._lead) % self._cycle)
            plan = replace(plan, consumers=[0] * plan.width)
            with self._lock:
                return plans.add(key, plan, len(plan.flat) + plan.width)
        with self._lock:
            plan = plans.get(key)
            if plan is not None:  # compiled while this thread waited
                _hits += 1
                return plan
            end = key + 1
            stop = min(key + max(1, _BATCH // spec.width), self._stop)
            while end < stop and end not in plans:
                end += 1
            # One timestep past the batch: its reads are the batch's last
            # row's consumers (the graph's last row has neither).  The
            # windows from the row before the batch on: each is the next's
            # previous row.
            steps = range(key - 1, min(end + 1, spec.height))
            csr_cols, csr_counts = spec.dependency_columns_batch(key, end + 1)
            widths = [spec.width_at_timestep(t) if t >= 0 else 0 for t in steps]
            offs = [spec.offset_at_timestep(t) if t >= 0 else 0 for t in steps]
            task_at = [0, *accumulate(widths[1:])]
            prev_at = [0, *accumulate(widths[:-1])]
            per_row = np.add.reduceat(csr_counts, task_at[:-1])  # edges a row
            csr_flat = csr_cols - np.repeat(offs[:-1], per_row)
            csr_reads = np.bincount(
                csr_flat + np.repeat(prev_at[:-1], per_row),
                minlength=prev_at[-1]).tolist()
            cols, flat = tuple(csr_cols.tolist()), csr_flat.tolist()
            counts, edge_at = csr_counts.tolist(), [0, *accumulate(per_row.tolist())]
            reads = [csr_reads[a:b] for a, b in pairwise(prev_at)]
            row_counts = [counts[a:b] for a, b in pairwise(task_at)]
            rows = map(
                RowPlan, offs[1:], widths[1:], offs,
                [flat[a:b] for a, b in pairwise(edge_at)],
                [[0, *accumulate(row)] for row in row_counts], row_counts,
                reads, reads[1:] + [[0] * widths[-1]],
                [cols[a:b] for a, b in pairwise(edge_at)])
            made = [plans.add(t, plan, len(plan.flat) + plan.width)
                    for t, plan in zip(range(key, end), rows)]
            _compiles += 2 * (end - max(key, 1))
        return made[0]

    def tile_plan(self, t0: int, most: int, graph_index: int) -> TilePlan:
        """The compiled :class:`TilePlan` from timestep ``t0`` on: as many
        rows as hold ``_BATCH`` tasks and ``most`` inputs (at least one).
        Filed beside the rows, under ``(t0, most)``, and one lock-free probe
        unless it is missing; ``graph_index`` is who a compile that finds
        the rows' counts disagree names."""
        global _hits
        tile = self._plans.get((t0, most))
        if tile is None:
            return self._compile_tile(t0, most, graph_index)
        _hits += 1
        return tile

    def _compile_tile(self, t0: int, most: int, graph_index: int) -> TilePlan:
        global _compiles
        rows = [self.row_plan(t0)]
        tasks, edges = rows[0].width, len(rows[0].flat)
        for t in range(t0 + 1, self.spec.height):
            plan = self.row_plan(t)
            tasks, edges = tasks + plan.width, edges + len(plan.flat)
            if tasks > _BATCH or edges > most:
                break
            check_reads(f"graph {graph_index}: ", t, rows[-1].consumers,
                        plan.reads)
            rows.append(plan)
        at = [0, *accumulate([len(rows[0].reads)] + [p.width for p in rows])]
        lens = [len(p.flat) for p in rows]
        index = np.fromiter(chain.from_iterable(p.flat for p in rows),
                            np.intp, sum(lens))
        index += np.repeat(at[:-2], lens)
        tile = TilePlan(t0, t0 + len(rows), [p.off for p in rows], at,
                        [0, *accumulate(lens)], index, [p.cols for p in rows],
                        rows[0].reads, rows[-1].consumers)
        with self._lock:
            _compiles += 1
            return self._plans.add((t0, most), tile, len(index) + at[-1])

    def totals(self) -> Tuple[int, int]:
        """``(tasks, dependence edges)`` of the whole graph — the lead, one
        cycle times how often it comes round, and the rest of the last one —
        summed once per table: off the rows that are held, and for the
        others off the bulk query's arrays, compiling nothing."""
        if self._totals is None:
            spec, plans, lead = self.spec, self._plans, self._lead
            step = max(1, _BATCH // spec.width)
            tasks = edges = 0

            def tally(t: int, t1: int, times: int = 1) -> None:
                nonlocal tasks, edges
                while t < t1:
                    plan = plans.get(t)  # below ``_stop``: filed under itself
                    if plan is not None:
                        n, m, t = plan.width, len(plan.flat), t + 1
                    else:
                        cols, counts = spec.dependency_columns_batch(
                            t, min(t + step, t1))
                        n, m, t = len(counts), len(cols), t + step
                    tasks, edges = tasks + times * n, edges + times * m

            rounds, rest = divmod(max(0, spec.height - lead), self._cycle)
            tally(0, min(lead, spec.height))
            tally(lead, lead + self._cycle if rounds else lead, rounds)
            tally(lead, lead + rest)
            self._totals = tasks, edges
        return self._totals

    # ------------------------------------------------------------------
    # Queries (same semantics as DependenceSpec / TaskGraph)
    # ------------------------------------------------------------------
    def dependencies(self, t: int, i: int) -> List[Interval]:
        return merge_intervals(self.dependency_columns(t, i))

    def reverse_dependencies(self, t: int, i: int) -> List[Interval]:
        return merge_intervals(self.reverse_dependency_columns(t, i))

    def dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Ascending columns at ``t - 1`` read by ``(t, i)`` as a shared
        tuple (the canonical gather/validation order)."""
        plan = self.row_plan(t)
        k = i - plan.off
        if not 0 <= k < plan.width:
            self.spec._check_point(t, i)  # raises, with the canonical message
        return plan.deps[k]

    def reverse_dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Ascending columns at ``t + 1`` that read ``(t, i)``, shared."""
        if not 0 <= t < self._last:  # nobody reads the last row
            return tuple(self.spec.reverse_dependency_points(t, i))
        plan = self.row_plan(t + 1)
        k = i - plan.prev_off
        if not 0 <= k < len(plan.reads):
            self.spec._check_point(t, i)  # raises
        return plan.readers[k]

    def num_dependencies(self, t: int, i: int) -> int:
        plan = self.row_plan(t)
        k = i - plan.off
        if not 0 <= k < plan.width:
            self.spec._check_point(t, i)  # raises
        return plan.counts[k]

    def row_task_counts(self, t: int) -> Tuple[int, List[int]]:
        """``(offset, per-column dependency counts)`` for every task at
        timestep ``t`` — the bulk form scheduler initialization uses (one
        lookup per timestep instead of one query per task).  The returned
        list is the compiled row's own; callers must not mutate it.
        """
        plan = self.row_plan(t)
        return plan.off, plan.counts

    def consumer_count(self, t: int, i: int) -> int:
        """How many tasks at ``t + 1`` read the output of ``(t, i)``."""
        plan = self.row_plan(t)
        k = i - plan.off
        if not 0 <= k < plan.width:
            self.spec._check_point(t, i)  # raises
        return plan.consumers[k]


@lru_cache(maxsize=256)
def _table_cached(dtype, width, height, radix, period, fraction, seed) -> DependenceTable:
    return DependenceTable(
        DependenceSpec(dtype, width, height, radix=radix, period=period,
                       fraction=fraction, seed=seed)
    )


def table_for(spec: DependenceSpec) -> DependenceTable:
    """The (process-wide, shared) compiled table for ``spec``'s parameters.

    Keyed by value, not identity, so graph copies — e.g. the pickled graphs
    reconstructed in forked workers, or ``TaskGraph.with_()`` clones that
    keep the same dependence parameters — share one table.
    """
    return _table_cached(spec.dtype, spec.width, spec.height, spec.radix,
                         spec.period, spec.fraction, spec.seed)
