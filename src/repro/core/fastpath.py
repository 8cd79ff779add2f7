"""Precompiled dependence tables: how the core library answers dependence
queries.

Computed per call, Python interval math would be the hottest non-kernel
code in the harness: every ``run_point`` needs a task's forward
dependencies (gather + validation), every ``OutputStore.put`` its reverse
dependencies (consumer counting), and schedulers need both again when
wiring completion notifications.  The paper's C++ core library pays
little for this, and here the cost is avoided because dependence relations
are *periodic*: ``dependence_set_at_timestep(t)`` assigns every timestep
an equivalence-class id, and two timesteps with the same id have identical
dependencies for every column and the same active window (see
``DependenceSpec.max_dependence_sets``).  There are at most
``max_dependence_sets()`` distinct structures — one for most patterns, a
handful for FFT/tree/spread, one per timestep for ``random_nearest`` —
regardless of graph height.

:class:`DependenceTable` keeps one entry per distinct structure, under the
first timestep that exhibits it (``DependenceSpec.dependence_set_cycle``
gets there from any timestep with one comparison and one modulo), so a
graph of a million timesteps of a stencil holds what a graph of three
does.  An entry is a pair of :class:`_Rel`: the *forward* structure of
consumer timestep ``u`` — per column, the ascending tuple of columns read
at ``u - 1`` — and the *reverse* structure of ``u - 1`` — per column, the
columns of ``u`` that read it.  The second is the transpose of the first,
so each edge is decided once.

A miss compiles a **batch**: the missing entries of as many consecutive
timesteps as hold ``_BATCH`` tasks, from one
``DependenceSpec.dependency_columns_batch`` call — which is what makes the
never-repeating ``random_nearest`` cheap to set up: its edges are hashed by
four ``_splitmix64`` calls per batch instead of four per candidate edge.
The table computes nothing about dependencies itself; agreement with the
scalar ``dependencies()`` / ``reverse_dependencies()`` is what the property
tests check of the bulk query.

On top of the pairs sits the :class:`RowPlan`: everything an executor that
owns a contiguous column block needs to run a whole timestep row — the
row's window, every task's dependency columns and their CSR flattening, and
both sides of the reference count (reads of the previous row, consumers in
the next) — built once per distinct (forward, reverse) combination and
cached the same way.  :meth:`TaskGraph.execute_row` runs a block of a row
from it with one input count check, one bulk comparison and one output
stamp.

Both caches are bounded by ``_MAX_SETS`` entries, evicted first in, first
out (only ``random_nearest`` with ``period=-1`` on a graph taller than that
ever evicts; what it recompiles is equal to what it dropped).  Hits are
lock-free ``dict.get`` probes; every insert and eviction happens under the
table's lock.

Every :class:`~repro.core.task_graph.TaskGraph` dependence query is served
from its table; :mod:`repro.core.dependence` is what tables are compiled
*from* and the oracle the property tests compare them against.  The
*forward* structure is only consulted for ``1 <= t``, the reverse one for
``t < height - 1``; boundary timesteps (and out-of-range points, for the
canonical error) go to the spec directly.

Module-level ``counters()`` expose how many lookups were served from
compiled structures (*hits*) and how many structures were compiled
(*compiles*: two per entry, one per direction); executors fold the per-run
delta into :class:`~repro.core.metrics.DataPlaneStats` under ``--report``.
Counter increments are plain int updates (no lock): they are statistics,
and the occasional lost increment under free-running threads is acceptable.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from .dependence import DependenceSpec, Interval, count_points, merge_intervals

__all__ = [
    "DependenceTable",
    "RowPlan",
    "table_for",
    "counters",
    "reset_counters",
]

#: Cap on the structures (and on the row plans) cached per table.
#: ``random_nearest`` with ``period=-1`` never repeats, so its set count
#: equals the graph height; beyond the cap the oldest entries are evicted
#: (plain FIFO) so unbounded graphs cannot exhaust memory.
_MAX_SETS = 1024

#: Tasks per compile: a miss compiles the missing structures of
#: ``_BATCH // width`` consecutive timesteps (at least one) in one bulk
#: query.  Counted in tasks, not timesteps, so that what a single lookup can
#: cost, in time and in memory, does not grow with the graph's width.
_BATCH = 512

_hits: int = 0
_compiles: int = 0


def counters() -> Tuple[int, int]:
    """``(hits, compiles)`` accumulated by this process since the last reset."""
    return _hits, _compiles


def reset_counters() -> None:
    global _hits, _compiles
    _hits = 0
    _compiles = 0


class _Rel:
    """One compiled dependence structure, one direction: the window of its
    timestep and, per local column ``k = i - off``, the ascending tuple of
    columns on the other side of its edges and how many there are."""

    __slots__ = ("off", "width", "cols", "counts")

    def __init__(self, off: int, cols: Sequence[Sequence[int]]) -> None:
        self.off = off
        self.width = len(cols)
        self.cols = tuple(map(tuple, cols))
        self.counts: List[int] = [len(c) for c in cols]


class RowPlan:
    """One timestep row, compiled: what a block-owning executor needs to
    gather, validate, run and publish every task of the row at once.

    ``off``/``width``
        the row's active window.
    ``deps[k]``
        ascending columns at ``t - 1`` read by local column ``k`` (the
        tuples of :meth:`DependenceTable.dependency_columns`).
    ``flat`` / ``starts``
        CSR flattening of ``deps``: the inputs of local columns ``[a, b)``
        are ``flat[starts[a]:starts[b]]``.  ``flat`` holds positions *in the
        previous row* (column minus that row's offset), so a previous row
        kept as a plain list gathers with ``[row[j] for j in plan.flat]``.
    ``counts[k]`` / ``consumers[k]``
        how many inputs local column ``k`` reads, and how many tasks of row
        ``t + 1`` read its output.
    ``reads[j]``
        how many tasks of this row read position ``j`` of the previous row.
        Counted from the forward relation, where ``consumers`` comes from
        the reverse one: ``plan(t).reads == plan(t - 1).consumers`` is the
        drained-store invariant of a run, checked per row.
    """

    __slots__ = ("off", "width", "deps", "flat", "starts", "counts",
                 "consumers", "reads", "_cols")

    def __init__(self, off: int, width: int, deps: Tuple[Tuple[int, ...], ...],
                 prev_off: int, prev_width: int, consumers: List[int]) -> None:
        self.off = off
        self.width = width
        self.deps = deps
        self.flat: List[int] = [j - prev_off for cols in deps for j in cols]
        self.counts: List[int] = [len(cols) for cols in deps]
        self.starts: List[int] = [0]
        for n in self.counts:
            self.starts.append(self.starts[-1] + n)
        self.consumers = consumers
        self.reads: List[int] = [0] * prev_width
        for j in self.flat:
            self.reads[j] += 1
        self._cols: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def columns(self, lo: int, hi: int) -> Tuple[int, ...]:
        """Producer columns of every input of columns ``[lo, hi)``, in
        gather order, as one shared tuple (the key of the row's expected
        block)."""
        cols = self._cols.get((lo, hi))
        if cols is None:
            cols = tuple(j for k in range(lo - self.off, hi - self.off)
                         for j in self.deps[k])
            self._cols[(lo, hi)] = cols
        return cols


def _fifo_insert(cache: Dict[Any, Any], key: Any, value: Any) -> Any:
    """Insert into a cache bounded by ``_MAX_SETS``, evicting the oldest
    entries first.  The caller holds the table's lock."""
    while len(cache) >= _MAX_SETS:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


class DependenceTable:
    """O(1) dependence queries for one :class:`DependenceSpec`, compiled
    lazily, a batch of dependence sets at a time.

    ``_sets[u]`` is the ``(forward, reverse)`` pair of consumer timestep
    ``u >= 1``, the first timestep with its set id: the edges entering ``u``
    as ``u`` reads them and as ``u - 1`` is read.  The edges *leaving* a
    timestep ``t`` are therefore found under ``t + 1``: their structure —
    including the producer window at ``t`` — is determined by the consumer
    timestep's equivalence class (for the tree pattern, an expanding set id
    pins the exact timestep; every steady timestep has the full-width
    window).
    """

    def __init__(self, spec: DependenceSpec) -> None:
        self.spec = spec
        self._last = spec.height - 1
        self._lead, self._cycle = spec.dependence_set_cycle()
        self._sets: Dict[int, Tuple[_Rel, _Rel]] = {}
        # Row plans, under the first timestep with the same set ids on both
        # sides (the first and the last row under their own: one has no
        # inputs and the other no consumers, whatever their set ids say).
        self._plans: Dict[int, RowPlan] = {}
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
    # Structure lookup / lazy compilation
    # ------------------------------------------------------------------
    def _pair(self, u: int) -> Tuple[_Rel, _Rel]:
        """The compiled pair of consumer timestep ``u``
        (``1 <= u < height``): one lock-free probe unless it is missing."""
        global _hits
        lead = self._lead
        key = u if u < lead else lead + (u - lead) % self._cycle
        pair = self._sets.get(key)
        if pair is None:
            return self._compile(key)
        _hits += 1
        return pair

    def _compile(self, key: int) -> Tuple[_Rel, _Rel]:
        """Compile the pair filed under timestep ``key`` and, from the same
        bulk query, those of the timesteps after it — as far as the batch,
        the graph, the distinct set ids and the missing entries go."""
        global _hits, _compiles
        spec = self.spec
        with self._lock:
            pair = self._sets.get(key)
            if pair is not None:  # compiled while this thread waited
                _hits += 1
                return pair
            stop = min(key + max(1, _BATCH // spec.width), spec.height,
                       self._lead + self._cycle)
            end = key + 1
            while end < stop and end not in self._sets:
                end += 1
            pairs = []
            for u, deps in enumerate(spec.dependency_columns_batch(key, end),
                                     key):
                off, before = (spec.offset_at_timestep(u),
                               spec.offset_at_timestep(u - 1))
                readers: List[List[int]] = [
                    [] for _ in range(spec.width_at_timestep(u - 1))]
                for i, cols in enumerate(deps, off):
                    for j in cols:
                        readers[j - before].append(i)
                pairs.append(_fifo_insert(self._sets, u, (
                    _Rel(off, deps), _Rel(before, readers))))
            _compiles += 2 * len(pairs)
        return pairs[0]

    def row_plan(self, t: int) -> RowPlan:
        """The compiled :class:`RowPlan` of timestep ``t`` (shared by every
        timestep with the same structures; callers must not mutate it)."""
        global _hits
        last = self._last
        lead = self._lead
        if lead <= t < last:
            key = lead + (t - lead) % self._cycle
        else:
            if not 0 <= t <= last:
                self.spec._check_timestep(t)  # raises: a key could hit
            key = t
        plan = self._plans.get(key)
        if plan is not None:
            _hits += 1
            return plan
        spec = self.spec
        off, width = spec.offset_at_timestep(t), spec.width_at_timestep(t)
        deps: Tuple[Tuple[int, ...], ...] = ((),) * width
        prev_off = prev_width = 0
        if t > 0:
            fwd, prev = self._pair(t)
            deps, prev_off, prev_width = fwd.cols, prev.off, prev.width
        plan = RowPlan(
            off, width, deps, prev_off, prev_width,
            self._pair(t + 1)[1].counts if t < last else [0] * width)
        with self._lock:  # two threads may have built it: the first stays
            return self._plans.get(key) or _fifo_insert(self._plans, key, plan)

    def totals(self) -> Tuple[int, int]:
        """``(tasks, dependence edges)`` of the whole graph, summed over its
        row plans once per table."""
        totals = self._totals
        if totals is None:
            plans = [self.row_plan(t) for t in range(self.spec.height)]
            totals = self._totals = (
                sum(p.width for p in plans), sum(p.starts[-1] for p in plans)
            )
        return totals

    def _local(self, rel: _Rel, t: int, i: int) -> int:
        k = i - rel.off
        if not 0 <= k < rel.width:
            self.spec._check_point(t, i)  # raises IndexError with the
            raise AssertionError("unreachable")  # canonical message
        return k

    # ------------------------------------------------------------------
    # Queries (same semantics as DependenceSpec / TaskGraph)
    # ------------------------------------------------------------------
    def dependencies(self, t: int, i: int) -> List[Interval]:
        if not 0 < t <= self._last:
            return self.spec.dependencies(t, i)  # boundary / error path
        rel = self._pair(t)[0]
        return merge_intervals(rel.cols[self._local(rel, t, i)])

    def reverse_dependencies(self, t: int, i: int) -> List[Interval]:
        if not 0 <= t < self._last:
            return self.spec.reverse_dependencies(t, i)
        rel = self._pair(t + 1)[1]
        return merge_intervals(rel.cols[self._local(rel, t, i)])

    def dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Ascending columns at ``t - 1`` read by ``(t, i)`` as a shared
        tuple (the canonical gather/validation order)."""
        if not 0 < t <= self._last:
            return tuple(self.spec.dependency_points(t, i))
        rel = self._pair(t)[0]
        # The window test is inlined here and below, not left to ``_local``:
        # these run several times per task in every task-by-task executor.
        k = i - rel.off
        if 0 <= k < rel.width:
            return rel.cols[k]
        return rel.cols[self._local(rel, t, i)]

    def reverse_dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Ascending columns at ``t + 1`` that read ``(t, i)``, shared."""
        if not 0 <= t < self._last:
            return tuple(self.spec.reverse_dependency_points(t, i))
        rel = self._pair(t + 1)[1]
        k = i - rel.off
        if 0 <= k < rel.width:
            return rel.cols[k]
        return rel.cols[self._local(rel, t, i)]

    def num_dependencies(self, t: int, i: int) -> int:
        if not 0 < t <= self._last:
            return self.spec.num_dependencies(t, i)
        rel = self._pair(t)[0]
        k = i - rel.off
        if 0 <= k < rel.width:
            return rel.counts[k]
        return rel.counts[self._local(rel, t, i)]

    def row_task_counts(self, t: int) -> Tuple[int, List[int]]:
        """``(offset, per-column dependency counts)`` for every task at
        timestep ``t`` — the bulk form scheduler initialization uses (one
        lookup per timestep instead of one query per task).  The returned
        list is the compiled structure's own; callers must not mutate it.
        """
        spec = self.spec
        if not 0 < t <= self._last:
            # The first timestep has no inputs regardless of its set id.
            return spec.offset_at_timestep(t), [0] * spec.width_at_timestep(t)
        rel = self._pair(t)[0]
        return rel.off, rel.counts

    def consumer_count(self, t: int, i: int) -> int:
        """How many tasks at ``t + 1`` read the output of ``(t, i)``."""
        if not 0 <= t < self._last:
            return count_points(self.spec.reverse_dependencies(t, i))
        rel = self._pair(t + 1)[1]
        k = i - rel.off
        if 0 <= k < rel.width:
            return rel.counts[k]
        return rel.counts[self._local(rel, t, i)]


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
