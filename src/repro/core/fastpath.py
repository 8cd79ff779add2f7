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
dependence intervals for every column and the same active window (see
``DependenceSpec.max_dependence_sets``).  There are at most
``max_dependence_sets()`` distinct structures — one for most patterns, a
handful for FFT/tree/spread — regardless of graph height.

:class:`DependenceTable` compiles each distinct structure **once**, on first
touch, directly from the spec at the first timestep that exhibits it — so
agreement with ``dependencies()``/``reverse_dependencies()`` is bit-exact by
construction — and stores it in CSR form as NumPy arrays:

``starts[k] : starts[k+1]``
    slice of ``los``/``his`` holding the closed intervals of local column
    ``k`` (``k = i - offset``),
``counts[k]``
    total number of points covered (the dependency count on the forward
    table, the consumer count on the reverse table).

Subsequent queries for any ``(t, i)`` are O(1) dictionary + array lookups;
flattened column tuples are materialized lazily per (set id, column) and
shared by every timestep in the equivalence class.

On top of the two relations sits the :class:`RowPlan`: everything an
executor that owns a contiguous column block needs to run a whole timestep
row — the row's window, every task's dependency columns and their CSR
flattening, and both sides of the reference count (reads of the previous
row, consumers in the next) — compiled once per distinct (forward, reverse)
structure pair and front-cached by timestep like the relations themselves.
:meth:`TaskGraph.execute_row` runs a block of a row from it with one input
count check, one bulk comparison and one output stamp.

Every :class:`~repro.core.task_graph.TaskGraph` dependence query is served
from its table; :mod:`repro.core.dependence` is what tables are compiled
*from* and the oracle the property tests compare them against.  The
*forward* table is only consulted for ``1 <= t``, the reverse table for
``t < height - 1``; boundary timesteps (and out-of-range points, for the
canonical error) go to the spec directly.

Module-level ``counters()`` expose how many lookups were served from
compiled structures (*hits*) and how many structures were compiled
(*compiles*); executors fold the per-run delta into
:class:`~repro.core.metrics.DataPlaneStats` under ``--report``.  Counter
increments are plain int updates (no lock): they are statistics, and the
occasional lost increment under free-running threads is acceptable.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Any, Dict, List, Tuple

import numpy as np

from .dependence import DependenceSpec, Interval, count_points

__all__ = [
    "DependenceTable",
    "RowPlan",
    "table_for",
    "counters",
    "reset_counters",
]

#: Cap on distinct dependence-set structures cached per table per direction.
#: ``random_nearest`` with ``period=-1`` never repeats, so its set count
#: equals the graph height; beyond the cap the oldest structure is evicted
#: (plain FIFO) so unbounded graphs cannot exhaust memory.
_MAX_SETS = 1024

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
    """One compiled dependence structure: the CSR interval table of a single
    (dependence-set id, direction) pair, covering every column of the active
    window of its representative timestep."""

    __slots__ = ("off", "width", "starts", "los", "his", "counts",
                 "counts_list", "ivals", "_cols")

    def __init__(self, off: int, width: int, starts: np.ndarray,
                 los: np.ndarray, his: np.ndarray, counts: np.ndarray,
                 ivals: List[Tuple[Interval, ...]]) -> None:
        self.off = off
        self.width = width
        self.starts = starts
        self.los = los
        self.his = his
        self.counts = counts
        #: Python-int twin of ``counts`` so per-task lookups skip numpy
        #: scalar boxing.
        self.counts_list: List[int] = counts.tolist()
        self.ivals = ivals
        self._cols: List[Tuple[int, ...] | None] = [None] * width

    def columns(self, k: int) -> Tuple[int, ...]:
        """Flattened ascending column tuple for local column ``k``."""
        cols = self._cols[k]
        if cols is None:
            out: List[int] = []
            for lo, hi in self.ivals[k]:
                out.extend(range(lo, hi + 1))
            cols = tuple(out)
            self._cols[k] = cols
        return cols


def _compile_rel(spec: DependenceSpec, t: int, *, reverse: bool) -> _Rel:
    """Compile the dependence structure exhibited at timestep ``t`` by
    querying the spec itself — bit-exact with the spec by construction."""
    off = spec.offset_at_timestep(t)
    width = spec.width_at_timestep(t)
    fn = spec.reverse_dependencies if reverse else spec.dependencies
    starts = np.zeros(width + 1, dtype=np.int64)
    los: List[int] = []
    his: List[int] = []
    ivals: List[Tuple[Interval, ...]] = []
    for k in range(width):
        intervals = fn(t, off + k)
        ivals.append(tuple((int(lo), int(hi)) for lo, hi in intervals))
        for lo, hi in intervals:
            los.append(lo)
            his.append(hi)
        starts[k + 1] = len(los)
    los_a = np.asarray(los, dtype=np.int64)
    his_a = np.asarray(his, dtype=np.int64)
    sizes = np.concatenate(([0], np.cumsum(his_a - los_a + 1)))
    counts = sizes[starts[1:]] - sizes[starts[:-1]]
    return _Rel(off, width, starts, los_a, his_a, counts, ivals)


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


def _fifo_insert(cache: Dict[Any, Any], key: Any, value: Any) -> None:
    """Insert into a cache bounded by ``_MAX_SETS``, evicting the oldest
    entries first.  The caller holds the table's lock."""
    while len(cache) >= _MAX_SETS:
        cache.pop(next(iter(cache)))
    cache[key] = value


class DependenceTable:
    """O(1) dependence queries for one :class:`DependenceSpec`, compiled
    lazily per dependence-set id.

    The forward map is keyed by ``dependence_set_at_timestep(t)`` (valid for
    ``t >= 1``: the first timestep of a graph has no inputs regardless of
    its set id).  The reverse map is keyed by
    ``dependence_set_at_timestep(t + 1)``: the edges *leaving* timestep
    ``t`` are the inverse of the edges *entering* ``t + 1``, so their
    structure — including the producer window at ``t`` — is determined by
    the consumer timestep's equivalence class (for the tree pattern, an
    expanding set id pins the exact timestep; every steady timestep has the
    full-width window).
    """

    def __init__(self, spec: DependenceSpec) -> None:
        self.spec = spec
        self._fwd: Dict[int, _Rel] = {}
        self._rev: Dict[int, _Rel] = {}
        # Timestep-keyed front caches: map t directly to its compiled
        # structure so steady-state queries skip the set-id computation
        # entirely (one dict probe instead of interval math + classing).
        # Entries reference the sid-keyed structures; both levels are
        # bounded by _MAX_SETS and mutated only under ``_lock``.
        self._fwd_t: Dict[int, _Rel] = {}
        self._rev_t: Dict[int, _Rel] = {}
        # Row plans, keyed by the (forward, reverse) structures they were
        # built from (the objects, so an evicted structure's identity cannot
        # be reused under a live plan) and front-cached by timestep; same
        # bounds, same lock.
        self._plans: Dict[Tuple[_Rel | None, _Rel | None], RowPlan] = {}
        self._plan_t: Dict[int, RowPlan] = {}
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
    def _structure(self, cache: Dict[int, _Rel], t: int,
                   reverse: bool) -> _Rel:
        """Find (or compile) the structure of timestep ``t``'s dependence
        set.  The caller holds the table's lock."""
        global _hits, _compiles
        sid = self.spec.dependence_set_at_timestep(t + 1 if reverse else t)
        rel = cache.get(sid)
        if rel is None:
            rel = _compile_rel(self.spec, t, reverse=reverse)
            _fifo_insert(cache, sid, rel)
            _compiles += 1
        else:
            _hits += 1
        return rel

    def _miss(self, front: Dict[int, _Rel], cache: Dict[int, _Rel], t: int,
              reverse: bool) -> _Rel:
        """Front-cache miss for timestep ``t``: find (or compile) the
        structure of its dependence set and install it in ``front``.

        Every mutation of either cache — insert and FIFO eviction — happens
        under the table's lock, so concurrent misses cannot evict the same
        key twice or resize a dict another thread is iterating; hits stay
        lock-free ``dict.get`` probes.
        """
        with self._lock:
            rel = self._structure(cache, t, reverse)
            if t not in front:
                _fifo_insert(front, t, rel)
        return rel

    def _fwd_rel(self, t: int) -> _Rel:
        """Compiled forward structure for timestep ``t`` (``t >= 1``)."""
        rel = self._fwd_t.get(t)
        if rel is not None:
            global _hits
            _hits += 1
            return rel
        return self._miss(self._fwd_t, self._fwd, t, False)

    def _rev_rel(self, t: int) -> _Rel:
        """Compiled reverse structure for timestep ``t``
        (``t < height - 1``)."""
        rel = self._rev_t.get(t)
        if rel is not None:
            global _hits
            _hits += 1
            return rel
        return self._miss(self._rev_t, self._rev, t, True)

    def row_plan(self, t: int) -> RowPlan:
        """The compiled :class:`RowPlan` of timestep ``t`` (shared by every
        timestep with the same structure pair; callers must not mutate
        it)."""
        plan = self._plan_t.get(t)
        if plan is not None:
            global _hits
            _hits += 1
            return plan
        spec = self.spec
        spec._check_timestep(t)
        with self._lock:
            # The first timestep has no inputs and the last no consumers,
            # whatever their set ids say.  One lock hold for the whole miss:
            # a graph taller than the front cache misses once per row.
            fwd = self._structure(self._fwd, t, False) if t > 0 else None
            rev = (self._structure(self._rev, t, True)
                   if t < spec.height - 1 else None)
            plan = self._plans.get((fwd, rev))
            if plan is None:
                width = spec.width_at_timestep(t)
                plan = RowPlan(
                    spec.offset_at_timestep(t),
                    width,
                    tuple(fwd.columns(k) if fwd is not None else ()
                          for k in range(width)),
                    spec.offset_at_timestep(t - 1) if t > 0 else 0,
                    spec.width_at_timestep(t - 1) if t > 0 else 0,
                    rev.counts_list if rev is not None else [0] * width,
                )
                _fifo_insert(self._plans, (fwd, rev), plan)
            if t not in self._plan_t:
                _fifo_insert(self._plan_t, t, plan)
        return plan

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
        spec = self.spec
        if t == 0 or not 0 <= t < spec.height:
            return spec.dependencies(t, i)  # boundary / error path
        rel = self._fwd_rel(t)
        return list(rel.ivals[self._local(rel, t, i)])

    def reverse_dependencies(self, t: int, i: int) -> List[Interval]:
        spec = self.spec
        if t == spec.height - 1 or not 0 <= t < spec.height:
            return spec.reverse_dependencies(t, i)
        rel = self._rev_rel(t)
        return list(rel.ivals[self._local(rel, t, i)])

    def dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Ascending columns at ``t - 1`` read by ``(t, i)`` as a shared,
        cached tuple (the canonical gather/validation order)."""
        # The happy path is fully inlined — one dict probe, one list index —
        # because this runs several times per task in every executor.
        rel = self._fwd_t.get(t)
        if rel is None:
            if t == 0 or not 0 <= t < self.spec.height:
                return tuple(self.spec.dependency_points(t, i))
            rel = self._fwd_rel(t)
        else:
            global _hits
            _hits += 1
        k = i - rel.off
        if 0 <= k < rel.width:
            cols = rel._cols[k]
            return cols if cols is not None else rel.columns(k)
        return rel.columns(self._local(rel, t, i))

    def reverse_dependency_columns(self, t: int, i: int) -> Tuple[int, ...]:
        """Ascending columns at ``t + 1`` that read ``(t, i)``, cached."""
        rel = self._rev_t.get(t)
        if rel is None:
            spec = self.spec
            if t == spec.height - 1 or not 0 <= t < spec.height:
                return tuple(spec.reverse_dependency_points(t, i))
            rel = self._rev_rel(t)
        else:
            global _hits
            _hits += 1
        k = i - rel.off
        if 0 <= k < rel.width:
            cols = rel._cols[k]
            return cols if cols is not None else rel.columns(k)
        return rel.columns(self._local(rel, t, i))

    def num_dependencies(self, t: int, i: int) -> int:
        rel = self._fwd_t.get(t)
        if rel is None:
            if t == 0 or not 0 <= t < self.spec.height:
                return self.spec.num_dependencies(t, i)
            rel = self._fwd_rel(t)
        else:
            global _hits
            _hits += 1
        k = i - rel.off
        if 0 <= k < rel.width:
            return rel.counts_list[k]
        return rel.counts_list[self._local(rel, t, i)]

    def row_task_counts(self, t: int) -> Tuple[int, List[int]]:
        """``(offset, per-column dependency counts)`` for every task at
        timestep ``t`` — the bulk form scheduler initialization uses (one
        lookup per timestep instead of one query per task).  The returned
        list is the compiled structure's own; callers must not mutate it.
        """
        spec = self.spec
        if not 0 <= t < spec.height:
            spec._check_timestep(t)
            raise AssertionError("unreachable")
        if t == 0:
            # The first timestep has no inputs regardless of its set id.
            return spec.offset_at_timestep(0), [0] * spec.width_at_timestep(0)
        rel = self._fwd_t.get(t)
        if rel is None:
            rel = self._fwd_rel(t)
        else:
            global _hits
            _hits += 1
        return rel.off, rel.counts_list

    def consumer_count(self, t: int, i: int) -> int:
        """How many tasks at ``t + 1`` read the output of ``(t, i)``."""
        rel = self._rev_t.get(t)
        if rel is None:
            spec = self.spec
            if t == spec.height - 1 or not 0 <= t < spec.height:
                return count_points(spec.reverse_dependencies(t, i))
            rel = self._rev_rel(t)
        else:
            global _hits
            _hits += 1
        k = i - rel.off
        if 0 <= k < rel.width:
            return rel.counts_list[k]
        return rel.counts_list[self._local(rel, t, i)]


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
