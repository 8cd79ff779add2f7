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
from typing import Dict, List, Tuple

import numpy as np

from .dependence import DependenceSpec, Interval, count_points

__all__ = [
    "DependenceTable",
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
    def _miss(self, front: Dict[int, _Rel], cache: Dict[int, _Rel], t: int,
              reverse: bool) -> _Rel:
        """Front-cache miss for timestep ``t``: find (or compile) the
        structure of its dependence set and install it in ``front``.

        Every mutation of either cache — insert and FIFO eviction — happens
        under the table's lock, so concurrent misses cannot evict the same
        key twice or resize a dict another thread is iterating; hits stay
        lock-free ``dict.get`` probes.
        """
        global _hits, _compiles
        sid = self.spec.dependence_set_at_timestep(t + 1 if reverse else t)
        with self._lock:
            rel = cache.get(sid)
            if rel is None:
                rel = _compile_rel(self.spec, t, reverse=reverse)
                while len(cache) >= _MAX_SETS:
                    cache.pop(next(iter(cache)))
                cache[sid] = rel
                _compiles += 1
            else:
                _hits += 1
            if t not in front:
                while len(front) >= _MAX_SETS:
                    front.pop(next(iter(front)))
                front[t] = rel
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
