"""Dependence relations between consecutive timesteps of a task graph.

This module implements Table 2 of the paper plus the additional patterns of
the official Task Bench core library.  A dependence relation answers, for a
task at point ``(t, i)`` of the 2-D iteration space, which points of timestep
``t - 1`` it depends on (``dependencies``) and, symmetrically, which points of
timestep ``t + 1`` depend on it (``reverse_dependencies``).

Following the official core library, results are returned as lists of closed
intervals ``(lo, hi)`` over column indices, which keeps dependence queries
O(1) in the number of dependencies for the regular patterns (stencil,
nearest, ...) and lets runtime shims iterate without materializing the graph.

The fundamental invariant, checked exhaustively by the test suite, is::

    j in deps(t, i)  <=>  i in rdeps(t - 1, j)

with both sides restricted to points that actually exist at their timestep
(``contains_point``), which matters for the tree pattern where the iteration
space grows as the tree fans out.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

from .types import DependenceType

Interval = Tuple[int, int]

#: What ``_splitmix64`` hashes: one Python int, or a ``uint64`` array of them.
_Hashed = TypeVar("_Hashed", int, np.ndarray)

#: Upper bound on shifts used for the FFT pattern so ``2 ** s`` never
#: overflows for degenerate graph widths.
_MAX_SHIFT = 62


def _splitmix64(x: _Hashed) -> _Hashed:
    """One round of the splitmix64 mixing function (public-domain constant
    set).  Used to derive deterministic pseudo-random dependence edges that
    can be evaluated consistently from either endpoint of the edge.

    Every step is masked to 64 bits, which is what a ``uint64`` array does
    by wrapping: given one, this hashes it elementwise to the same values.
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _edge_hash_prefix(seed: int, t: int, i: int) -> int:
    """The three rounds every candidate edge into ``(t, i)`` shares."""
    h = _splitmix64(seed)
    h = _splitmix64(h ^ (t & 0xFFFFFFFFFFFFFFFF))
    return _splitmix64(h ^ (i & 0xFFFFFFFFFFFFFFFF))


def _edge_hash_u01(seed: int, t: int, i: int, j: int) -> float:
    """Deterministic uniform value in ``[0, 1)`` for the directed edge
    ``(t-1, j) -> (t, i)``.  Both ``dependencies`` and
    ``reverse_dependencies`` evaluate the same hash, so the random pattern is
    consistent when queried from either side.
    """
    h = _splitmix64(_edge_hash_prefix(seed, t, i) ^ (j & 0xFFFFFFFFFFFFFFFF))
    return h / 2.0**64


def merge_intervals(points: Sequence[int]) -> List[Interval]:
    """Collapse a sequence of column indices into sorted, disjoint, closed
    intervals.  Duplicates are removed.

    >>> merge_intervals([3, 1, 2, 7])
    [(1, 3), (7, 7)]
    """
    if not points:
        return []
    ordered = sorted(set(points))
    out: List[Interval] = []
    lo = hi = ordered[0]
    for p in ordered[1:]:
        if p == hi + 1:
            hi = p
        else:
            out.append((lo, hi))
            lo = hi = p
    out.append((lo, hi))
    return out


def interval_points(intervals: Sequence[Interval]) -> Iterator[int]:
    """Iterate every column index covered by ``intervals`` in order."""
    for lo, hi in intervals:
        yield from range(lo, hi + 1)


def count_points(intervals: Sequence[Interval]) -> int:
    """Total number of column indices covered by ``intervals``."""
    return sum(hi - lo + 1 for lo, hi in intervals)


def clip_intervals(
    intervals: Sequence[Interval], lo_bound: int, hi_bound: int
) -> List[Interval]:
    """Intersect ``intervals`` with the closed range ``[lo_bound, hi_bound]``."""
    out: List[Interval] = []
    for lo, hi in intervals:
        lo2, hi2 = max(lo, lo_bound), min(hi, hi_bound)
        if lo2 <= hi2:
            out.append((lo2, hi2))
    return out


class DependenceSpec:
    """Dependence relation for a task graph of a fixed ``width``/``height``.

    Parameters
    ----------
    dtype:
        The dependence pattern.
    width, height:
        Dimensions of the iteration space (columns, timesteps).
    radix:
        Number of dependencies per task for the ``nearest``/``spread``/
        ``random_nearest`` patterns (paper Table 1).  Ignored otherwise.
    period:
        For ``random_nearest``: the random pattern repeats every ``period``
        timesteps.  ``-1`` (default) draws a fresh pattern every timestep.
    fraction:
        For ``random_nearest``: probability that each candidate edge in the
        nearest window is present.
    seed:
        Seed for the deterministic random pattern.
    """

    def __init__(
        self,
        dtype: DependenceType,
        width: int,
        height: int,
        *,
        radix: int = 3,
        period: int = -1,
        fraction: float = 0.25,
        seed: int = 12345,
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if height < 1:
            raise ValueError(f"height must be >= 1, got {height}")
        if radix < 0:
            raise ValueError(f"radix must be >= 0, got {radix}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if period == 0 or period < -1:
            raise ValueError(f"period must be -1 or a positive integer, got {period}")
        self.dtype = dtype
        self.width = width
        self.height = height
        self.radix = radix
        self.period = period
        self.fraction = fraction
        self.seed = seed
        # Number of FFT butterfly stages before the stride pattern repeats.
        self._fft_stages = max(1, math.ceil(math.log2(width))) if width > 1 else 1

    # ------------------------------------------------------------------
    # Iteration-space shape
    # ------------------------------------------------------------------
    def offset_at_timestep(self, t: int) -> int:
        """First active column index at timestep ``t``."""
        self._check_timestep(t)
        return 0

    def width_at_timestep(self, t: int) -> int:
        """Number of active columns at timestep ``t``.

        All patterns occupy the full rectangle except ``tree``, which fans
        out from a single root, doubling each timestep until the full width
        is reached.
        """
        self._check_timestep(t)
        if self.dtype is DependenceType.TREE:
            return min(self.width, 1 << min(t, _MAX_SHIFT))
        return self.width

    def contains_point(self, t: int, i: int) -> bool:
        """Whether task ``(t, i)`` exists in the iteration space."""
        if not 0 <= t < self.height:
            return False
        off = self.offset_at_timestep(t)
        return off <= i < off + self.width_at_timestep(t)

    # ------------------------------------------------------------------
    # Forward dependencies: points at t-1 that (t, i) depends on
    # ------------------------------------------------------------------
    def dependencies(self, t: int, i: int) -> List[Interval]:
        """Intervals of columns at timestep ``t - 1`` that ``(t, i)`` reads."""
        self._check_point(t, i)
        if t == 0:
            return []
        raw = self._raw_dependencies(t, i)
        prev_lo = self.offset_at_timestep(t - 1)
        prev_hi = prev_lo + self.width_at_timestep(t - 1) - 1
        return clip_intervals(raw, prev_lo, prev_hi)

    def _raw_dependencies(self, t: int, i: int) -> List[Interval]:
        w = self.width
        d = self.dtype
        if d is DependenceType.TRIVIAL:
            return []
        if d is DependenceType.NO_COMM:
            return [(i, i)]
        if d is DependenceType.STENCIL_1D:
            return [(i - 1, i + 1)]
        if d is DependenceType.STENCIL_1D_PERIODIC:
            return merge_intervals([(i - 1) % w, i, (i + 1) % w])
        if d is DependenceType.DOM:
            return [(i - 1, i)]
        if d is DependenceType.TREE:
            if self.width_at_timestep(t) > self.width_at_timestep(t - 1):
                return [(i // 2, i // 2)]
            return [(i, i)]
        if d is DependenceType.FFT:
            s = self._fft_stride(t)
            return merge_intervals([i - s, i, i + s])
        if d is DependenceType.ALL_TO_ALL:
            return [(0, w - 1)]
        if d is DependenceType.NEAREST:
            if self.radix == 0:
                return []
            return [(i - (self.radix - 1) // 2, i + self.radix // 2)]
        if d is DependenceType.SPREAD:
            return merge_intervals(self._spread_points(t, i, forward=True))
        if d is DependenceType.RANDOM_NEAREST:
            return merge_intervals(
                [
                    j
                    for j in self._nearest_window(i)
                    if self._random_edge(t, i, j)
                ]
            )
        raise AssertionError(f"unhandled dependence type {d}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Reverse dependencies: points at t+1 that depend on (t, i)
    # ------------------------------------------------------------------
    def reverse_dependencies(self, t: int, i: int) -> List[Interval]:
        """Intervals of columns at timestep ``t + 1`` that read ``(t, i)``."""
        self._check_point(t, i)
        if t == self.height - 1:
            return []
        raw = self._raw_reverse_dependencies(t, i)
        nxt_lo = self.offset_at_timestep(t + 1)
        nxt_hi = nxt_lo + self.width_at_timestep(t + 1) - 1
        return clip_intervals(raw, nxt_lo, nxt_hi)

    def _raw_reverse_dependencies(self, t: int, i: int) -> List[Interval]:
        w = self.width
        d = self.dtype
        if d is DependenceType.TRIVIAL:
            return []
        if d is DependenceType.NO_COMM:
            return [(i, i)]
        if d is DependenceType.STENCIL_1D:
            return [(i - 1, i + 1)]
        if d is DependenceType.STENCIL_1D_PERIODIC:
            return merge_intervals([(i - 1) % w, i, (i + 1) % w])
        if d is DependenceType.DOM:
            return [(i, i + 1)]
        if d is DependenceType.TREE:
            if self.width_at_timestep(t + 1) > self.width_at_timestep(t):
                return [(2 * i, 2 * i + 1)]
            return [(i, i)]
        if d is DependenceType.FFT:
            s = self._fft_stride(t + 1)
            return merge_intervals([i - s, i, i + s])
        if d is DependenceType.ALL_TO_ALL:
            return [(0, w - 1)]
        if d is DependenceType.NEAREST:
            if self.radix == 0:
                return []
            return [(i - self.radix // 2, i + (self.radix - 1) // 2)]
        if d is DependenceType.SPREAD:
            return merge_intervals(self._spread_points(t, i, forward=False))
        if d is DependenceType.RANDOM_NEAREST:
            out = []
            for consumer in self._nearest_window_inverse(i):
                if self._random_edge(t + 1, consumer, i):
                    out.append(consumer)
            return merge_intervals(out)
        raise AssertionError(f"unhandled dependence type {d}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def dependency_points(self, t: int, i: int) -> Iterator[int]:
        """Iterate the column indices ``(t, i)`` depends on (at ``t - 1``)."""
        return interval_points(self.dependencies(t, i))

    def reverse_dependency_points(self, t: int, i: int) -> Iterator[int]:
        """Iterate the columns at ``t + 1`` that depend on ``(t, i)``."""
        return interval_points(self.reverse_dependencies(t, i))

    def num_dependencies(self, t: int, i: int) -> int:
        """Number of inputs of task ``(t, i)``."""
        return count_points(self.dependencies(t, i))

    def dependency_columns_batch(
        self, t0: int, t1: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every task's dependency columns for timesteps ``[t0, t1)``, cut
        off at the end of the graph, as one CSR ``(cols, counts)``: tasks in
        program order (timestep, then column of its window), ``counts[n]``
        the number of inputs of the ``n``-th and ``cols`` every task's
        ``dependency_points`` laid end to end — both ``int64``.

        The one query compiled rows are built from.  The regular patterns
        have few distinct rows and loop the scalar methods; ``random_nearest``
        decides every candidate edge of the batch in one array pass over a
        (timesteps x width x window) grid, because hashed one at a time its
        edges are what set-up costs — and the pass costs per call what it
        costs per thousand candidates, so callers ask for many rows at once.
        """
        self._check_timestep(t0)
        t1 = min(t1, self.height)
        w = self.width
        if self.dtype is not DependenceType.RANDOM_NEAREST:
            deps = [list(self.dependency_points(t, i)) for t in range(t0, t1)
                    for i in range(self.offset_at_timestep(t),
                                   self.offset_at_timestep(t)
                                   + self.width_at_timestep(t))]
            return (np.fromiter(chain.from_iterable(deps), dtype=np.int64),
                    np.array([len(d) for d in deps], dtype=np.int64))
        first = max(t0, min(t1, 1))  # the first timestep reads nothing
        hashes, cols = self._edge_hashes(first, t1)
        edge = (hashes / 2.0**64 < self.fraction) & (cols >= 0) & (cols < w)
        found = np.flatnonzero(edge)  # (timestep, column, window slot), flat
        counts = np.bincount(found // cols.shape[1] + (first - t0) * w,
                             minlength=(t1 - t0) * w)
        return cols.ravel()[found % cols.size], counts

    def max_dependencies(self) -> int:
        """Upper bound on the number of dependencies of any task.

        Useful for sizing receive buffers in runtime shims.
        """
        d = self.dtype
        if d is DependenceType.TRIVIAL:
            return 0
        if d in (DependenceType.NO_COMM,):
            return 1
        if d in (DependenceType.STENCIL_1D, DependenceType.STENCIL_1D_PERIODIC):
            return min(3, self.width)
        if d is DependenceType.DOM:
            return min(2, self.width)
        if d is DependenceType.TREE:
            return 1
        if d is DependenceType.FFT:
            return min(3, self.width)
        if d is DependenceType.ALL_TO_ALL:
            return self.width
        return min(self.radix, self.width)

    # ------------------------------------------------------------------
    # Dependence sets (official core API): timesteps with identical
    # dependence structure share a set id, so runtimes and simulators can
    # compute each structure once and reuse it.
    # ------------------------------------------------------------------
    def max_dependence_sets(self) -> int:
        """Number of distinct dependence structures across all timesteps.

        Mirrors the official core library's ``max_dependence_sets()``: two
        timesteps ``s``, ``t`` with
        ``dependence_set_at_timestep(s) == dependence_set_at_timestep(t)``
        use the same dependence *relation* — ``dependencies(s, i) ==
        dependencies(t, i)`` for every column (whenever both timesteps have
        a predecessor; the first timestep of a graph has no inputs
        regardless of its set id), and the same active window.  Runtimes
        and simulators use this to compute each structure once.
        """
        d = self.dtype
        if d in (
            DependenceType.TRIVIAL,
            DependenceType.NO_COMM,
            DependenceType.STENCIL_1D,
            DependenceType.STENCIL_1D_PERIODIC,
            DependenceType.DOM,
            DependenceType.ALL_TO_ALL,
            DependenceType.NEAREST,
        ):
            return 1
        if d is DependenceType.FFT:
            return min(self.height, self._fft_stages)
        if d is DependenceType.TREE:
            # every expanding timestep has a distinct window; afterwards
            # the self-dependency structure repeats
            expanding = min(
                self.height,
                max(0, math.ceil(math.log2(self.width))) + 1 if self.width > 1 else 1,
            )
            steady = 1 if self.height > expanding else 0
            return expanding + steady
        if d is DependenceType.SPREAD:
            return min(self.height, self.width)
        if d is DependenceType.RANDOM_NEAREST:
            if self.period > 0:
                return min(self.height, self.period)
            return self.height
        raise AssertionError(f"unhandled dependence type {d}")  # pragma: no cover

    def dependence_set_at_timestep(self, t: int) -> int:
        """Equivalence-class id of timestep ``t``'s dependence structure."""
        self._check_timestep(t)
        d = self.dtype
        if d in (
            DependenceType.TRIVIAL,
            DependenceType.NO_COMM,
            DependenceType.STENCIL_1D,
            DependenceType.STENCIL_1D_PERIODIC,
            DependenceType.DOM,
            DependenceType.ALL_TO_ALL,
            DependenceType.NEAREST,
        ):
            return 0
        if d is DependenceType.FFT:
            return 0 if t == 0 else (t - 1) % self._fft_stages
        if d is DependenceType.TREE:
            expanding = (
                max(0, math.ceil(math.log2(self.width))) + 1 if self.width > 1 else 1
            )
            return min(t, expanding - 1) if t < expanding else expanding
        if d is DependenceType.SPREAD:
            return t % self.width
        if d is DependenceType.RANDOM_NEAREST:
            return t % self.period if self.period > 0 else t
        raise AssertionError(f"unhandled dependence type {d}")  # pragma: no cover

    def dependence_set_cycle(self) -> Tuple[int, int]:
        """``(lead, cycle)`` with ``lead >= 1``: from timestep ``lead`` on the
        set ids repeat every ``cycle`` timesteps, below it no two timesteps
        ``>= 1`` share one.  ``t if t < lead else lead + (t - lead) % cycle``
        is therefore the first timestep ``>= 1`` with the set id of ``t`` —
        what a cache of structures keys on, in O(1) arithmetic.
        """
        d = self.dtype
        if d is DependenceType.FFT:
            return 1, self._fft_stages
        if d is DependenceType.TREE:
            return max(0, math.ceil(math.log2(self.width))) + 1, 1
        if d is DependenceType.SPREAD:
            return 1, self.width
        if d is DependenceType.RANDOM_NEAREST:
            return 1, self.period if self.period > 0 else self.height
        return 1, 1

    # ------------------------------------------------------------------
    # Pattern internals
    # ------------------------------------------------------------------
    def _fft_stride(self, t: int) -> int:
        """Butterfly stride used by tasks at timestep ``t`` (``t >= 1``).

        The classic FFT has ``log2(width)`` stages; for graphs taller than
        that the stage index cycles so every timestep keeps an FFT-shaped
        exchange, matching the intent of Table 2 without overflowing.
        """
        stage = (t - 1) % self._fft_stages
        return 1 << min(stage, _MAX_SHIFT)

    def _spread_points(self, t: int, i: int, *, forward: bool) -> List[int]:
        """Columns reached by the spread pattern.

        Forward: dependencies of consumer ``(t, i)`` are
        ``(i + k * step + t) mod width`` for ``k in [0, radix)``, i.e. the
        ``radix`` producers are spread maximally across the row and the
        pattern rotates with the timestep.  Backward: consumers at ``t + 1``
        of producer ``(t, i)`` (the inverse map).
        """
        if self.radix == 0:
            return []
        w = self.width
        step = max(1, w // min(self.radix, w))
        pts = []
        for k in range(min(self.radix, w)):
            if forward:
                pts.append((i + k * step + t) % w)
            else:
                pts.append((i - k * step - (t + 1)) % w)
        return pts

    def _nearest_window(self, i: int) -> range:
        """Candidate producer window for the random-nearest pattern."""
        if self.radix == 0:
            return range(0)
        lo = max(0, i - (self.radix - 1) // 2)
        hi = min(self.width - 1, i + self.radix // 2)
        return range(lo, hi + 1)

    def _nearest_window_inverse(self, j: int) -> range:
        """Candidate consumer window: all ``i`` whose nearest window holds ``j``."""
        if self.radix == 0:
            return range(0)
        lo = max(0, j - self.radix // 2)
        hi = min(self.width - 1, j + (self.radix - 1) // 2)
        return range(lo, hi + 1)

    def _random_edge(self, t: int, i: int, j: int) -> bool:
        """Whether the random-nearest edge ``(t-1, j) -> (t, i)`` exists."""
        teff = t % self.period if self.period > 0 else t
        return _edge_hash_u01(self.seed, teff, i, j) < self.fraction

    def _edge_hashes(self, t0: int, t1: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(hashes, cols)`` for consumer timesteps ``[t0, t1)``:
        ``hashes[t - t0, i, r]`` is the 64-bit hash ``_edge_hash_u01`` scales,
        of the edge ``(t-1, cols[i, r]) -> (t, i)``, for every column of the
        unclipped nearest window (``cols`` outside the row: the caller's to
        mask).  One scalar round on the seed and three on arrays, whatever
        the batch holds.
        """
        w, r = self.width, self.radix
        t = np.arange(t0, t1, dtype=np.uint64)
        if self.period > 0:
            t %= np.uint64(self.period)
        i = np.arange(w, dtype=np.int64)
        cols = i[:, None] + np.arange(-min((r - 1) // 2, w - 1),
                                      min(r // 2, w - 1) + 1)
        h = _splitmix64(np.uint64(_splitmix64(self.seed)) ^ t)
        h = _splitmix64(h[:, None] ^ i.astype(np.uint64))
        return _splitmix64(h[:, :, None] ^ cols.astype(np.uint64)), cols

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_timestep(self, t: int) -> None:
        if not 0 <= t < self.height:
            raise IndexError(f"timestep {t} outside [0, {self.height})")

    def _check_point(self, t: int, i: int) -> None:
        if not self.contains_point(t, i):
            raise IndexError(
                f"point (t={t}, i={i}) is not in the iteration space "
                f"(width={self.width}, height={self.height}, "
                f"dependence={self.dtype.value})"
            )
