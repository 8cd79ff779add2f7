"""Canary gating: keep the samples taken while the host was quiet.

The build host's speed flickers between a fast and a slow mode, in
stretches of a fifth of a second up to minutes.  Every timed sample is
therefore bracketed by a fixed piece of work that calls no repo code (the
*canary*); a sample counts only when both of its canaries ran close to the
fastest the host showed during the whole run.

(A second, memory-bound part of the canary was tried for the 64 KiB
workload and dropped: a reading then depended on what had run just before it,
and once that was cured it told nothing the compute part did not.)
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: A canary is quiet when it reads within this factor of the reference (the
#: lowest decile of all canaries of the run).  The fast mode itself scatters
#: by about 4 %; the slow mode starts at 1.25.
QUIET_FACTOR = 1.07

#: One timed sample: (canary before [s], measured value, canary after [s]).
Sample = Tuple[float, float, float]

_ARRAY = np.arange(16384, dtype=np.float64)


def canary() -> float:
    """Seconds taken by ~4 ms of fixed work, half interpreter, half NumPy."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(36000):
        acc += k * k % 7
    a = _ARRAY
    for _ in range(60):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def wait_quiet(limit: float, until: float) -> float:
    """Poll the canary until it reads at most ``limit`` seconds or the
    clock (``time.perf_counter``) passes ``until``; returns the last
    reading.  Waiting out a slow phase costs run time, but a sample taken
    inside one would be thrown away anyway."""
    while True:
        reading = canary()
        if reading <= limit or time.perf_counter() >= until:
            return reading
        time.sleep(0.03)


def timed(fn, limit: float = float("inf"), until: float = 0.0) -> Sample:
    """Run ``fn`` once between two canaries, starting when the host is
    quiet (see :func:`wait_quiet`); the value is its wall seconds."""
    c0 = wait_quiet(limit, until)
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    return (c0, wall, canary())


def reference(canaries: Iterable[float]) -> float:
    """The lowest decile of the canary times: the host's quiet speed."""
    ordered = sorted(canaries)
    if not ordered:
        raise ValueError("no canaries recorded")
    return ordered[len(ordered) // 10]


#: Which canaries of a sample must be quiet: both, as a rule.
BOTH = (0, 2)
#: For a sample that outlasts the host's quiet stretches (a cold CLI cell is
#: eighty canaries long) only the canary before it decides: the one after it
#: says nothing about most of the sample, and what a slow stretch inflated
#: sits above the lower quartile.
BEFORE = (0,)


def is_quiet(sample: Sample, ref: float, ends: Tuple[int, ...] = BOTH) -> bool:
    return max(sample[k] for k in ends) <= QUIET_FACTOR * ref


def quiet_count(samples: Iterable[Sample], ref: float,
                ends: Tuple[int, ...] = BOTH) -> int:
    """How many samples are quiet; a cell below its minimum gets topped up."""
    return sum(is_quiet(s, ref, ends) for s in samples)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(p25, median, p75); a single value is all three, and of two values
    the quartiles are the values themselves (``statistics.quantiles`` would
    extrapolate beyond them)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return max(q1, min(values)), q2, min(q3, max(values))


def summarise(samples: Sequence[Sample], ref: float, min_quiet: int,
              ends: Tuple[int, ...] = BOTH) -> Dict:
    """Lower quartile of the quiet samples of one cell.

    What the host adds to a sample is never negative, and a warm run can
    outlast a quiet stretch, so even quiet samples carry a one-sided tail; the
    lower quartile sits where they agree.  The median is reported beside it.

    With fewer than ``min_quiet`` quiet samples the cell is *unresolved*:
    the ``min_quiet`` samples whose canaries were lowest are used instead,
    so a number is still printed, and flagged.
    """
    if not samples:
        raise ValueError("cell has no samples")
    kept = [s[1] for s in samples if is_quiet(s, ref, ends)]
    unresolved = len(kept) < min_quiet
    if unresolved:
        ranked = sorted(samples, key=lambda s: max(s[k] for k in ends))
        used = [s[1] for s in ranked[:min_quiet]]
    else:
        used = kept
    p25, median, p75 = quartiles(used)
    return {
        "value": p25,
        "p25": p25,
        "median": median,
        "p75": p75,
        "min": min(s[1] for s in samples),
        "n": len(samples),
        "n_quiet": len(kept),
        "unresolved": unresolved,
    }


def all_canaries(samples: Iterable[Sample]) -> List[float]:
    out: List[float] = []
    for c0, _value, c1 in samples:
        out += [c0, c1]
    return out
