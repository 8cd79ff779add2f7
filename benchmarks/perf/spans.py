"""The benchmark's own span recorder, used only in the traced run.

A span is (id, name, start ns, end ns, parent id, trial id), recorded in
memory around the calls the benchmark makes into a layer and written out
once at exit.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: (id, name, start_ns, end_ns, parent id or None, trial id)
Span = Tuple[int, str, int, int, Optional[int], str]

now = time.perf_counter_ns

_FOREVER = 1 << 62  # later than any perf_counter_ns reading


class SpanRecorder:
    """Single-threaded recorder: the benchmark calls layers from one thread."""

    def __init__(self, trial: str) -> None:
        self.trial = trial
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next = 0

    def open(self) -> Tuple[int, int]:
        """Start a span that will have children; returns (id, start)."""
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid, now()

    def close(self, name: str, opened: Tuple[int, int]) -> int:
        """End the span started by :meth:`open`; returns its duration."""
        end = now()
        sid, start = opened
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, start, end, parent, self.trial))
        return end - start

    def leaf(self, name: str, start: int) -> None:
        """Record a childless span begun at ``start`` and ending now (the
        cheap form used once per task and layer in the layer replay)."""
        end = now()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._next, name, start, end, parent, self.trial))
        self._next += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        opened = self.open()
        try:
            yield
        finally:
            self.close(name, opened)


def self_times(spans: Sequence[Span]) -> Dict[str, int]:
    """Total self time in ns per span name.

    Children of one span never overlap (one recording thread), so the
    covered part of a span is the sum of its direct children's durations.
    Ids are unique per trial only, hence the (trial, id) key.
    """
    covered: Dict[Tuple[str, int], int] = {}
    for _sid, _name, start, end, parent, trial in spans:
        if parent is not None:
            key = (trial, parent)
            covered[key] = covered.get(key, 0) + (end - start)
    out: Dict[str, int] = {}
    for sid, name, start, end, _parent, trial in spans:
        own = (end - start) - covered.get((trial, sid), 0)
        out[name] = out.get(name, 0) + own
    return out


def fold_tracks(
    records: Sequence[Tuple[object, str, int, int]],
) -> Dict[str, object]:
    """Fold ``repro.trace`` spans, given as (track, category, start ns,
    duration ns), into self time per category.

    Spans of one track nest; a span's self time is its duration minus its
    direct children's.  A *lane* is a track that ran at least one kernel
    span: the lanes are where tasks execute, so lane time that no span
    covers is the substrate's unattributed time.

    Returns ``self_ns`` (category -> ns over all tracks), ``lanes`` and
    ``lane_self_ns`` (ns covered by any span on the lanes).
    """
    by_track: Dict[object, List[Tuple[int, int, str]]] = {}
    for track, cat, start, dur in records:
        by_track.setdefault(track, []).append((start, -dur, cat))
    self_ns: Dict[str, int] = {}
    lanes = 0
    lane_self_ns = 0
    for items in by_track.values():
        items.sort()
        track_ns: Dict[str, int] = {}
        open_spans: List[List] = []  # [end, category, duration, children's ns]
        for start, neg_dur, cat in items + [(_FOREVER, 0, "")]:
            while open_spans and open_spans[-1][0] <= start:
                _end, done, dur, covered = open_spans.pop()
                track_ns[done] = track_ns.get(done, 0) + max(0, dur - covered)
            if open_spans:
                open_spans[-1][3] += -neg_dur
            open_spans.append([start - neg_dur, cat, -neg_dur, 0])
        for cat, ns in track_ns.items():
            self_ns[cat] = self_ns.get(cat, 0) + ns
        if "kernel" in track_ns:
            lanes += 1
            lane_self_ns += sum(track_ns.values())
    return {"self_ns": self_ns, "lanes": lanes, "lane_self_ns": lane_self_ns}
