"""Warm executor pool: the cache that makes the service worth running.

A cold benchmark run pays fork-pool construction, mesh launch, worker
import and first-touch warmup before a single task executes — on the
process substrates that is tens to hundreds of milliseconds, far above
the task granularities Task Bench measures.  The pool keeps live
executors between requests, keyed ``(runtime, workers, timeout)``:

* **LRU + TTL** — bounded capacity with least-recently-used eviction,
  plus a time-to-live so an executor idle for minutes (its workers'
  caches cold, its memory hostage) is retired rather than handed out.
* **Heal on checkout** — a cached executor's substrate can die while it
  sits idle (a worker OOM-killed, a rank mesh torn by a signal).  Every
  checkout first calls :meth:`~repro.core.executor_base.Executor.heal`,
  which respawns dead pool workers in place or condemns a broken mesh,
  so a crashed cached worker never poisons a later request.  An executor
  that cannot be healed is closed and replaced by a cold build.

Lock discipline (enforced by ``task-bench check --self``): the pool's
lock guards only the entry table; executor construction, healing and
closing — anything that forks, joins or kills processes — happens
outside it, so a slow mesh teardown never stalls an unrelated checkout.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.executor_base import Executor
from ..runtimes.registry import make_executor

#: Pool key: (runtime name, worker count, per-run timeout).
PoolKey = Tuple[str, int, Optional[float]]


class WarmPool:
    """Bounded LRU+TTL cache of live executors."""

    def __init__(self, capacity: int = 4, ttl_seconds: float = 300.0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PoolKey, Tuple[Executor, float]]" = (
            OrderedDict()
        )
        self._closed = False
        # Counters (guarded by the lock; read via ``stats``).
        self._warm_hits = 0
        self._cold_builds = 0
        self._heals = 0
        self._ttl_evictions = 0
        self._lru_evictions = 0

    # ------------------------------------------------------------------
    def checkout(
        self,
        runtime: str,
        workers: int,
        timeout: Optional[float] = None,
    ) -> Tuple[Executor, bool]:
        """A live, healthy executor for ``(runtime, workers, timeout)``.

        Returns ``(executor, warm)`` — ``warm`` says whether a cached
        instance was reused.  The caller owns the executor until it is
        :meth:`checkin`-ed back (or closed, if the run broke it).
        """
        key: PoolKey = (runtime, workers, timeout)
        now = time.monotonic()
        expired: List[Executor] = []
        with self._lock:
            cached = self._pop_entry(key, now, expired)
        for stale in expired:
            _close_quietly(stale)
        if cached is not None:
            healed = self._try_heal(cached)
            if healed is not None:
                with self._lock:
                    self._warm_hits += 1
                    if healed:
                        self._heals += healed
                return cached, True
            _close_quietly(cached)  # unhealable: fall through to cold build
        executor = make_executor(runtime, workers=workers, **(
            {"timeout": timeout} if timeout is not None else {}
        ))
        with self._lock:
            self._cold_builds += 1
        return executor, False

    def checkin(self, runtime: str, workers: int,
                timeout: Optional[float], executor: Executor) -> None:
        """Return an executor to the pool (closes it if the pool is full
        beyond LRU relief, closed, or zero-capacity)."""
        key: PoolKey = (runtime, workers, timeout)
        now = time.monotonic()
        to_close: List[Executor] = []
        with self._lock:
            if self._closed or self.capacity == 0:
                to_close.append(executor)
            else:
                previous = self._entries.pop(key, None)
                if previous is not None:
                    to_close.append(previous[0])
                self._entries[key] = (executor, now)
                self._purge_locked(now, to_close)
                while len(self._entries) > self.capacity:
                    _, (victim, _) = self._entries.popitem(last=False)
                    self._lru_evictions += 1
                    to_close.append(victim)
        for stale in to_close:
            _close_quietly(stale)

    def close(self) -> None:
        """Retire every cached executor; later checkins close instantly."""
        with self._lock:
            self._closed = True
            victims = [executor for executor, _ in self._entries.values()]
            self._entries.clear()
        for executor in victims:
            _close_quietly(executor)

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "cached": len(self._entries),
                "warm_hits": self._warm_hits,
                "cold_builds": self._cold_builds,
                "heals": self._heals,
                "ttl_evictions": self._ttl_evictions,
                "lru_evictions": self._lru_evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def _pop_entry(self, key: PoolKey, now: float,
                   expired: List[Executor]) -> Optional[Executor]:
        """Pop the entry for ``key`` (lock held); TTL-purges as it goes."""
        self._purge_locked(now, expired)
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        return entry[0]

    def _purge_locked(self, now: float, expired: List[Executor]) -> None:
        cutoff = now - self.ttl_seconds
        while self._entries:
            key, (executor, stamp) = next(iter(self._entries.items()))
            if stamp >= cutoff:
                break  # ordered oldest-first: the rest are fresher
            del self._entries[key]
            self._ttl_evictions += 1
            expired.append(executor)

    @staticmethod
    def _try_heal(executor: Executor) -> Optional[int]:
        """Heal a cached executor; ``None`` marks it unsalvageable."""
        try:
            return executor.heal()
        except Exception:
            return None


def _close_quietly(executor: Executor) -> None:
    try:
        executor.close()
    except Exception:
        pass


__all__ = ["PoolKey", "WarmPool"]
