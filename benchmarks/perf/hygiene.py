"""Leak checks: shared-memory segments, cluster socket dirs, live children.

The runner snapshots the host before a child starts and checks again once
it has exited; anything the child left behind is one failed operation.
Leftovers are removed so a leak is counted once, not on every later check.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import tempfile
import time
from typing import List, Set

from repro.core.janitor import SEGMENT_PREFIX, SHM_DIR

#: ``tempfile.mkdtemp`` prefix of the cluster launcher's socket directory.
SOCKET_DIR_PREFIX = "taskbench-cluster-"


def snapshot() -> Set[str]:
    """Paths of every slab segment and cluster socket dir on the host."""
    found: Set[str] = set()
    for root, prefix in ((SHM_DIR, SEGMENT_PREFIX),
                         (tempfile.gettempdir(), SOCKET_DIR_PREFIX)):
        try:
            names = os.listdir(root)
        except OSError:
            continue
        found.update(os.path.join(root, n) for n in names
                     if n.startswith(prefix))
    return found


def leaked_since(before: Set[str]) -> List[str]:
    """What appeared since ``before`` and is still there; removes it."""
    leaked = sorted(snapshot() - before)
    for path in leaked:
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            with contextlib.suppress(OSError):
                os.unlink(path)
    return leaked


def live_members(pgid: int) -> List[int]:
    """Pids of the processes of group ``pgid`` that are still running.
    A zombie is dead already, whenever init gets round to reaping it."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue  # exited while we looked
        if int(pgrp) == pgid and state not in "ZX":
            alive.append(int(entry))
    return alive


def surviving_members(pgid: int, grace: float = 1.0) -> List[int]:
    """The processes of session/group ``pgid`` that outlive its leader by
    more than ``grace`` seconds; they are killed.  Children are started in
    their own session, so the group is exactly the child and everything it
    forked (pool workers, ranks, multiprocessing's resource tracker)."""
    deadline = time.monotonic() + grace
    while True:
        alive = live_members(pgid)
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    if alive:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
    return alive
