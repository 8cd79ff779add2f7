"""Suite-wide leak checks (ROADMAP 4a): what CI used to grep for in shell
steps after pytest, checked by pytest itself.

* After **each test**, no executor worker thread may still be alive: every
  executor joins its workers before ``run()`` returns or raises.
* At **session end**, no child process may be alive, and the host must hold
  no ``psm_*`` shared-memory segment or ``taskbench-cluster-*`` socket
  directory that was not there at session start.  The host-wide half is
  skipped inside a pytest-xdist worker — its siblings are still running
  with live pools — and done by the controller once they have all exited.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import tempfile
import threading

import pytest

from repro.core.janitor import SEGMENT_PREFIX, SHM_DIR

#: Name prefixes of the threads executors run tasks on (``ReadyPool.run``
#: names, the centralized workers, the p2p ranks, the two stdlib pools).
WORKER_THREAD_PREFIXES = (
    "task-worker", "ptg-worker", "stf-worker", "actor-worker",
    "centralized-worker", "p2p-rank", "futures-worker", "bulk-sync-worker",
)


@pytest.fixture(autouse=True)
def no_leaked_worker_threads():
    yield
    leaked = [
        th.name for th in threading.enumerate()
        if th.name.startswith(WORKER_THREAD_PREFIXES)
    ]
    assert not leaked, f"executor worker threads outlived the test: {leaked}"


def _host_resources() -> set:
    found = set()
    for directory, prefix in (
        (SHM_DIR, SEGMENT_PREFIX),
        (tempfile.gettempdir(), "taskbench-cluster-"),
    ):
        if os.path.isdir(directory):
            found.update(
                os.path.join(directory, name)
                for name in os.listdir(directory) if name.startswith(prefix)
            )
    return found


_host_before = pytest.StashKey[set]()


def pytest_sessionstart(session):
    session.config.stash[_host_before] = _host_resources()


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    # Executors that were dropped without close() release their pools and
    # meshes from finalizers; let those run before looking.
    gc.collect()
    leaked = [repr(child) for child in multiprocessing.active_children()]
    if not hasattr(session.config, "workerinput"):
        before = session.config.stash[_host_before]
        leaked += sorted(_host_resources() - before)
    if leaked:
        pytest.exit(
            "leaked past the end of the test session: " + ", ".join(leaked),
            returncode=1,
        )
