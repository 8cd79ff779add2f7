"""The import budget, by name and not by clock: a process loads the core
plus the one runtime it runs.

Every case runs in a fresh interpreter and reads ``sys.modules`` — a
creeping import fails here, deterministically, in the PR that adds it.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.runtimes.registry import _RUNTIMES

SRC = str(pathlib.Path(__file__).parent.parent / "src")

#: Every module that defines a registered executor.
EXECUTOR_MODULES = {
    "repro.runtimes." + target.partition(":")[0] for target in _RUNTIMES.values()
}

#: What no single cell on a real runtime has a use for.
NEVER = (
    "asyncio", "concurrent.futures", "ssl",
    "repro.sim", "repro.serve", "repro.suite", "repro.check",
    "repro.analysis", "repro.metg",
    "repro.trace.export", "repro.trace.conformance",
)


def fresh(script: str, *argv: str) -> dict:
    """Run ``script`` in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


CELL = """
import json, runpy, sys
sys.argv[0] = "repro.cli"
try:
    runpy.run_module("repro.cli", run_name="__main__")
except SystemExit as exit:
    code = exit.code
print()
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def cell_modules(runtime: str) -> set:
    out = fresh(CELL, "-steps", "5", "-width", "3", "-runtime", runtime,
                "-workers", "2")
    assert out["code"] == 0
    return set(out["modules"])


@pytest.mark.parametrize("runtime, own, cluster", [
    ("serial", set(), False),
    ("threads", {"threads"}, False),
    ("shm_processes", {"processes"}, False),
    ("cluster_uds", {"cluster_rt"}, True),
])
def test_cold_cell_loads_only_its_own_runtime(runtime, own, cluster):
    modules = cell_modules(runtime)
    assert not [m for m in NEVER if m in modules]
    assert modules & EXECUTOR_MODULES == {
        "repro.runtimes." + m for m in {"serial", *own}
    }
    assert ("repro.cluster" in modules) == cluster


def test_serial_run_imports_nothing_after_the_registry():
    # The setup_s guard: benchmarks time from "imports done" to the end of
    # the first run, so make_executor("serial") must find its module loaded.
    out = fresh("""
import json, sys
from repro.core.task_graph import TaskGraph
from repro.runtimes import make_executor
graph = TaskGraph(timesteps=5, max_width=3)
before = set(sys.modules)
with make_executor("serial") as executor:
    result = executor.run([graph], validate=True)
print(json.dumps({"tasks": result.total_tasks,
                  "added": sorted(set(sys.modules) - before)}))
""")
    assert out == {"tasks": 15, "added": []}


def test_fork_workers_import_nothing_their_parent_had_not():
    # Laziness must not turn one shared copy into one private copy per
    # worker: whatever a worker needs was loaded before the fork.
    out = fresh("""
import json, os, sys
from repro.core.task_graph import TaskGraph
from repro.runtimes import make_executor

def loaded():
    return sorted(m for m in sys.modules if m.startswith("repro"))

at_fork = []
os.register_at_fork(before=lambda: at_fork.append(set(loaded())))
graph = TaskGraph(timesteps=5, max_width=4)
with make_executor("shm_processes", workers=2) as executor:
    executor.run([graph], validate=True)
    workers = executor._procs.broadcast(loaded)
print(json.dumps({"forks": len(at_fork), "private": sorted(
    {m for w in workers for m in w} - set.intersection(*at_fork))}))
""")
    assert out["forks"] >= 2
    assert out["private"] == []
