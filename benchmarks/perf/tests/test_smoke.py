"""A smoke run emits every declared metric through the contract's line."""

import json
import subprocess
import sys
import time

import pytest

from conftest import PERF, ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, group):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--workload",
         "fine_stencil", "--seed", "3", "--seconds", "5", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - started < 30
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    # Nothing is left behind outside the ignored output directory.
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "benchmarks/perf"],
        cwd=ROOT, capture_output=True, text=True)
    if status.returncode == 0:
        dirty = [line for line in status.stdout.splitlines()
                 if "out/" in line or "__pycache__" in line]
        assert dirty == []
