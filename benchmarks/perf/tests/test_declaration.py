"""BENCHMARK.json stays inside the contract's limits and matches run.py."""

import json
import re

from conftest import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_keys_and_limits():
    assert sorted(DECLARED) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert DECLARED["paths"] == ["benchmarks/perf"]
    assert DECLARED["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert isinstance(DECLARED["run_seconds"], int)
    assert 1 <= DECLARED["run_seconds"] <= 60
    # 4 + 22 x workloads runs must end within 3420 s.
    runs = 4 + 22 * len(DECLARED["workloads"])
    assert runs * DECLARED["run_seconds"] * 1.4 < 3420


def test_names_units_and_bounds():
    names = []
    for workload in DECLARED["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARED["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in DECLARED["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
        names.append(metric["name"])
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [dict(setup[0], unit="s", better="lower")]
    assert setup[0]["bound"] == max(
        m["bound"] for m in DECLARED["end_to_end"])


def test_declaration_matches_the_code():
    import run
    from workloads import OTHER_EXECUTORS, SUBSTRATES, WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    assert {f"task_us.{s}" for s in SUBSTRATES} <= end_to_end | per_layer
    assert {f"runtimes.{n}.task_us" for n in OTHER_EXECUTORS} <= per_layer
    assert run.EXACT <= per_layer
