"""A set measures an unresolved untraced run once more, and keeps both."""

import run
from workloads import WORKLOADS


def test_an_unresolved_untraced_run_is_measured_once_more(monkeypatch):
    calls = []

    def execute(workload, seed, seconds, trace, smoke):
        calls.append((workload, trace))
        # big_payload's first untraced run is unresolved; so is every traced
        # run of it, which is never measured again
        first = calls.count((workload, trace)) == 1
        unresolved = ["setup_s"] if workload == "big_payload" and (
            trace or first) else []
        return {"workload": workload, "trace": trace,
                "unresolved": unresolved, "problems": [], "n": len(calls)}

    monkeypatch.setattr(run, "execute", execute)
    monkeypatch.setattr(run, "print_table", lambda record: None)
    one_set = run.run_set(seed=1, seconds=1.0, smoke=False)
    assert calls.count(("big_payload", 0)) == 2
    assert len(calls) == 2 * len(WORKLOADS) + 1
    assert [(r["workload"], r["trace"]) for r in one_set["runs"]] == [
        (w, t) for w in WORKLOADS for t in (0, 1)]
    (aside,) = one_set["set_aside"]
    kept = one_set["runs"][2 * list(WORKLOADS).index("big_payload")]
    assert aside["unresolved"] and not kept["unresolved"]
    assert kept["n"] == aside["n"] + 1
    assert run.set_problems(one_set) == []
