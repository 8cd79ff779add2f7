"""Tests for repro.suite: spec expansion, the checkpoint store, the
resource-aware scheduler, and the ``task-bench suite`` command line.

The kill-resume test at the bottom exercises the crash-recovery
guarantee end to end: a suite killed with SIGKILL mid-run leaves only
whole records behind, and ``--resume`` completes exactly the remainder
without touching the bytes of what was already recorded.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.kernels import FLOPS_PER_ITERATION
from repro.metg.runners import PEAK_FLOPS_ENV, peak_flops_per_core
from repro.suite import (
    Cell,
    SpecError,
    StoreError,
    SuiteSpec,
    SuiteStore,
    aggregate_rows,
    load_rows,
    load_spec,
    render_csv,
    render_table,
    run_cell,
    run_suite,
    spec_from_mapping,
)
from repro.suite.scheduler import (
    _Job,
    admissible,
    cell_cost,
    cell_isolation,
    claim_for_cell,
)
from repro.suite.store import TERMINAL_STATUSES


def make_cell(runtime="serial", pattern="trivial", width=2, steps=3,
              payload_bytes=0, metric="run", **kw) -> Cell:
    return Cell(runtime=runtime, pattern=pattern, width=width, steps=steps,
                payload_bytes=payload_bytes, metric=metric, **kw)


def small_spec(**overrides) -> SuiteSpec:
    base = dict(
        name="smoke",
        runtimes=("serial", "sim:dask"),
        patterns=("trivial", "stencil_1d"),
        widths=(2,),
        steps=(3,),
        payload_bytes=(0,),
        metrics=("run",),
        iterations=4,
    )
    base.update(overrides)
    return SuiteSpec(**base)


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------
class TestSuiteSpec:
    def test_cells_cross_product_sorted_by_key(self):
        spec = small_spec()
        cells = spec.cells()
        assert len(cells) == 4
        keys = [c.key for c in cells]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_cells_carry_shared_configuration(self):
        spec = small_spec(workers=3, kernel="empty", target=0.7)
        for cell in spec.cells():
            assert cell.workers == 3
            assert cell.kernel == "empty"
            assert cell.target == 0.7

    def test_cell_key_is_filesystem_safe(self):
        cell = make_cell(runtime="sim:mpi_p2p")
        assert ":" not in cell.key
        assert cell.key == "run-sim.mpi_p2p-trivial-w2-s3-p0"

    def test_exclusion_rule_cuts_matching_cells(self):
        spec = small_spec(
            exclude=({"runtime": "sim:dask", "pattern": "stencil_1d"},)
        )
        cells = spec.cells()
        assert len(cells) == 3
        assert not any(
            c.runtime == "sim:dask" and c.pattern == "stencil_1d"
            for c in cells
        )

    def test_exclusion_rule_accepts_value_lists(self):
        spec = small_spec(
            exclude=({"runtime": ["sim:dask"], "pattern": ["trivial", "stencil_1d"]},)
        )
        assert all(c.runtime == "serial" for c in spec.cells())

    def test_excluding_every_cell_is_an_error(self):
        spec = small_spec(exclude=({"metric": "run"},))
        with pytest.raises(SpecError, match="removed every cell"):
            spec.cells()

    def test_duplicate_runtimes_rejected(self):
        spec = small_spec(runtimes=("serial", "serial"))
        with pytest.raises(SpecError, match="duplicate cells"):
            spec.cells()

    @pytest.mark.parametrize("overrides,message", [
        (dict(runtimes=("warp_drive",)), "unknown runtime"),
        (dict(runtimes=("sim:warp_drive",)), "unknown simulated system"),
        (dict(patterns=("zigzag",)), "zigzag"),
        (dict(metrics=("speedup",)), "unknown metric"),
        (dict(kernel="quantum"), "quantum"),
        (dict(widths=()), "must not be empty"),
        (dict(widths=(0,)), "must be >= 1"),
        (dict(widths=(True,)), "non-negative integers"),
        (dict(payload_bytes=(-1,)), "non-negative integers"),
        (dict(workers=0), "workers must be >= 1"),
        (dict(target=1.5), "target must be in"),
        (dict(target=0.0), "target must be in"),
        (dict(timeout=0.0), "timeout must be > 0"),
        (dict(cell_timeout=-1.0), "cell_timeout must be > 0"),
        (dict(name="a/b"), "non-empty slug"),
        (dict(name=""), "non-empty slug"),
        (dict(exclude=({},)), "must constrain an axis"),
        (dict(exclude=({"colour": "red"},)), "axis 'colour' unknown"),
    ])
    def test_validation(self, overrides, message):
        with pytest.raises(SpecError, match=message):
            small_spec(**overrides)

    def test_fingerprint_stable_and_shape_sensitive(self):
        assert small_spec().fingerprint() == small_spec().fingerprint()
        assert small_spec().fingerprint() != small_spec(widths=(4,)).fingerprint()

    def test_graphs_memoized_but_fresh_identity(self):
        cell = make_cell()
        (g1,), (g2,) = cell.graphs_at(8), cell.graphs_at(8)
        # Distinct objects (worker caches key on identity) ...
        assert g1 is not g2
        # ... sharing the one expensive dependence relation.
        assert g1.spec is g2.spec
        (g3,) = cell.graphs_at(16)
        assert g3.kernel.iterations == 16


class TestSpecLoading:
    def test_scalars_promoted_to_axes(self):
        spec = spec_from_mapping({
            "name": "s", "runtimes": "serial", "patterns": "trivial",
            "widths": 2, "metrics": "metg",
        })
        assert spec.runtimes == ("serial",)
        assert spec.widths == (2,)
        assert spec.metrics == ("metg",)

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec key 'runtimez'"):
            spec_from_mapping({
                "name": "s", "runtimez": ["serial"], "patterns": ["trivial"],
            })

    def test_schema_version_checked(self):
        with pytest.raises(SpecError, match="schema_version"):
            spec_from_mapping({
                "name": "s", "runtimes": ["serial"], "patterns": ["trivial"],
                "schema_version": 99,
            })
        spec = spec_from_mapping({
            "name": "s", "runtimes": ["serial"], "patterns": ["trivial"],
            "schema_version": 1,
        })
        assert spec.name == "s"

    def test_non_mapping_rejected(self):
        with pytest.raises(SpecError, match="must be a mapping"):
            spec_from_mapping(["serial"])

    def test_round_trip_through_canonical_mapping(self):
        spec = small_spec(exclude=({"pattern": "stencil_1d", "runtime": "sim:dask"},))
        again = spec_from_mapping(spec.to_mapping())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_load_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "runtimes": ["serial"], "patterns": ["trivial"], "widths": [2, 4],
        }))
        spec = load_spec(path)
        assert spec.name == "sweep"  # defaults to the file stem
        assert spec.widths == (2, 4)

    def test_load_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "sweep.toml"
        path.write_text(
            'runtimes = ["serial", "sim:dask"]\n'
            'patterns = ["trivial"]\n'
            'metrics = ["metg"]\n'
            'target = 0.5\n'
            '[[exclude]]\n'
            'runtime = "sim:dask"\n'
        )
        spec = load_spec(path)
        assert spec.metrics == ("metg",)
        assert [c.runtime for c in spec.cells()] == ["serial"]

    def test_load_errors(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecError, match="bad.json"):
            load_spec(bad)
        other = tmp_path / "spec.yaml"
        other.write_text("runtimes: [serial]")
        with pytest.raises(SpecError, match=".json or .toml"):
            load_spec(other)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------
def fake_record(key, status="ok", **measurements):
    runtime, pattern = "serial", "trivial"
    return {
        "key": key,
        "cell": {"metric": "run", "runtime": runtime, "pattern": pattern,
                 "width": 2, "steps": 3, "payload_bytes": 0},
        "status": status,
        "wall_seconds": 0.25,
        "measurements": measurements,
    }


class TestSuiteStore:
    def test_ensure_idempotent_and_spec_bound(self, tmp_path):
        store = SuiteStore(tmp_path / "st")
        store.ensure(small_spec())
        store.ensure(small_spec())  # same fingerprint: fine
        with pytest.raises(StoreError, match="refusing"):
            store.ensure(small_spec(widths=(8,)))

    def test_write_read_round_trip(self, tmp_path):
        store = SuiteStore(tmp_path)
        record = fake_record("run-serial-trivial-w2-s3-p0", efficiency=0.9)
        path = store.write(record)
        assert path.name == "run-serial-trivial-w2-s3-p0.json"
        back = store.read("run-serial-trivial-w2-s3-p0")
        assert back["status"] == "ok"
        assert back["measurements"]["efficiency"] == 0.9
        assert back["schema_version"] == 1
        # Atomic write leaves no temp files behind.
        assert list(store.cells_dir.glob("*.tmp")) == []

    def test_record_without_key_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="no cell key"):
            SuiteStore(tmp_path).write({"status": "ok"})

    def test_unreadable_records_skipped(self, tmp_path):
        store = SuiteStore(tmp_path)
        store.write(fake_record("a"))
        store.cells_dir.joinpath("broken.json").write_text("{truncated")
        assert store.read("broken") is None
        assert store.read("absent") is None
        assert [r["key"] for r in store.records()] == ["a"]

    def test_completed_only_terminal_statuses(self, tmp_path):
        store = SuiteStore(tmp_path)
        store.write(fake_record("a", status="ok"))
        store.write(fake_record("b", status="unachievable"))
        store.write(fake_record("c", status="failed"))
        assert store.completed() == {"a", "b"}
        assert set(TERMINAL_STATUSES) == {"ok", "unachievable"}


class TestAggregation:
    def records(self):
        return [
            fake_record("b-key", metg_seconds=1.5e-3, efficiency=0.51,
                        probes=7),
            fake_record("a-key", status="failed"),
            fake_record("c-key", granularity_seconds=2e-4, efficiency=0.9,
                        flops_per_second=1e8, probes=1),
        ]

    def test_rows_sorted_with_fixed_columns(self):
        rows = aggregate_rows(self.records())
        assert [r["key"] for r in rows] == ["a-key", "b-key", "c-key"]
        assert rows[0]["status"] == "failed"
        assert rows[0]["metg_seconds"] is None  # missing measurement
        assert rows[1]["metg_seconds"] == 1.5e-3
        assert rows[2]["probes"] == 1

    def test_same_records_render_byte_identical(self):
        rows1 = aggregate_rows(self.records())
        rows2 = aggregate_rows(list(reversed(self.records())))
        assert render_csv(rows1) == render_csv(rows2)
        assert render_table(rows1) == render_table(rows2)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text(render_csv(aggregate_rows(self.records())))
        rows = load_rows(path)
        assert len(rows) == 3
        by_key = {r["key"]: r for r in rows}
        assert by_key["a-key"]["metg_seconds"] is None
        assert by_key["b-key"]["metg_seconds"] == pytest.approx(1.5e-3)
        assert by_key["b-key"]["probes"] == 7
        assert isinstance(by_key["c-key"]["width"], int)

    def test_table_has_header_and_one_line_per_record(self):
        table = render_table(aggregate_rows(self.records()))
        lines = table.splitlines()
        assert lines[0].startswith("metric")
        assert "metg_seconds" in lines[0]
        assert len(lines) == 4

    def test_suite_series_groups_and_skips_missing(self):
        from repro.analysis import suite_series

        rows = [
            {"runtime": "serial", "width": 4, "metg_seconds": 2.0},
            {"runtime": "serial", "width": 2, "metg_seconds": 1.0},
            {"runtime": "sim:dask", "width": 2, "metg_seconds": 3.0},
            {"runtime": "serial", "width": 8, "metg_seconds": None},  # failed
        ]
        fig = suite_series(rows, figure_id="f", title="t")
        by_label = {s.label: s for s in fig.series}
        assert set(by_label) == {"serial", "sim:dask"}
        assert by_label["serial"].x == [2.0, 4.0]  # sorted on x
        assert by_label["serial"].y == [1.0, 2.0]
        assert by_label["sim:dask"].y == [3.0]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
def running_job(cell: Cell) -> _Job:
    return _Job(cell=cell, proc=None, claim=claim_for_cell(cell), started=0.0)


class TestAdmission:
    def test_job_cap(self):
        running = [running_job(make_cell())]
        assert not admissible(make_cell(), running, jobs=1, core_budget=64)
        assert admissible(make_cell(), running, jobs=2, core_budget=64)

    def test_idle_scheduler_admits_anything(self):
        big = make_cell(runtime="processes", workers=64)
        assert admissible(big, [], jobs=1, core_budget=1)

    def test_core_budget(self):
        running = [running_job(make_cell(runtime="processes", workers=2))]
        assert admissible(make_cell(), running, jobs=4, core_budget=3)
        assert not admissible(
            make_cell(runtime="processes", workers=2), running,
            jobs=4, core_budget=3,
        )

    def test_cluster_cells_never_overlap(self):
        running = [running_job(make_cell(runtime="cluster_tcp"))]
        other_mesh = make_cell(runtime="cluster_uds")
        assert not admissible(other_mesh, running, jobs=4, core_budget=64)
        assert admissible(make_cell(), running, jobs=4, core_budget=64)

    def test_shm_cells_serialized_against_each_other(self):
        """Cells that will put payloads in /dev/shm slabs never overlap,
        under either name of the process executor; 16-byte cells pickle
        their rows and overlap anything."""
        for name in ("processes", "shm_processes"):
            small = make_cell(runtime=name, payload_bytes=16)
            big = make_cell(runtime=name, pattern="tree", payload_bytes=65536)
            assert not claim_for_cell(small).slabs
            assert claim_for_cell(big).slabs
            for other in ("processes", "shm_processes"):
                on_slabs = [running_job(
                    make_cell(runtime=other, payload_bytes=65536))]
                pickled = [running_job(
                    make_cell(runtime=other, payload_bytes=16))]
                assert not admissible(big, on_slabs, jobs=4, core_budget=64)
                assert admissible(small, on_slabs, jobs=4, core_budget=64)
                assert admissible(big, pickled, jobs=4, core_budget=64)
        assert not claim_for_cell(
            make_cell(runtime="sim:dask", payload_bytes=65536)).slabs

    def test_cell_cost(self):
        assert cell_cost(make_cell(runtime="sim:dask", workers=8)) == 1
        assert cell_cost(make_cell(runtime="serial", workers=8)) == 1
        assert cell_cost(make_cell(runtime="processes", workers=3)) == 3
        assert cell_cost(make_cell(runtime="cluster_tcp", workers=2)) == 3

    def test_core_cost_rejects_bad_workers(self):
        from repro.runtimes import runtime_core_cost

        with pytest.raises(ValueError, match=">= 1"):
            runtime_core_cost("serial", 0)


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------
class TestRunCell:
    @pytest.fixture(autouse=True)
    def pinned_calibration(self, monkeypatch):
        # A pinned reference keeps these tests calibration-free and fast.
        monkeypatch.setenv(PEAK_FLOPS_ENV, "1e9")

    def test_run_metric_records_measurements(self):
        record = run_cell(make_cell(iterations=4))
        assert record["status"] == "ok"
        assert record["key"] == "run-serial-trivial-w2-s3-p0"
        assert record["cell"]["runtime"] == "serial"
        m = record["measurements"]
        assert m["probes"] == 1
        assert m["granularity_seconds"] > 0
        assert 0 <= m["efficiency"]
        assert record["wall_seconds"] > 0

    def test_metg_metric_on_simulated_runtime(self):
        record = run_cell(make_cell(
            runtime="sim:mpi_bulk_sync", metric="metg", width=8, steps=4,
            iterations=1, cores_per_node=8,
        ))
        assert record["status"] == "ok"
        m = record["measurements"]
        assert m["metg_seconds"] > 0
        assert m["probes"] >= 2
        assert m["efficiency"] >= 0.5

    def test_unachievable_target_is_terminal_not_failed(self):
        # Width 2 on a 32-core simulated node caps efficiency at ~6 %:
        # the 50 % target is unreachable at any granularity (paper §5.3).
        record = run_cell(make_cell(
            runtime="sim:mpi_p2p", metric="metg", width=2, steps=4,
            iterations=1, cores_per_node=32, max_iterations=1 << 12,
        ))
        assert record["status"] == "unachievable"
        assert "error" in record
        assert record["key"] in record["key"]

    def test_broken_cell_fails_without_raising(self):
        record = run_cell(make_cell(runtime="warp_drive"))
        assert record["status"] == "failed"
        assert "ValueError" in record["error"]
        assert record["measurements"] == {}


# ---------------------------------------------------------------------------
# The scheduler loop
# ---------------------------------------------------------------------------
class TestRunSuite:
    @pytest.fixture(autouse=True)
    def pinned_calibration(self, monkeypatch):
        monkeypatch.setenv(PEAK_FLOPS_ENV, "1e9")

    def test_parallel_run_completes_every_cell(self, tmp_path):
        spec = small_spec()
        store = SuiteStore(tmp_path / "st")
        lines = []
        summary = run_suite(spec, store, jobs=2, echo=lines.append)
        assert summary.total == 4
        assert summary.skipped == 0
        assert summary.ok == 4
        assert summary.failed == 0
        assert store.completed() == {c.key for c in spec.cells()}
        assert any(line.startswith("[1/4] start") for line in lines)

    def test_resume_skips_completed_and_retries_failed(self, tmp_path):
        spec = small_spec()
        store = SuiteStore(tmp_path / "st")
        run_suite(spec, store, jobs=2)
        keys = sorted(store.completed())
        # Forge one failure: a resume must re-run exactly that cell.
        store.write(fake_record(keys[0], status="failed"))
        before = {
            k: store.cell_path(k).read_bytes() for k in keys[1:]
        }
        summary = run_suite(spec, store, jobs=1, resume=True)
        assert summary.skipped == 3
        assert summary.ran == 1
        assert summary.ok == 1
        # Untouched cells keep their exact bytes.
        for key, blob in before.items():
            assert store.cell_path(key).read_bytes() == blob

    def test_resume_of_complete_store_is_a_no_op(self, tmp_path):
        spec = small_spec()
        store = SuiteStore(tmp_path / "st")
        run_suite(spec, store, jobs=2)
        rows_before = aggregate_rows(store.records())
        summary = run_suite(spec, store, jobs=2, resume=True)
        assert summary.ran == 0
        assert summary.skipped == summary.total == 4
        assert render_csv(aggregate_rows(store.records())) == \
            render_csv(rows_before)

    def test_fresh_run_against_other_spec_store_refuses(self, tmp_path):
        store = SuiteStore(tmp_path / "st")
        run_suite(small_spec(), store, jobs=1)
        with pytest.raises(StoreError, match="refusing"):
            run_suite(small_spec(widths=(8,)), store, jobs=1)

    def test_cell_deadline_kills_and_records_failure(self, tmp_path):
        # One cell whose compute far exceeds the deadline: the scheduler
        # must kill the worker and leave a terminal "failed" record.
        rate = peak_flops_per_core()  # honours the pinned 1e9 env value
        slow_iters = int(20.0 * rate / FLOPS_PER_ITERATION)
        spec = small_spec(
            runtimes=("serial",), patterns=("trivial",), widths=(1,),
            steps=(1,), iterations=slow_iters, cell_timeout=0.4,
        )
        store = SuiteStore(tmp_path / "st")
        summary = run_suite(spec, store, jobs=1)
        assert summary.failed == 1
        record = store.read(spec.cells()[0].key)
        assert record["status"] == "failed"
        assert "deadline" in record["error"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestSuiteCLI:
    @pytest.fixture(autouse=True)
    def pinned_calibration(self, monkeypatch):
        monkeypatch.setenv(PEAK_FLOPS_ENV, "1e9")

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps({
            "runtimes": ["serial", "sim:dask"],
            "patterns": ["trivial", "stencil_1d"],
            "widths": [2], "steps": [3], "iterations": 4,
        }))
        return path

    def test_suite_end_to_end_with_csv_and_report(self, spec_file, tmp_path,
                                                  capsys):
        out = tmp_path / "store"
        csv = tmp_path / "agg.csv"
        code = main(["suite", str(spec_file), "--jobs", "2",
                     "--out", str(out), "--csv", str(csv), "--report",
                     "--quiet"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Suite Cells 4 (0 already complete)" in captured
        assert "4 ok" in captured
        text = csv.read_text()
        assert text.startswith("key,metric,runtime")
        assert text.count("\n") == 5  # header + four cells
        assert "metg_seconds" in captured  # the --report table

    def test_refuses_to_clobber_without_resume(self, spec_file, tmp_path,
                                               capsys):
        out = tmp_path / "store"
        assert main(["suite", str(spec_file), "--out", str(out),
                     "--quiet"]) == 0
        assert main(["suite", str(spec_file), "--out", str(out),
                     "--quiet"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_rerender_is_byte_identical(self, spec_file, tmp_path):
        out = tmp_path / "store"
        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        assert main(["suite", str(spec_file), "--jobs", "2",
                     "--out", str(out), "--csv", str(csv1), "--quiet"]) == 0
        assert main(["suite", str(spec_file), "--resume",
                     "--out", str(out), "--csv", str(csv2), "--quiet"]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()

    @pytest.mark.parametrize("argv,fragment", [
        ([], "exactly one spec"),
        (["a.json", "b.json"], "exactly one spec"),
        (["--jobs"], "missing its value"),
        (["--jobs", "zero", "s.json"], "expects an integer"),
        (["--jobs", "0", "s.json"], ">= 1"),
        (["--cores", "-2", "s.json"], ">= 1"),
        (["--frobnicate", "s.json"], "unknown suite flag"),
    ])
    def test_usage_errors(self, argv, fragment, capsys):
        assert main(["suite", *argv]) == 2
        assert fragment in capsys.readouterr().err

    def test_bad_spec_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"runtimes": ["nope"], "patterns": ["trivial"]}))
        assert main(["suite", str(path)]) == 2
        assert "unknown runtime" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Crash recovery: kill -9 mid-suite, resume, byte-identical aggregate
# ---------------------------------------------------------------------------
class TestKillResume:
    def test_sigkill_then_resume_completes_remainder(self, tmp_path,
                                                     monkeypatch):
        rate = peak_flops_per_core()
        monkeypatch.setenv(PEAK_FLOPS_ENV, repr(rate))
        # Six serial cells of ~0.4 s each (distinguished by payload size so
        # compute time is identical), run with --jobs 1 so the kill lands
        # between cells-in-progress, not after the suite is done.
        cell_iters = max(1, int(0.4 * rate / FLOPS_PER_ITERATION))
        spec_path = tmp_path / "kill.json"
        spec_path.write_text(json.dumps({
            "runtimes": ["serial"], "patterns": ["trivial"],
            "widths": [1], "steps": [1],
            "payload_bytes": [0, 1, 2, 3, 4, 5],
            "iterations": cell_iters,
        }))
        out = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "suite", str(spec_path),
             "--out", str(out), "--quiet"],
            cwd=Path(__file__).resolve().parent.parent,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill once at least one cell is durably recorded but before
            # the whole suite finishes.
            deadline = time.monotonic() + 60
            store = SuiteStore(out)
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if len(store.completed()) >= 1:
                    break
                time.sleep(0.02)
            assert proc.poll() is None, \
                "suite finished before the kill; cells sized too small"
            assert len(store.completed()) >= 1
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        survivors = {
            key: store.cell_path(key).read_bytes()
            for key in store.completed()
        }
        total = 6
        assert 1 <= len(survivors) < total
        # Every surviving record is whole (valid JSON with a terminal
        # status) — the atomic write never leaves a torn record.
        for blob in survivors.values():
            assert json.loads(blob)["status"] in TERMINAL_STATUSES

        code = main(["suite", str(spec_path), "--resume",
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert len(store.completed()) == total
        # The resume never rewrote what the killed run had recorded.
        for key, blob in survivors.items():
            assert store.cell_path(key).read_bytes() == blob
