"""Unit and property tests for the span tracer (repro.trace).

Layers, bottom-up:

* the recorder: bounded per-thread buffers with an exact drop counter
  (property: at/below capacity nothing drops; above it, the counter
  equals the excess exactly);
* merging: K rank dumps under arbitrary clock skews merge into a single
  timeline that is sorted and collision-free in its track names
  (property over random skews and buffer shapes);
* the Chrome exporter: schema-valid output, value-preserving round trip
  through ``write_chrome``/``load_chrome``, and a validator that actually
  rejects malformed documents;
* the wire TRACE frame: exact round trip, loud failure on corruption;
* the Gantt renderer: structured spans render, empty/zero-span traces
  degrade gracefully (the historical ``ev[4]``/``ev[5]`` regression);
* the CLI: ``--trace`` writes a valid file, the ``trace`` subcommand
  summarizes and renders it, and the flag exclusions hold.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import audit_run, instrument
from repro.check.concurrency import _REAL_LOCK
from repro.cli import main
from repro.cluster.wire import MSG_TRACE, WireError, decode, encode_trace
from repro.core import DependenceType, TaskGraph, ValidationError
from repro.core.diagnostics import findings
from repro.runtimes import _common, make_executor
from repro.runtimes._common import TraceRecorder, capturing_outputs, tracing
from repro.trace import recorder as trace
from repro.trace.conformance import check_trace
from repro.trace.export import (
    load_chrome,
    to_chrome,
    validate_chrome,
    write_chrome,
)
from repro.trace.merge import align_offset, merge_dumps
from repro.trace.recorder import SpanRecorder, Trace, TraceRecord
from tests.buggy_executor import UnluckyDroppedEdgeExecutor


def _event(ts, dur=1, name="task", cat=trace.CAT_KERNEL, args=None):
    return ("X", name, cat, ts, dur, args)


# ---------------------------------------------------------------------------
# Recorder capacity and drops
# ---------------------------------------------------------------------------


class TestRecorderBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        extra=st.integers(min_value=0, max_value=100),
    )
    def test_drop_counter_is_exact(self, capacity, extra):
        """<= capacity: everything kept.  Beyond: exactly the excess is
        dropped, and the kept prefix is untouched (drop-newest)."""
        rec = SpanRecorder(capacity_per_thread=capacity)
        total = capacity + extra
        for n in range(total):
            rec.add(_event(n, args={"task": (0, 0, n)}))
        tr = rec.collect()
        assert len(tr.records) == min(total, capacity)
        assert tr.dropped == max(0, total - capacity)
        kept = [r.args["task"][2] for r in tr.records]
        assert kept == list(range(min(total, capacity)))

    def test_threads_record_into_distinct_tracks(self):
        rec = SpanRecorder(capacity_per_thread=256)
        barrier = threading.Barrier(4)

        def work(k):
            barrier.wait()
            for n in range(50):
                rec.add(_event(n, args={"task": (k, 0, n)}))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tr = rec.collect()
        assert len(tr.records) == 200
        assert tr.dropped == 0
        assert len(tr.tracks()) == 4
        for records in tr.tracks().values():
            assert len(records) == 50

    def test_capture_is_exclusive_and_restores_disabled(self):
        assert not trace.enabled
        with trace.capture() as rec:
            assert trace.enabled
            with pytest.raises(RuntimeError):
                with trace.capture():
                    pass  # pragma: no cover
            trace.complete("task", trace.CAT_KERNEL, trace.begin())
            assert len(rec.collect().records) == 1
        assert not trace.enabled
        assert trace.active() is None

    def test_disabled_module_api_is_inert(self):
        trace.complete("task", trace.CAT_KERNEL, trace.begin())
        trace.instant("x")
        trace.counter("c", {"v": 1})
        assert trace.active() is None


# ---------------------------------------------------------------------------
# Merging under clock skew
# ---------------------------------------------------------------------------


class TestMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        ranks=st.integers(min_value=1, max_value=5),
        skews=st.lists(
            st.integers(min_value=-10**12, max_value=10**12),
            min_size=5,
            max_size=5,
        ),
        counts=st.lists(
            st.integers(min_value=0, max_value=20), min_size=5, max_size=5
        ),
    )
    def test_merged_timeline_is_monotone_and_collision_free(
        self, ranks, skews, counts
    ):
        """Merging K skewed rank dumps yields one timeline sorted by
        timestamp, with every rank's records intact under distinct track
        names and timestamps shifted by exactly its offset."""
        parts = []
        for r in range(ranks):
            events = [_event(1000 * n, args=None) for n in range(counts[r])]
            parts.append((f"rank-{r}", skews[r], [["MainThread", 0, events]]))
        tr = merge_dumps(parts)
        assert len(tr.records) == sum(counts[:ranks])
        ts = [rec.ts_ns for rec in tr.records]
        assert ts == sorted(ts)
        for r in range(ranks):
            track = [rec for rec in tr.records if rec.pid == f"rank-{r}"]
            assert [rec.ts_ns for rec in track] == [
                1000 * n + skews[r] for n in range(counts[r])
            ]
        # One track per (pid, tid): no rank's records were folded into
        # another's despite every dump reusing the tid "MainThread".
        assert len(tr.tracks()) == sum(1 for r in range(ranks) if counts[r])

    def test_same_pid_tid_collisions_are_suffixed(self):
        events = [_event(0)]
        tr = merge_dumps(
            [
                ("w", 0, [["t", 0, events], ["t", 0, events]]),
            ]
        )
        assert sorted(tid for _, tid in tr.tracks()) == ["t", "t~2"]

    def test_align_offset_midpoint(self):
        # Parent sends at 100, receives at 300; rank clock read 5000 at
        # the midpoint estimate 200 -> offset -4800 maps 5000 to 200.
        off = align_offset(100, 300, 5000)
        assert 5000 + off == 200

    def test_dropped_counts_accumulate(self):
        tr = merge_dumps(
            [
                ("a", 0, [["t", 3, [_event(0)]]]),
                ("b", 0, [["t", 4, []]]),
            ]
        )
        assert tr.dropped == 7


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------


def _sample_trace() -> Trace:
    records = [
        TraceRecord("X", "main", "t0", "task", trace.CAT_KERNEL, 2000, 1500,
                    {"task": (0, 1, 2)}),
        TraceRecord("i", "main", "t0", "acquire", trace.CAT_SCHED, 3000, 0,
                    {"task": (0, 1, 2), "source": (0, 0, 2)}),
        TraceRecord("C", "main", "t0", "wire.bytes", trace.CAT_WIRE, 3500, 0,
                    {"sent": 10, "received": 4}),
    ]
    return Trace(records, dropped=3)


class TestChromeExport:
    def test_export_is_schema_valid(self):
        obj = json.loads(json.dumps(to_chrome(_sample_trace())))
        assert validate_chrome(obj) == []
        assert obj["otherData"]["dropped_events"] == 3
        # Timestamps are rebased so the earliest event sits at 0 us.
        assert min(e["ts"] for e in obj["traceEvents"]) == 0

    def test_round_trip_preserves_values(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome(_sample_trace(), path)
        tr = load_chrome(path)
        assert tr.dropped == 3
        [span] = tr.spans
        assert span.name == "task"
        assert span.cat == trace.CAT_KERNEL
        assert span.dur_ns == 1500
        assert span.args["task"] == (0, 1, 2)
        [inst] = tr.instants
        assert inst.args["source"] == (0, 0, 2)
        [ctr] = tr.counters
        assert ctr.args == {"sent": 10, "received": 4}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.__setitem__("traceEvents", {}),
            lambda o: o["traceEvents"][0].pop("ph"),
            lambda o: o["traceEvents"][0].__setitem__("ph", "Z"),
            lambda o: o["traceEvents"][0].__setitem__("pid", 7),
            lambda o: o["traceEvents"][0].__setitem__("dur", -1.0),
            lambda o: o["traceEvents"][0].pop("ts"),
        ],
        ids=["events-not-list", "no-ph", "bad-ph", "int-pid", "neg-dur",
             "no-ts"],
    )
    def test_validator_rejects_malformed(self, mutate):
        obj = to_chrome(_sample_trace())
        obj = json.loads(json.dumps(obj))
        mutate(obj)
        assert validate_chrome(obj)

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"name": "x"}]}')
        with pytest.raises(ValueError):
            load_chrome(str(path))


# ---------------------------------------------------------------------------
# Wire TRACE frames
# ---------------------------------------------------------------------------


class TestWireTrace:
    def test_round_trip(self):
        buffers = [["MainThread", 2, [list(_event(5, args={"task": [0, 1, 2]}))]]]
        frame = encode_trace(3, 123456789, buffers)
        kind, rank, clock_ns, decoded = decode(memoryview(frame))
        assert (kind, rank, clock_ns) == (MSG_TRACE, 3, 123456789)
        assert decoded == buffers

    def test_corrupt_payload_raises(self):
        frame = encode_trace(0, 1, [])
        with pytest.raises(WireError):
            decode(memoryview(frame[:-1] + b"\xff"))

    def test_short_frame_raises(self):
        frame = encode_trace(0, 1, [])
        with pytest.raises(WireError):
            decode(memoryview(frame[:4]))

    def test_non_list_payload_raises(self):
        from repro.cluster.wire import TRACE_STRUCT

        frame = TRACE_STRUCT.pack(MSG_TRACE, 0, 1) + b'{"a": 1}'
        with pytest.raises(WireError):
            decode(memoryview(frame))


# ---------------------------------------------------------------------------
# Gantt over structured spans
# ---------------------------------------------------------------------------


class TestStructuredGantt:
    def test_renders_span_records(self):
        from repro.analysis import render_gantt

        records = [
            TraceRecord("X", "main", "w0", "task", trace.CAT_KERNEL, 0,
                        10_000_000, {"task": (0, 0, 0)}),
            TraceRecord("X", "main", "w1", "task", trace.CAT_KERNEL,
                        5_000_000, 10_000_000, {"task": (1, 0, 1)}),
            # Non-kernel spans must not occupy cells.
            TraceRecord("X", "main", "w0", "publish", trace.CAT_PUBLISH,
                        0, 20_000_000, None),
        ]
        text = render_gantt(records, width=20)
        assert "main/w0" in text and "main/w1" in text
        assert "0" in text and "1" in text
        assert "15 ms" in text

    def test_empty_trace_renders_placeholder(self):
        from repro.analysis import render_gantt

        assert "(empty trace)" in render_gantt([])
        # A trace with records but no kernel spans degrades the same way
        # (the historical ev[4]/ev[5] IndexError regression).
        only_instant = [
            TraceRecord("i", "main", "t", "acquire", trace.CAT_SCHED, 5, 0,
                        None)
        ]
        assert "(empty trace)" in render_gantt(only_instant)

    def test_zero_duration_spans_do_not_crash(self):
        from repro.analysis import render_gantt

        records = [
            TraceRecord("X", "main", "t", "task", trace.CAT_KERNEL, 100, 0,
                        {"task": (0, 0, 0)}),
        ]
        text = render_gantt(records)
        assert "main/t" in text

    def test_tuple_path_still_requires_num_workers(self):
        from repro.analysis import render_gantt

        with pytest.raises(ValueError, match="num_workers"):
            render_gantt([(0, 0, 0, 0, 0.0, 1.0)])
        assert "core 0" in render_gantt([(0, 0, 0, 0, 0.0, 1.0)], 1)


# ---------------------------------------------------------------------------
# Conformance checker on synthetic traces
# ---------------------------------------------------------------------------


class TestChecker:
    def test_flags_negative_duration(self):
        tr = Trace([TraceRecord("X", "p", "t", "task", trace.CAT_KERNEL,
                                10, -5, None)])
        assert any("negative" in p for p in check_trace(tr))

    def test_flags_interleaved_spans_on_one_track(self):
        tr = Trace([
            TraceRecord("X", "p", "t", "a", trace.CAT_DISPATCH, 0, 10, None),
            TraceRecord("X", "p", "t", "b", trace.CAT_DISPATCH, 5, 10, None),
        ])
        assert check_trace(tr)

    def test_clean_nesting_passes(self):
        # Recorded order follows span *completion* (complete() appends at
        # end time), so the inner span lands in the buffer first.
        tr = Trace([
            TraceRecord("X", "p", "t", "inner", trace.CAT_KERNEL, 5, 10,
                        {"task": (0, 0, 0)}),
            TraceRecord("X", "p", "t", "outer", trace.CAT_DISPATCH, 0, 20,
                        None),
        ])
        assert check_trace(tr) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_RUN_ARGS = [
    "-steps", "4", "-width", "4", "-type", "stencil_1d",
    "-kernel", "empty", "-runtime", "threads", "-workers", "2",
]


class TestCLI:
    def test_trace_flag_writes_valid_chrome_json(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        assert main(_RUN_ARGS + ["--trace", path]) == 0
        out = capsys.readouterr().out
        assert "Trace Spans" in out
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert validate_chrome(obj) == []
        kernels = [
            e for e in obj["traceEvents"]
            if e.get("ph") == "X" and e.get("cat") == "kernel"
        ]
        assert len(kernels) == 16

    def test_trace_subcommand_summary_and_gantt(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        assert main(_RUN_ARGS + ["--trace", path]) == 0
        capsys.readouterr()
        assert main(["trace", path]) == 0
        assert "kernel spans" in capsys.readouterr().out
        assert main(["trace", path, "--gantt"]) == 0
        assert "cells: digit = graph index" in capsys.readouterr().out

    def test_trace_subcommand_rejects_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["trace", str(bad)]) == 1
        assert main(["trace", str(tmp_path / "missing.json")]) == 2
        assert main(["trace"]) == 2

    def test_trace_flag_exclusions(self, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        assert main(_RUN_ARGS + ["--trace", path, "-metg"]) == 2
        assert main(_RUN_ARGS + ["--trace"]) == 2
        sim = ["-steps", "4", "-width", "4", "-runtime", "sim:mpi_p2p",
               "--trace", path]
        assert main(sim) == 2

    @pytest.mark.parametrize("runtime", ["threads", "cluster_uds"])
    def test_watching_flags_compose(self, runtime, tmp_path, capsys):
        path = str(tmp_path / "out.json")
        args = ["-steps", "10", "-width", "8", "-type", "stencil_1d",
                "-kernel", "empty", "-runtime", runtime, "-workers", "2"]
        assert main(args + ["--audit", "--sanitize", "--trace", path,
                            "--report"]) == 0
        out = capsys.readouterr().out
        for line in ("Total Tasks 80", "Bytes Copied", "Trace Spans",
                     "Audit clean (430 events)", "Sanitizer clean (430 events"):
            assert line in out
        with open(path, encoding="utf-8") as fh:
            assert validate_chrome(json.load(fh)) == []

    def test_observed_run_keeps_the_runs_options(self, capsys):
        """An injected crash kills an audited run as it kills a plain one
        (it used to be dropped with every other run option), and the
        data-plane report prints beside the audit summary."""
        args = ["-steps", "10", "-width", "8", "-type", "stencil_1d",
                "-kernel", "empty", "-runtime", "processes", "-workers", "2",
                "--audit"]
        assert main(args + ["--inject-fault", "crash:0:2",
                            "--timeout", "20"]) == 1
        captured = capsys.readouterr()
        assert "worker 0 died" in captured.err
        assert "Audit clean" not in captured.out
        assert main(args + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "Bytes Copied" in out and "Audit clean (430 events)" in out


# ----------------------------------------------------------------------
# Sinks compose: audit + sanitizer + conformance capture + span recorder
# ----------------------------------------------------------------------
def _stencil():
    return [TaskGraph(timesteps=6, max_width=4,
                      dependence=DependenceType.STENCIL_1D)]


class TestSinksCompose:
    @pytest.mark.parametrize("runtime", [
        "serial", "threads", "dataflow", "processes", "shm_processes",
        "cluster_uds",
    ])
    def test_all_four_at_once(self, runtime):
        graphs = _stencil()
        with capturing_outputs() as want:
            make_executor("serial").run(graphs)
        ex = None
        try:
            with trace.capture() as spans, instrument() as san, \
                    capturing_outputs() as got:
                ex = make_executor(runtime, workers=2)  # with sanitized locks
                audit = audit_run(ex, graphs)
                tr = spans.collect()
            alone = audit_run(ex, graphs)
        finally:
            if ex is not None:
                ex.close()
        assert got == want
        assert audit.ok and findings(san.diagnostics) == []
        assert check_trace(tr, graphs) == []
        assert audit.num_events == alone.num_events == 118
        assert san.stats.reads_checked == graphs[0].total_dependencies()
        # Acquire instants only where a task acquired its inputs live, on
        # the thread that did; a row retired after the fact leaves none.
        live = runtime in ("threads", "dataflow")
        acquires = [r for r in tr.instants if r.name == "acquire"]
        assert len(acquires) == (san.stats.reads_checked if live else 0)
        kernels = {r.args["task"]: (r.pid, r.tid) for r in tr.kernel_spans()}
        assert all(kernels[r.args["task"]] == (r.pid, r.tid) for r in acquires)

    def test_two_of_one_kind_is_an_error(self):
        with tracing(TraceRecorder()), capturing_outputs(), \
                instrument(), trace.capture():
            for again, message in (
                (lambda: tracing(TraceRecorder()),
                 "a trace recorder is already installed"),
                (capturing_outputs, "an output capture is already active"),
                (instrument, "a lock sanitizer is already installed"),
                (trace.capture, "a span recorder is already active"),
            ):
                with pytest.raises(RuntimeError, match=message):
                    with again():
                        pass
            assert len(_common._sinks) == 4
        assert _common._sinks == ()
        assert threading.Lock is _REAL_LOCK and not trace.enabled

    def test_failed_run_leaves_no_sink_behind(self):
        with pytest.raises(ValidationError):
            with trace.capture(), instrument(), capturing_outputs():
                audit_run(UnluckyDroppedEdgeExecutor(), _stencil())
        assert _common._sinks == ()
        assert threading.Lock is _REAL_LOCK and not trace.enabled

    def test_sink_alone_sees_every_event_of_a_rank_run(self):
        """No recorder beside it: ``cluster_*`` used to surface its ranks'
        rows to a recorder only."""
        graphs = _stencil()
        with instrument() as san:
            ex = make_executor("cluster_uds", workers=2)
            try:
                ex.run(graphs)
            finally:
                ex.close()
        assert san.stats.reads_checked == graphs[0].total_dependencies()
        assert san.stats.publishes_seen == 20  # every row but the last
