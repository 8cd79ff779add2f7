"""Task Bench command-line interface.

One table, :data:`COMMANDS`, names every command with the function that
declares its flags and the function that runs it.  A bare invocation takes
the official Task Bench flag vocabulary (declared in
:mod:`repro.core.config`) plus selection of the execution substrate::

    # run a stencil on the real thread-pool executor
    task-bench -steps 100 -width 4 -type stencil_1d \\
               -kernel compute_bound -iter 1024 -runtime threads -workers 4

    # simulate the same benchmark on 64 Cori-like nodes under the MPI model
    task-bench -steps 100 -width 2048 -type stencil_1d \\
               -kernel compute_bound -iter 1024 \\
               -runtime sim:mpi_p2p -nodes 64 -cores 32

``-runtime sim:<system>`` selects a modeled system on the simulator
substrate; any other name selects a real executor from
``repro.runtimes``.  Output is the core library's uniform report.

A flag is declared once — in ``core/config.py`` for the paper's
vocabulary, next to its command here for the rest — and ``task-bench
--help`` / ``task-bench <command> --help`` are generated from the
declarations.  Only the chosen command's parser is built, and a handler
imports its subsystem when it runs.  Every usage problem is a
``ValueError`` by the time it reaches :func:`main`, which prints ``error:
...`` and returns 2.
"""

from __future__ import annotations

import contextlib
import sys
from argparse import Namespace
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from .core.config import (
    AppConfig, ConfigError, Parser, add_arguments, build_config, number,
)
from .core.metrics import RunResult
from .runtimes.registry import available_runtimes, describe_runtimes, make_executor


def _runtime_options(app: AppConfig) -> dict:
    """What ``-workers`` and the fault-tolerance flags hand ``make_executor``
    (``None`` leaves an option at the executor's default)."""
    from .faults import parse_fault

    fault = None if app.inject_fault is None else parse_fault(app.inject_fault)
    return {"workers": app.workers, "timeout": app.timeout, "fault": fault}


def _runner(app: AppConfig):
    """The METG runner for ``-runtime``: a simulated system on the
    ``-nodes`` x ``-cores`` machine, or a real executor."""
    from .metg.runners import make_runner

    return make_runner(
        app.runtime, nodes=app.nodes, cores_per_node=app.cores_per_node,
        max_retries=app.max_retries, **_runtime_options(app),
    )


def run_config(app: AppConfig) -> RunResult:
    """Execute a parsed configuration and return its result.

    Transient worker failures (a crashed or deadline-killed worker) are
    retried up to ``app.max_retries`` times — the executor's pool
    self-heals between attempts, so a retry costs a respawn, not a
    refork of the surviving workers.
    """
    if app.runtime.startswith("sim:"):
        return _runner(app).run(app.graphs)
    from .faults import retrying

    # One-shot CLI run: worker pools / rank meshes must not outlive it.
    with make_executor(app.runtime, **_runtime_options(app)) as executor:
        return retrying(
            lambda: executor.run(app.graphs, validate=app.validate),
            app.max_retries or 0,
        )[0]


def run_metg(app: AppConfig, target: float, *, report: bool = False) -> int:
    """Run a METG sweep for the configured graphs and runtime, print what
    it found and return the exit code.

    The configured graphs serve as the workload template; the sweep varies
    their compute-kernel iteration count exactly as §4 prescribes
    ("maintaining exactly the same hardware and software configuration").
    """
    import dataclasses

    def factory(iterations: int):
        return [
            dataclasses.replace(
                g, kernel=dataclasses.replace(g.kernel, iterations=iterations)
            )
            for g in app.graphs
        ]

    if not any(g.kernel.flops_per_task() for g in factory(1 << 20)):
        # Efficiency is FLOP/s against the calibrated peak: with no FLOPs at
        # any iteration count every probe would score 0.
        raise ConfigError("-metg needs a -kernel that reports FLOPs "
                          "(compute_bound, compute_bound2, load_imbalance)")
    from .metg.metg import METGUnachievable, metg

    # Real kernels: bound the sweep.
    most = 1 << 36 if app.runtime.startswith("sim:") else 1 << 24
    try:
        with contextlib.closing(_runner(app)) as runner:
            result = metg(runner, factory, target_efficiency=target,
                          max_iterations=most)
    except METGUnachievable as e:
        # The target efficiency is out of reach at any granularity on this
        # configuration — a legitimate finding (paper §5.3 omits such
        # combinations), not a crash.
        print(f"METG unachievable: {e}", file=sys.stderr)
        return 1
    lines = [
        f"METG({target:.0%}) {result.metg_seconds:e} seconds",
        f"Probes {len(result.history)}",
        f"Efficiency At Crossing {result.above.efficiency:.3f}",
        f"Iterations At Crossing {result.above.iterations}",
    ]
    retries = sum(
        m.result.faults.probe_retries
        for m in result.history
        if m.result.faults is not None
    )
    if report or retries:
        # Fault visibility (--report): a sweep that burned retries is a
        # measurement caveat even when every probe eventually succeeded.
        lines.append(f"Probe Retries {retries}")
        faults = getattr(getattr(runner, "executor", None), "_fault_stats", None)
        if report and faults is not None:
            lines.append(
                f"Worker Crashes {faults.worker_crashes} "
                f"({faults.worker_timeouts} deadline timeouts, "
                f"{faults.workers_respawned} respawned)"
            )
    print("\n".join(lines))
    return 0


@contextlib.contextmanager
def _config_error(*kinds: type, prefix: str = "") -> Iterator[None]:
    """Failures of ``kinds`` inside the block are the user's to fix: they
    leave as :class:`ConfigError` (exit 2)."""
    try:
        yield
    except kinds as e:
        raise ConfigError(f"{prefix}{e}") from None


@contextlib.contextmanager
def _daemon(address: str) -> Iterator:
    """A client of the daemon at ``address``; not reaching it, or being
    refused by it, is a usage error."""
    from .serve.client import ServeClient, ServeError
    from .serve.protocol import ProtocolError

    with _config_error(ServeError), _config_error(
        OSError, ProtocolError, prefix=f"cannot reach daemon at {address}: "
    ), ServeClient(address) as client:
        yield client


# ---------------------------------------------------------------------------
# Flags more than one command declares
# ---------------------------------------------------------------------------
def _metg_flag(parser) -> None:
    parser.add_argument(
        "-metg", dest="target", nargs="?", type=number(float), const=0.5,
        metavar="TARGET", help="sweep the kernel's iteration count and report "
        "METG(TARGET), the smallest task granularity that still reaches "
        "TARGET efficiency (default %(const)s)")


def _socket_flag(parser: Parser) -> None:
    from .core.envvars import env_str

    parser.add_argument(
        "--socket", "-socket", metavar="ADDR",
        default=env_str("TASKBENCH_SERVE_SOCKET", "taskbench-serve.sock"),
        help="the daemon's Unix socket path, or tcp:HOST:PORT (default "
        "%(default)s; TASKBENCH_SERVE_SOCKET sets it)")


def _quiet_flag(parser: Parser) -> None:
    parser.add_argument("--quiet", "-quiet", "-q", action="store_true",
                        help="print no progress lines")


# ---------------------------------------------------------------------------
# The bare invocation: one run (or one METG sweep)
# ---------------------------------------------------------------------------
def _run_arguments(parser: Parser) -> None:
    add_arguments(parser)
    section = parser.add_argument_group("what to run, and what to print")
    _metg_flag(section)
    flag = section.add_argument
    flag("-scenario", metavar="NAME", help="a named application scenario in "
         "place of the graph flags; -width, -steps and -iter still apply")
    flag("--report", "-report", action="store_true",
         help="append data-plane and fault / retry counters to the report")
    flag("--list-runtimes", "-list-runtimes", action="store_true",
         help="print each real executor's isolation level, admission core "
         "cost and shim lines (code lines of its module), and exit")
    flag = parser.add_argument_group(
        "watching one run (composable; real runtimes only, never with -metg)"
    ).add_argument
    flag("--audit", "-audit", action="store_true",
         help="record the schedule and run the happens-before audit")
    flag("--sanitize", "-sanitize", action="store_true",
         help="the audit plus Eraser-style lockset race detection, under "
         "instrumented locks (slower)")
    flag("--trace", "-trace", metavar="PATH",
         help="record wall-clock spans and write Chrome trace-event JSON to "
         "PATH (open it in Perfetto or chrome://tracing)")
    parser.epilog = _vocabulary


def _vocabulary() -> str:
    """What the names on a bare command line may be, read off the
    registries when help is asked for."""
    import textwrap

    from .core.scenarios import SCENARIOS
    from .sim.systems import all_systems

    lines = [
        textwrap.fill(f"{what}: {', '.join(names)}", 78, subsequent_indent="  ")
        for what, names in (
            ("-runtime NAME, real executors", available_runtimes()),
            ("-runtime sim:<system>, modeled systems", sorted(all_systems())),
            ("-scenario NAME", sorted(SCENARIOS)),
        )
    ]
    lines += ["", "Subcommands (task-bench <command> --help describes each):"]
    lines += [f"  {name:10s} {handler.__doc__.splitlines()[0]}"
              for name, (_, handler) in COMMANDS.items() if name]
    return "\n".join(lines)


def _run(ns: Namespace) -> int:
    """task-bench: a parameterized benchmark for parallel runtime performance.

    Runs the described task graphs on -runtime and prints the core
    library's uniform report.

    Exit codes: 0 done, 1 a worker failure outlasted its retries, an
    audit / sanitizer finding, or METG unachievable, 2 usage error.
    """
    if ns.list_runtimes:
        for name, isolation, cost, lines in describe_runtimes():
            print(f"{name:16s} {isolation:10s} {cost:10s} {lines:4d}")
        return 0
    metg = ns.target is not None
    if metg and not 0.0 < ns.target < 1.0:
        raise ConfigError(f"-metg target must be in (0, 1), got {ns.target}")
    app = build_config(ns)
    if ns.scenario is not None:
        from .core.scenarios import get_scenario

        template = app.graphs[0]
        kw = {"width": template.max_width, "steps": template.timesteps}
        if template.kernel.iterations:
            kw["iterations"] = template.kernel.iterations
        app.graphs = get_scenario(ns.scenario)(**kw)
    if app.verbose:
        for g in app.graphs:
            print(g.describe())
    watching = [w for w in ("trace", "sanitize", "audit") if getattr(ns, w)]
    if watching and (metg or app.runtime.startswith("sim:")):
        # Observed timings must never feed METG numbers, and the simulator
        # has its own trace (the analysis tools render it).
        raise ConfigError(f"--{watching[0]} requires a single run on a real runtime")
    from .core.diagnostics import findings, render_report
    from .faults import TRANSIENT_ERRORS

    try:
        if metg:
            return run_metg(app, ns.target, report=ns.report)
        result, summaries, diagnostics = _observed_run(
            app, audit=ns.audit, sanitize=ns.sanitize, trace_path=ns.trace,
        )
    except TRANSIENT_ERRORS as e:
        # Exhausted retries on a worker/rank failure: a detected fault, not
        # a hang — report it and fail cleanly.
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(result.report(data_plane=ns.report))
    if ns.trace is not None and not ns.report and result.trace:
        # Without --report the trace section is not in the uniform report;
        # still confirm the export so the flag visibly did something.
        for line in result.trace.report_lines():
            print(line)
    for line in summaries:
        print(line)
    bad = findings(diagnostics)
    if bad:
        print(render_report(bad))
        return 1
    return 0


def _observed_run(
    app: AppConfig, *, audit: bool, sanitize: bool, trace_path: str | None
) -> Tuple[RunResult, List[str], list]:
    """Run the configured benchmark with the requested sinks installed
    around :func:`run_config` — so faults, deadlines, retries and
    ``close()`` apply whatever is watching — and return the result, the
    sinks' summary lines and their diagnostics.

    ``--sanitize`` includes the schedule audit; ``--trace`` exports the
    merged spans as Chrome trace-event JSON at ``trace_path`` and attaches
    their counts to the result."""
    from .trace import recorder as trace_recorder

    checked = tr = None
    with contextlib.ExitStack() as stack:
        if trace_path is not None:
            rec = stack.enter_context(trace_recorder.capture())
        if sanitize:
            from .check.concurrency import SanitizeResult, instrument

            # After the span recorder, whose own lock must stay raw, and
            # around run_config, which builds the executor: its locks are
            # the ones to sanitize.
            san = stack.enter_context(instrument())
        if audit or sanitize:
            from .check.hb_audit import audited

            checked = audited(lambda: run_config(app), app.graphs, app.runtime)
            result = checked.run
        else:
            result = run_config(app)
        if trace_path is not None:
            tr = rec.collect()
    summaries: List[str] = []
    diagnostics: list = []
    if tr is not None:
        import dataclasses

        from .core.metrics import TraceStats
        from .trace.export import write_chrome

        write_chrome(tr, trace_path)
        result = dataclasses.replace(result, trace=TraceStats(
            *trace_recorder.trace_stats(tr), path=trace_path))
    if audit:
        summaries.append(checked.summary())
        diagnostics = checked.diagnostics
    if sanitize:
        checked = SanitizeResult.of(checked, san, app.runtime)
        summaries.append(checked.summary())
        diagnostics = checked.diagnostics
    return result, summaries, diagnostics


# ---------------------------------------------------------------------------
# check, trace
# ---------------------------------------------------------------------------
def _check_arguments(parser: Parser) -> None:
    add_arguments(parser)
    parser.add_argument(
        "--self", dest="self_only", action="store_true", help="lint this "
        "repo's executor sources and nothing else; takes no other argument")
    parser.add_argument(
        "-budget", type=number(float), metavar="SECONDS", help="a finding if "
        "the critical path cannot finish in SECONDS on the described machine")


def _check(ns: Namespace) -> int:
    """Run the static-analysis passes.

    The executor-contract lint and the concurrency lint (lock order,
    blocking calls) over this repo's sources, a graph lint of the described
    graphs, and — for real runtimes — a run of them under the
    happens-before schedule audit.

    Exit codes: 0 clean, 1 findings, 2 usage error.
    """
    if ns.self_only and ns != parser_for("check").parse_args(["--self"]):
        raise ConfigError("check --self takes no further arguments")
    from .check.api_lint import lint_runtime_sources
    from .check.concurrency import lint_concurrency_sources
    from .check.graph_lint import lint_graphs
    from .check.hb_audit import audited
    from .core.diagnostics import findings, render_report
    from .sim.machine import MachineSpec

    diagnostics = [*lint_runtime_sources(), *lint_concurrency_sources()]
    if not ns.self_only:
        app = build_config(ns)
        machine = MachineSpec(nodes=app.nodes, cores_per_node=app.cores_per_node or 32)
        diagnostics += lint_graphs(app.graphs, machine, time_budget_seconds=ns.budget)
        # Audit only schedulable configs: a deadlocked replay means the
        # real run would hang too.
        if not app.runtime.startswith("sim:") and not any(
            d.code == "graph-cycle" for d in diagnostics
        ):
            audit = audited(lambda: run_config(app), app.graphs, app.runtime)
            diagnostics.extend(audit.diagnostics)
    report = render_report(diagnostics)
    if report:
        print(report)
    bad = findings(diagnostics)
    print(f"check: {len(bad)} finding(s)")
    return 1 if bad else 0


def _trace_arguments(parser: Parser) -> None:
    parser.add_argument("file", nargs="*", metavar="FILE",
                        help="a Chrome trace file written by --trace")
    parser.add_argument("--gantt", "-gantt", action="store_true",
                        help="render an ASCII Gantt chart: a row per track")


def _trace(ns: Namespace) -> int:
    """Summarize a Chrome trace file written by --trace.

    Prints per-track record and kernel-span counts.

    Exit codes: 0 done, 1 not a trace file, 2 usage error.
    """
    if len(ns.file) != 1:
        raise ConfigError("trace expects exactly one trace file")
    from .core.metrics import TraceStats
    from .trace import recorder as trace_recorder
    from .trace.export import load_chrome

    try:
        tr = load_chrome(ns.file[0])
    except OSError as e:
        raise ConfigError(str(e)) from None
    except ValueError as e:
        print(f"error: {ns.file[0]}: {e}", file=sys.stderr)
        return 1
    if ns.gantt:
        from .analysis.timeline import render_gantt

        print(render_gantt(tr.records))
        return 0
    for line in TraceStats(*trace_recorder.trace_stats(tr)).report_lines():
        print(line)
    for (pid, tid), records in sorted(tr.tracks().items()):
        kernels = sum(
            1 for r in records
            if r.ph == "X" and r.cat == trace_recorder.CAT_KERNEL
        )
        print(f"  {pid}/{tid}: {len(records)} records, {kernels} kernel spans")
    return 0


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------
def _suite_arguments(parser: Parser) -> None:
    flag = parser.add_argument
    flag("spec", nargs="*", metavar="SPEC", help="a .json / .toml spec: runtimes "
         "x patterns x widths x steps x payloads x metrics")
    flag("--jobs", "-jobs", "-j", type=number(int, minimum=1), default=1,
         metavar="N", help="cells running at once (default %(default)s)")
    flag("--cores", "-cores", type=number(int, minimum=1), metavar="N",
         help="core budget cells are admitted under (default: host cores)")
    flag("--out", "-out", "-o", metavar="DIR", help="where finished cells are "
         "checkpointed (default: taskbench-suite-<spec name>)")
    flag("--resume", "-resume", action="store_true",
         help="finish only the cells an earlier, killed run left behind")
    flag("--report", "-report", action="store_true",
         help="print the aggregate table")
    flag("--csv", "-csv", metavar="PATH",
         help="write the aggregate table as CSV")
    _quiet_flag(parser)


def _suite(ns: Namespace) -> int:
    """Run a declarative benchmark suite.

    Cells run in parallel worker processes up to --jobs, under the
    scheduler's core-budget and isolation admission rules; each finished
    cell is checkpointed so --resume completes only the remainder of a
    killed suite.

    Exit codes: 0 all cells terminal, 1 failed cells, 2 usage error.
    """
    if len(ns.spec) != 1:
        raise ConfigError("suite expects exactly one spec file")
    from .suite.scheduler import run_suite
    from .suite.spec import load_spec
    from .suite.store import (
        StoreError, SuiteStore, aggregate_rows, render_csv, render_table,
    )

    spec = load_spec(ns.spec[0])
    store = SuiteStore(ns.out or f"taskbench-suite-{spec.name}")
    with _config_error(StoreError):
        if not ns.resume:
            store.ensure(spec)
            stale = store.completed()
            if stale:
                raise ConfigError(
                    f"{store.root} already holds {len(stale)} completed "
                    "cell(s); pass --resume to finish the remainder or use "
                    "a fresh --out directory"
                )
        summary = run_suite(
            spec, store, jobs=ns.jobs, core_budget=ns.cores,
            resume=ns.resume, echo=(lambda line: None) if ns.quiet else print,
        )
    for line in summary.report_lines():
        print(line)
    rows = aggregate_rows(store.records())
    if ns.csv is not None:
        with open(ns.csv, "w") as fh:
            fh.write(render_csv(rows))
        print(f"Suite CSV {ns.csv}")
    if ns.report:
        print(render_table(rows))
    return 0 if summary.failed == 0 else 1


# ---------------------------------------------------------------------------
# serve, submit, svc-stats, clean
# ---------------------------------------------------------------------------
def _serve_arguments(parser: Parser) -> None:
    _socket_flag(parser)
    _quiet_flag(parser)
    at_least_0, at_least_1 = number(int, minimum=0), number(int, minimum=1)
    positive = number(float, minimum=0, exclusive=True)
    for name, dest, kind, metavar, what in (
        ("jobs", "max_jobs", at_least_1, "N", "jobs running at once"),
        ("cores", "core_budget", at_least_1, "N", "cores running jobs share"),
        ("queue", "queue_size", at_least_1, "N", "jobs waiting before BUSY"),
        ("deadline", "deadline", positive, "S", "seconds one job may run"),
        ("warm", "warm_capacity", at_least_0, "N", "warm executors kept"),
        ("ttl", "warm_ttl", positive, "S", "seconds an idle one is kept"),
        ("cache", "cache_capacity", at_least_0, "N", "finished records kept"),
    ):
        parser.add_argument(
            f"--{name}", f"-{name}", dest=dest, type=kind, metavar=metavar,
            help=f"{what} (default: TASKBENCH_SERVE_{name.upper()})")


def _serve(ns: Namespace) -> int:
    """Run the benchmark service daemon.

    Persistent warm executor pools, admission control (the suite's rules),
    a single-flight result cache and explicit BUSY backpressure.  Binds a
    Unix-domain socket (or tcp:HOST:PORT), sweeps orphaned host state from
    earlier crashed runs, then serves SUBMIT / STATUS / RESULT / STATS /
    DRAIN requests until drained — SIGTERM and SIGINT both trigger the
    graceful drain (running jobs finish, new submissions are rejected).

    Exit codes: 0 drained cleanly, 2 usage error.
    """
    import signal

    from .core.janitor import sweep_host
    from .serve.server import Server, ServeConfig

    overrides = {k: v for k, v in vars(ns).items() if k not in ("socket", "quiet")}
    emit = (lambda line: None) if ns.quiet else print
    config = ServeConfig.from_env(address=ns.socket, **overrides)
    report = sweep_host()
    if report.total:
        for line in report.report_lines():
            emit(line)
    server = Server(config)
    with _config_error(OSError, RuntimeError):
        bound = server.start()
    emit(f"serving on {bound} "
         f"(jobs {config.max_jobs}, cores {config.effective_core_budget}, "
         f"queue {config.queue_size})")

    def _drain(signum, frame):  # pragma: no cover - signal path
        server.drain()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass
    try:
        server.wait()
    finally:
        server.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    emit("drained; exiting")
    return 0


#: What ``submit`` takes of the paper's vocabulary: the fields of a
#: ``suite.spec.Cell`` a daemon's client may set.
_CELL_FLAGS = ("runtime", "pattern", "width", "steps", "payload_bytes",
               "workers", "kernel", "iterations", "timeout")


def _submit_arguments(parser: Parser) -> None:
    _socket_flag(parser)
    parser.add_argument("--wait", "-wait", type=number(float), metavar="S",
                        help="give up waiting for the record after S seconds")
    add_arguments(parser, only=_CELL_FLAGS)
    _metg_flag(parser)


def _submit(ns: Namespace) -> int:
    """Run one cell on a running daemon and print its record as JSON.

    Flags that are not given keep a cell's defaults (a 4 x 2 trivial graph
    on serial; the compute_bound kernel at 1024 iterations).

    Exit codes: 0 cell ok or unachievable, 1 cell failed, 2 usage or
    rejection error.
    """
    import json

    cell = {"runtime": "serial", "pattern": "trivial", "width": 2, "steps": 4,
            "payload_bytes": 16, "metric": "run"}
    for name in _CELL_FLAGS:
        if hasattr(ns, name):
            value = getattr(ns, name)
            cell[name] = getattr(value, "value", value)  # enums by name
    if ns.target is not None:
        cell.update(metric="metg", target=ns.target)
    with _daemon(ns.socket) as client:
        record = client.run(cell, timeout=ns.wait)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record.get("status") in ("ok", "unachievable") else 1


def _svc_stats(ns: Namespace) -> int:
    """Print a running daemon's counters as JSON.

    Queue depth, cache hits, coalesced submissions, warm-pool state and
    per-verb latency percentiles.
    """
    import json

    with _daemon(ns.socket) as client:
        stats = client.stats()
    stats.pop("ok", None)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _clean_arguments(parser: Parser) -> None:
    from .core.janitor import DEFAULT_MAX_AGE_SECONDS

    parser.add_argument(
        "--max-age", "-max-age", type=number(float, minimum=0), metavar="SECONDS",
        default=DEFAULT_MAX_AGE_SECONDS,
        help="how old a segment must be to be swept (default %(default)s)")


def _clean(ns: Namespace) -> int:
    """Sweep the host state crashed runs left behind.

    Unlinks the shared-memory segments and cluster socket directories of a
    kill -9'd benchmark — the same sweep serve runs at startup.
    """
    from .core.janitor import sweep_host

    for line in sweep_host(max_age_seconds=ns.max_age).report_lines():
        print(line)
    return 0


# ---------------------------------------------------------------------------
# figures, plot, compare (also reachable as python -m repro.analysis)
# ---------------------------------------------------------------------------
def _figures_arguments(parser: Parser) -> None:
    flag = parser.add_argument
    flag("--fast", action="store_true", help="fewer node counts and problem sizes")
    flag("--plot", action="store_true", help="an ASCII plot under each table")
    flag("--out", metavar="DIR", help="archive each as DIR/<id>.txt and .json")


def _figures(ns: Namespace) -> int:
    """Regenerate every paper figure at reduced scale, as tables."""
    import pathlib

    from .analysis.archive import save_figure_json
    from .analysis.figures import reduced_scale_figures
    from .analysis.plot import ascii_plot
    from .analysis.report import render_series_table

    out_dir = None if ns.out is None else pathlib.Path(ns.out)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    figures = reduced_scale_figures(fast=ns.fast)
    for fig in figures:
        table = render_series_table(fig)
        print(table)
        if ns.plot:
            print()
            print(ascii_plot(fig, logy=fig.ylabel != "efficiency"))
        print()
        if out_dir is not None:
            (out_dir / f"{fig.figure_id}.txt").write_text(table + "\n")
            save_figure_json(fig, out_dir / f"{fig.figure_id}.json")
    if out_dir is not None:
        print(f"archived {len(figures)} figures to {out_dir}/")
    return 0


def _plot_arguments(parser: Parser) -> None:
    parser.add_argument("figure", metavar="FIGURE.json",
                        help="a figure archived by figures --out")
    parser.add_argument("--linear", action="store_true",
                        help="linear axes instead of log-log")


def _plot(ns: Namespace) -> int:
    """Render an archived figure as an ASCII plot."""
    from .analysis.archive import load_figure_json
    from .analysis.plot import ascii_plot

    fig = load_figure_json(ns.figure)
    print(ascii_plot(fig, logx=not ns.linear, logy=not ns.linear))
    return 0


def _compare_arguments(parser: Parser) -> None:
    parser.add_argument("a", metavar="A.json", help="an archived figure")
    parser.add_argument("b", metavar="B.json", help="the one to hold it to")
    parser.add_argument("--rel", type=number(float), default=0.0, metavar="FRAC",
                        help="relative difference tolerated (default %(default)s)")


def _compare(ns: Namespace) -> int:
    """Diff two archived figures.

    For runs at different scales or code versions.

    Exit codes: 0 they agree within --rel, 1 they differ, 2 usage error.
    """
    from .analysis.archive import compare_figures, load_figure_json

    a, b = load_figure_json(ns.a), load_figure_json(ns.b)
    diffs = compare_figures(a, b, rel=ns.rel)
    if not diffs:
        print(f"{a.figure_id}: figures agree (rel tolerance {ns.rel})")
        return 0
    for d in diffs:
        print(d)
    return 1


Handler = Callable[[Namespace], int]

#: Every command: name -> (declare its flags on a parser, run it on the
#: parsed namespace).  The empty name is a bare ``task-bench <flags>``.
COMMANDS: Dict[str, Tuple[Callable[[Parser], None], Handler]] = {
    "": (_run_arguments, _run),
    "check": (_check_arguments, _check),
    "trace": (_trace_arguments, _trace),
    "suite": (_suite_arguments, _suite),
    "serve": (_serve_arguments, _serve),
    "submit": (_submit_arguments, _submit),
    "svc-stats": (_socket_flag, _svc_stats),
    "clean": (_clean_arguments, _clean),
    "figures": (_figures_arguments, _figures),
    "plot": (_plot_arguments, _plot),
    "compare": (_compare_arguments, _compare),
}


def parser_for(name: str) -> Parser:
    """The parser of one command, built from its declarations; its help
    text opens with the handler's docstring."""
    import inspect

    declare, handler = COMMANDS[name]
    parser = Parser(name, description=inspect.cleandoc(handler.__doc__))
    declare(parser)
    return parser


def parse(argv: Sequence[str]) -> Tuple[Handler, Namespace]:
    """The handler ``argv`` selects and the namespace it will be handed: a
    first token that names a command selects it, anything else is a bare
    run."""
    args = list(argv)
    if args[:1] == ["help"]:
        args[0] = "--help"
    name = args[0] if args and args[0] in COMMANDS else ""
    rest = args[1:] if name else args
    return COMMANDS[name][1], parser_for(name).parse_args(rest)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    try:
        handler, ns = parse(sys.argv[1:] if argv is None else argv)
        return handler(ns)
    except SystemExit as helped:  # --help printed
        return helped.code
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
