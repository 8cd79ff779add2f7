"""Task Bench command-line interface.

Accepts the official Task Bench flag vocabulary (see
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

Two correctness-tooling entry points (see :mod:`repro.check`)::

    # static passes: graph lint + executor-contract lint + audited run
    task-bench check -steps 100 -width 4 -type stencil_1d -runtime threads

    # contract lint of this repo's own executors only (CI gate)
    task-bench check --self

    # a normal run with the happens-before schedule audit enabled
    task-bench -steps 100 -width 4 -runtime threads --audit

    # the same plus instrumented locks and the lockset race sanitizer
    task-bench -steps 100 -width 4 -runtime threads --sanitize

``--audit``, ``--sanitize`` and ``--trace PATH`` compose — one run watched
by all three — and the run's other options (``--report``, faults,
deadlines, retries) apply whichever are on.

Exit codes for ``check``: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import sys
from typing import List, Sequence, Tuple

from .core.config import AppConfig, ConfigError, parse_args
from .core.metrics import RunResult
from .runtimes.registry import (
    available_runtimes,
    describe_runtimes,
    make_executor,
)


def _executor_kwargs(app: AppConfig) -> dict:
    """Fault-tolerance options forwarded to ``make_executor``."""
    kwargs: dict = {}
    if app.timeout is not None:
        kwargs["timeout"] = app.timeout
    if app.inject_fault is not None:
        from .faults import parse_fault

        kwargs["fault"] = parse_fault(app.inject_fault)
    return kwargs


def _machine(app: AppConfig):
    """The simulated machine the ``-nodes`` / ``-cores`` options describe."""
    from .sim.machine import MachineSpec

    return MachineSpec(nodes=app.nodes, cores_per_node=app.cores_per_node or 32)


def run_config(app: AppConfig) -> RunResult:
    """Execute a parsed configuration and return its result.

    Transient worker failures (a crashed or deadline-killed worker) are
    retried up to ``app.max_retries`` times — the executor's pool
    self-heals between attempts, so a retry costs a respawn, not a
    refork of the surviving workers.
    """
    if app.runtime.startswith("sim:"):
        from .sim.network import ARIES
        from .sim.simulator import simulate
        from .sim.systems import get_system, scaled_for

        system = get_system(app.runtime[len("sim:"):])
        machine = _machine(app)
        return simulate(app.graphs, machine, scaled_for(system, machine), ARIES)
    import time

    from .faults import RETRY_BACKOFF_SECONDS, TRANSIENT_ERRORS

    executor = make_executor(
        app.runtime, workers=app.workers, **_executor_kwargs(app)
    )
    retries = app.max_retries if app.max_retries is not None else 0
    attempt = 0
    try:
        while True:
            try:
                return executor.run(app.graphs, validate=app.validate)
            except TRANSIENT_ERRORS:
                if attempt >= retries:
                    raise
                time.sleep(RETRY_BACKOFF_SECONDS * (2 ** attempt))
                attempt += 1
    finally:
        # One-shot CLI run: worker pools / rank meshes must not outlive it.
        executor.close()


def run_metg(app: AppConfig, target: float, *, report: bool = False) -> str:
    """Run a METG sweep for the configured graphs and runtime.

    The configured graphs serve as the workload template; the sweep varies
    their compute-kernel iteration count exactly as §4 prescribes
    ("maintaining exactly the same hardware and software configuration").
    """
    import dataclasses

    from .metg.metg import metg
    from .metg.runners import RealRunner, SimRunner

    def factory(iterations: int):
        return [
            dataclasses.replace(
                g, kernel=dataclasses.replace(g.kernel, iterations=iterations)
            )
            for g in app.graphs
        ]

    if app.runtime.startswith("sim:"):
        runner = SimRunner(app.runtime[len("sim:"):], _machine(app))
        max_iterations = 1 << 36
    else:
        runner = RealRunner(
            make_executor(
                app.runtime, workers=app.workers, **_executor_kwargs(app)
            ),
            max_retries=app.max_retries,
        )
        max_iterations = 1 << 24  # real kernels: bound the sweep
    try:
        result = metg(runner, factory, target_efficiency=target,
                      max_iterations=max_iterations)
    finally:
        close = getattr(runner, "close", None)
        if close is not None:
            close()
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
    return "\n".join(lines)


def run_check(args: List[str]) -> int:
    """``task-bench check``: run the static-analysis passes.

    ``--self`` lints only the repo's own executor sources (the CI gate);
    otherwise the configured graphs are graph-linted, the executor contract
    is linted, and — for real runtimes — the graphs are executed under the
    happens-before schedule audit.  Exit codes: 0 clean, 1 findings, 2
    usage error.
    """
    from .check.api_lint import lint_runtime_sources
    from .check.concurrency import lint_concurrency_sources
    from .check.graph_lint import lint_graphs
    from .check.hb_audit import audited
    from .core.diagnostics import findings, render_report

    diagnostics = []
    self_only = False
    if "--self" in args:
        args = [a for a in args if a != "--self"]
        self_only = True
        if args:
            print("error: check --self takes no further arguments",
                  file=sys.stderr)
            return 2
    time_budget: float | None = None
    if "-budget" in args:
        pos = args.index("-budget")
        args.pop(pos)
        if pos >= len(args):
            print("error: -budget is missing its value", file=sys.stderr)
            return 2
        try:
            time_budget = float(args.pop(pos))
        except ValueError:
            print("error: -budget expects a number", file=sys.stderr)
            return 2

    diagnostics.extend(lint_runtime_sources())
    diagnostics.extend(lint_concurrency_sources())
    if not self_only:
        try:
            app = parse_args(args)
        except (ConfigError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        diagnostics.extend(lint_graphs(
            app.graphs, _machine(app), time_budget_seconds=time_budget
        ))
        # Audit only schedulable configs: a deadlocked replay means the
        # real run would hang too.
        if not app.runtime.startswith("sim:") and not any(
            d.code == "graph-cycle" for d in diagnostics
        ):
            try:
                audit = audited(
                    lambda: run_config(app), app.graphs, app.runtime
                )
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
            diagnostics.extend(audit.diagnostics)
    report = render_report(diagnostics)
    if report:
        print(report)
    bad = findings(diagnostics)
    print(f"check: {len(bad)} finding(s)")
    return 1 if bad else 0


def run_suite_cmd(args: List[str]) -> int:
    """``task-bench suite SPEC``: run a declarative benchmark suite.

    Cells run in parallel worker processes up to ``--jobs``, under the
    scheduler's core-budget and isolation admission rules; each finished
    cell is checkpointed so ``--resume`` completes only the remainder of
    a killed suite.  Exit codes: 0 all cells terminal, 1 failed cells,
    2 usage error.
    """
    from .suite.scheduler import run_suite
    from .suite.spec import SpecError, load_spec
    from .suite.store import (
        StoreError,
        SuiteStore,
        aggregate_rows,
        render_csv,
        render_table,
    )

    jobs = 1
    out_dir: str | None = None
    cores: int | None = None
    csv_path: str | None = None
    resume = False
    report = False
    quiet = False
    positional: List[str] = []
    pos = 0
    while pos < len(args):
        flag = args[pos]
        pos += 1

        def value(name: str = flag) -> str | None:
            nonlocal pos
            if pos >= len(args):
                print(f"error: {name} is missing its value", file=sys.stderr)
                return None
            v = args[pos]
            pos += 1
            return v

        if flag in ("--jobs", "-jobs", "-j"):
            v = value()
            if v is None:
                return 2
            try:
                jobs = int(v)
            except ValueError:
                print(f"error: --jobs expects an integer, got {v!r}",
                      file=sys.stderr)
                return 2
            if jobs < 1:
                print(f"error: --jobs must be >= 1, got {jobs}",
                      file=sys.stderr)
                return 2
        elif flag in ("--cores", "-cores"):
            v = value()
            if v is None:
                return 2
            try:
                cores = int(v)
            except ValueError:
                print(f"error: --cores expects an integer, got {v!r}",
                      file=sys.stderr)
                return 2
            if cores < 1:
                print(f"error: --cores must be >= 1, got {cores}",
                      file=sys.stderr)
                return 2
        elif flag in ("--out", "-out", "-o"):
            v = value()
            if v is None:
                return 2
            out_dir = v
        elif flag in ("--csv", "-csv"):
            v = value()
            if v is None:
                return 2
            csv_path = v
        elif flag in ("--resume", "-resume"):
            resume = True
        elif flag in ("--report", "-report"):
            report = True
        elif flag in ("--quiet", "-quiet", "-q"):
            quiet = True
        elif flag.startswith("-"):
            print(f"error: unknown suite flag {flag!r}", file=sys.stderr)
            return 2
        else:
            positional.append(flag)
    if len(positional) != 1:
        print("error: suite expects exactly one spec file", file=sys.stderr)
        return 2
    try:
        spec = load_spec(positional[0])
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    store = SuiteStore(out_dir or f"taskbench-suite-{spec.name}")
    if not resume:
        try:
            store.ensure(spec)
        except StoreError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        stale = store.completed()
        if stale:
            print(
                f"error: {store.root} already holds {len(stale)} completed "
                "cell(s); pass --resume to finish the remainder or use a "
                "fresh --out directory",
                file=sys.stderr,
            )
            return 2
    echo = (lambda line: None) if quiet else print
    try:
        summary = run_suite(
            spec, store, jobs=jobs, core_budget=cores, resume=resume,
            echo=echo,
        )
    except (SpecError, StoreError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for line in summary.report_lines():
        print(line)
    rows = aggregate_rows(store.records())
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(render_csv(rows))
        print(f"Suite CSV {csv_path}")
    if report:
        print(render_table(rows))
    return 0 if summary.failed == 0 else 1


def _serve_address(explicit: str | None) -> str:
    """The service endpoint: ``--socket`` flag, else
    ``TASKBENCH_SERVE_SOCKET``, else the default socket path."""
    if explicit is not None:
        return explicit
    from .core.envvars import env_str

    return env_str("TASKBENCH_SERVE_SOCKET", "taskbench-serve.sock")


def run_serve_cmd(args: List[str]) -> int:
    """``task-bench serve``: run the benchmark service daemon.

    Binds a Unix-domain socket (or ``tcp:HOST:PORT``), sweeps orphaned
    host state from earlier crashed runs, then serves SUBMIT/STATUS/
    RESULT/STATS/DRAIN requests until drained — SIGTERM and SIGINT both
    trigger the graceful drain (running jobs finish, new submissions are
    rejected).  Exit codes: 0 drained cleanly, 2 usage error.
    """
    import signal

    from .core.envvars import UsageError
    from .core.janitor import sweep_host
    from .serve.server import Server, ServeConfig

    socket_path: str | None = None
    overrides: dict = {}
    quiet = False
    int_flags = {
        "--jobs": ("max_jobs", 1), "--cores": ("core_budget", 1),
        "--queue": ("queue_size", 1), "--warm": ("warm_capacity", 0),
        "--cache": ("cache_capacity", 0),
    }
    float_flags = {"--deadline": "deadline", "--ttl": "warm_ttl"}
    pos = 0
    while pos < len(args):
        flag = args[pos]
        pos += 1
        if flag in ("--socket", "-socket"):
            if pos >= len(args):
                print("error: --socket is missing its value", file=sys.stderr)
                return 2
            socket_path = args[pos]
            pos += 1
        elif flag in ("--quiet", "-quiet", "-q"):
            quiet = True
        elif f"--{flag.lstrip('-')}" in int_flags:
            name, minimum = int_flags[f"--{flag.lstrip('-')}"]
            if pos >= len(args):
                print(f"error: {flag} is missing its value", file=sys.stderr)
                return 2
            try:
                value = int(args[pos])
            except ValueError:
                print(f"error: {flag} expects an integer, got {args[pos]!r}",
                      file=sys.stderr)
                return 2
            if value < minimum:
                print(f"error: {flag} must be >= {minimum}, got {value}",
                      file=sys.stderr)
                return 2
            overrides[name] = value
            pos += 1
        elif f"--{flag.lstrip('-')}" in float_flags:
            name = float_flags[f"--{flag.lstrip('-')}"]
            if pos >= len(args):
                print(f"error: {flag} is missing its value", file=sys.stderr)
                return 2
            try:
                value = float(args[pos])
            except ValueError:
                print(f"error: {flag} expects a number, got {args[pos]!r}",
                      file=sys.stderr)
                return 2
            if value <= 0:
                print(f"error: {flag} must be > 0, got {value:g}",
                      file=sys.stderr)
                return 2
            overrides[name] = value
            pos += 1
        else:
            print(f"error: unknown serve flag {flag!r}", file=sys.stderr)
            return 2
    emit = (lambda line: None) if quiet else print
    try:
        config = ServeConfig.from_env(
            address=_serve_address(socket_path), **overrides
        )
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = sweep_host()
    if report.total:
        for line in report.report_lines():
            emit(line)
    server = Server(config)
    try:
        bound = server.start()
    except (OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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


def run_submit_cmd(args: List[str]) -> int:
    """``task-bench submit``: run one cell on a running daemon.

    Cell parameters use the main vocabulary (``-runtime``, ``-type``,
    ``-width``, ``-steps``, ``-output``, ``-workers``, ``-kernel``,
    ``-iter``); ``-metg [TARGET]`` switches the cell to a METG sweep.
    Prints the durable record as JSON.  Exit codes: 0 cell ok or
    unachievable, 1 cell failed, 2 usage / rejection error.
    """
    import json

    from .serve.client import ServeClient, ServeError
    from .serve.protocol import ProtocolError

    socket_path: str | None = None
    wait_timeout: float | None = None
    cell: dict = {
        "runtime": "serial", "pattern": "trivial", "width": 2, "steps": 4,
        "payload_bytes": 16, "metric": "run",
    }
    field_flags = {
        "-runtime": ("runtime", str), "-type": ("pattern", str),
        "-width": ("width", int), "-steps": ("steps", int),
        "-output": ("payload_bytes", int), "-workers": ("workers", int),
        "-kernel": ("kernel", str), "-iter": ("iterations", int),
        "-timeout": ("timeout", float), "--timeout": ("timeout", float),
    }
    pos = 0
    while pos < len(args):
        flag = args[pos]
        pos += 1
        if flag in ("--socket", "-socket"):
            if pos >= len(args):
                print("error: --socket is missing its value", file=sys.stderr)
                return 2
            socket_path = args[pos]
            pos += 1
        elif flag in ("--wait", "-wait"):
            if pos >= len(args):
                print("error: --wait is missing its value", file=sys.stderr)
                return 2
            try:
                wait_timeout = float(args[pos])
            except ValueError:
                print(f"error: --wait expects seconds, got {args[pos]!r}",
                      file=sys.stderr)
                return 2
            pos += 1
        elif flag == "-metg":
            cell["metric"] = "metg"
            if pos < len(args):
                try:
                    cell["target"] = float(args[pos])
                    pos += 1
                except ValueError:
                    pass  # next token is another flag; default target
        elif flag in field_flags:
            name, convert = field_flags[flag]
            if pos >= len(args):
                print(f"error: {flag} is missing its value", file=sys.stderr)
                return 2
            try:
                cell[name] = convert(args[pos])
            except ValueError:
                print(f"error: {flag} got a bad value {args[pos]!r}",
                      file=sys.stderr)
                return 2
            pos += 1
        else:
            print(f"error: unknown submit flag {flag!r}", file=sys.stderr)
            return 2
    address = _serve_address(socket_path)
    try:
        with ServeClient(address) as client:
            record = client.run(cell, timeout=wait_timeout)
    except ServeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, ProtocolError) as e:
        print(f"error: cannot reach daemon at {address}: {e}",
              file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record.get("status") in ("ok", "unachievable") else 1


def run_svc_stats_cmd(args: List[str]) -> int:
    """``task-bench svc-stats``: print a running daemon's counters."""
    import json

    from .serve.client import ServeClient, ServeError
    from .serve.protocol import ProtocolError

    socket_path: str | None = None
    if args and args[0] in ("--socket", "-socket"):
        if len(args) < 2:
            print("error: --socket is missing its value", file=sys.stderr)
            return 2
        socket_path = args[1]
        args = args[2:]
    if args:
        print(f"error: unknown svc-stats flag {args[0]!r}", file=sys.stderr)
        return 2
    address = _serve_address(socket_path)
    try:
        with ServeClient(address) as client:
            stats = client.stats()
    except (ServeError, OSError, ProtocolError) as e:
        print(f"error: cannot reach daemon at {address}: {e}",
              file=sys.stderr)
        return 2
    stats.pop("ok", None)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def run_clean_cmd(args: List[str]) -> int:
    """``task-bench clean``: sweep orphaned host state (crashed runs).

    Unlinks shared-memory segments and cluster socket directories that a
    kill -9'd benchmark left behind — the same sweep ``task-bench serve``
    runs at startup.  ``--max-age SECONDS`` bounds how old a segment must
    be before it is swept (default one hour).
    """
    from .core.janitor import sweep_host

    max_age = None
    if args and args[0] in ("--max-age", "-max-age"):
        if len(args) < 2:
            print("error: --max-age is missing its value", file=sys.stderr)
            return 2
        try:
            max_age = float(args[1])
        except ValueError:
            print(f"error: --max-age expects seconds, got {args[1]!r}",
                  file=sys.stderr)
            return 2
        if max_age < 0:
            print(f"error: --max-age must be >= 0, got {max_age:g}",
                  file=sys.stderr)
            return 2
        args = args[2:]
    if args:
        print(f"error: unknown clean flag {args[0]!r}", file=sys.stderr)
        return 2
    report = sweep_host(**(
        {"max_age_seconds": max_age} if max_age is not None else {}
    ))
    for line in report.report_lines():
        print(line)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    if args and args[0] in ("--list-runtimes", "-list-runtimes"):
        for name, isolation, cost, lines in describe_runtimes():
            print(f"{name:16s} {isolation:10s} {cost:10s} {lines:4d}")
        return 0
    if args and args[0] == "check":
        return run_check(args[1:])
    if args and args[0] == "trace":
        return run_trace(args[1:])
    if args and args[0] == "suite":
        return run_suite_cmd(args[1:])
    if args and args[0] == "serve":
        return run_serve_cmd(args[1:])
    if args and args[0] == "submit":
        return run_submit_cmd(args[1:])
    if args and args[0] == "svc-stats":
        return run_svc_stats_cmd(args[1:])
    if args and args[0] == "clean":
        return run_clean_cmd(args[1:])
    # --audit: run normally but record the schedule and audit it afterwards.
    audit_enabled = False
    for flag in ("--audit", "-audit"):
        if flag in args:
            args.remove(flag)
            audit_enabled = True
    # --sanitize: run under instrumented locks + the lockset race check.
    sanitize_enabled = False
    for flag in ("--sanitize", "-sanitize"):
        if flag in args:
            args.remove(flag)
            sanitize_enabled = True
    # --report: append the data-plane counters to the run report.
    report_enabled = False
    for flag in ("--report", "-report"):
        if flag in args:
            args.remove(flag)
            report_enabled = True
    # --trace PATH: record wall-clock spans and export Chrome trace JSON.
    trace_path: str | None = None
    for flag in ("--trace", "-trace"):
        if flag in args:
            pos = args.index(flag)
            args.pop(pos)
            if pos >= len(args):
                print("error: --trace is missing its output path",
                      file=sys.stderr)
                return 2
            trace_path = args.pop(pos)
    # -scenario NAME replaces the graph flags with a named application
    # scenario (repro.core.scenarios); -width/-steps/-iter still apply.
    scenario_name: str | None = None
    if "-scenario" in args:
        pos = args.index("-scenario")
        args.pop(pos)
        if pos >= len(args):
            print("error: -scenario is missing its value", file=sys.stderr)
            return 2
        scenario_name = args.pop(pos)
    # -metg [target] switches from a single run to a METG sweep.
    metg_target: float | None = None
    if "-metg" in args:
        pos = args.index("-metg")
        args.pop(pos)
        metg_target = 0.5
        if pos < len(args):
            try:
                metg_target = float(args[pos])
                args.pop(pos)
            except ValueError:
                pass  # next token is another flag; keep the default target
        if not 0.0 < metg_target < 1.0:
            print(f"error: -metg target must be in (0, 1), got {metg_target}",
                  file=sys.stderr)
            return 2
    try:
        app = parse_args(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if scenario_name is not None:
        from .core.scenarios import get_scenario

        template = app.graphs[0]
        kw = {"width": template.max_width, "steps": template.timesteps}
        if template.kernel.iterations:
            kw["iterations"] = template.kernel.iterations
        try:
            app.graphs = get_scenario(scenario_name)(**kw)
        except (TypeError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    if app.verbose:
        for g in app.graphs:
            print(g.describe())
    # The watching flags compose with each other, but each watches a single
    # run on a real runtime: observed timings must never feed METG numbers,
    # and the simulator has its own trace.
    simulated = app.runtime.startswith("sim:")
    if trace_path is not None:
        if metg_target is not None:
            print("error: --trace applies to a single run; drop -metg "
                  "(trace timings never feed METG)", file=sys.stderr)
            return 2
        if simulated:
            print("error: --trace requires a real runtime (the simulator "
                  "trace is rendered by the analysis tools)", file=sys.stderr)
            return 2
    for flag, on in (("--sanitize", sanitize_enabled), ("--audit", audit_enabled)):
        if on and (metg_target is not None or simulated):
            print(f"error: {flag} requires a single run on a real runtime",
                  file=sys.stderr)
            return 2
    from .core.diagnostics import findings, render_report
    from .faults import TRANSIENT_ERRORS

    try:
        if metg_target is not None:
            from .metg.metg import METGUnachievable

            try:
                print(run_metg(app, metg_target, report=report_enabled))
            except METGUnachievable as e:
                # The target efficiency is out of reach at any granularity
                # on this configuration — a legitimate finding (paper §5.3
                # omits such combinations), not a crash.
                print(f"METG unachievable: {e}", file=sys.stderr)
                return 1
            return 0
        result, summaries, diagnostics = _observed_run(
            app, audit=audit_enabled, sanitize=sanitize_enabled,
            trace_path=trace_path,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TRANSIENT_ERRORS as e:
        # Exhausted retries on a worker/rank failure: a detected fault, not
        # a hang — report it and fail cleanly.
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(result.report(data_plane=report_enabled))
    if trace_path is not None and not report_enabled and result.trace:
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
    import contextlib

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
        spans, instants, counters, dropped = trace_recorder.trace_stats(tr)
        result = dataclasses.replace(
            result,
            trace=TraceStats(
                spans=spans,
                instants=instants,
                counter_samples=counters,
                dropped=dropped,
                path=trace_path,
            ),
        )
    if audit:
        summaries.append(checked.summary())
        diagnostics = checked.diagnostics
    if sanitize:
        checked = SanitizeResult.of(checked, san, app.runtime)
        summaries.append(checked.summary())
        diagnostics = checked.diagnostics
    return result, summaries, diagnostics


def run_trace(args: List[str]) -> int:
    """``task-bench trace FILE [--gantt]``: summarize (or render as an
    ASCII Gantt) a Chrome trace file exported by ``--trace``."""
    gantt = False
    for flag in ("--gantt", "-gantt"):
        if flag in args:
            args.remove(flag)
            gantt = True
    if len(args) != 1:
        print("error: trace expects exactly one trace file", file=sys.stderr)
        return 2
    from .trace import recorder as trace_recorder
    from .trace.export import load_chrome

    try:
        tr = load_chrome(args[0])
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {args[0]}: {e}", file=sys.stderr)
        return 1
    if gantt:
        print(render_trace_gantt(tr))
        return 0
    spans, instants, counters, dropped = trace_recorder.trace_stats(tr)
    print(f"Trace Spans {spans} ({instants} instants, "
          f"{counters} counter samples, {dropped} dropped)")
    for (pid, tid), records in sorted(tr.tracks().items()):
        kernels = sum(
            1 for r in records
            if r.ph == "X" and r.cat == trace_recorder.CAT_KERNEL
        )
        print(f"  {pid}/{tid}: {len(records)} records, {kernels} kernel spans")
    return 0


def render_trace_gantt(tr) -> str:
    """ASCII Gantt of a loaded trace (one row per recorded track)."""
    from .analysis.timeline import render_gantt

    return render_gantt(tr.records)


def _usage() -> str:
    from .core.scenarios import SCENARIOS
    from .sim.systems import all_systems

    runtimes = ", ".join(available_runtimes())
    systems = ", ".join(sorted(all_systems()))
    scenarios = ", ".join(sorted(SCENARIOS))
    return f"""task-bench: a parameterized benchmark for parallel runtime performance

graph options (repeat after -and for multiple concurrent graphs):
  -steps N           timesteps (height)            -width N    parallelism
  -type NAME         dependence pattern            -radix N    deps per task
  -period N          random pattern period         -fraction F edge fraction
  -kernel NAME       task kernel                   -iter N     kernel iterations
  -span N            memory kernel bytes/iter      -imbalance F  load imbalance
  -wait US           busy-wait microseconds        -seed N     RNG seed
  -output N          bytes per dependency          -scratch N  working set bytes

app options:
  -runtime NAME      real executor: {runtimes}
                     or sim:<system> with <system> one of: {systems}
  -workers N         worker count for real executors
  -nodes N           simulated node count          -cores N    cores per node
  -no-validate       disable input validation      -verbose    print graphs
  -metg [TARGET]     sweep problem size and report METG(TARGET) (default 0.5)
  -scenario NAME     use a named application scenario ({scenarios})
  -persistent-imbalance   per-column (persistent) imbalance multipliers
  --audit            record the schedule and run the happens-before audit
  --sanitize         run under instrumented locks: the happens-before audit
                     plus Eraser-style lockset race detection (slower;
                     never report sanitized timings as METG numbers)
                     --audit, --sanitize and --trace compose: one run, on a
                     real runtime and without -metg, watched by all of them
  --report           append data-plane counters (bytes copied/shared, pool
                     hit rate, bytes on the wire) and fault/retry counters
                     to the run report
  --trace PATH       record wall-clock spans (kernel execution, publishes,
                     waits, wire traffic) during the run and write Chrome
                     trace-event JSON to PATH — open it in Perfetto or
                     chrome://tracing; trace timings never feed METG
  --list-runtimes    print each real executor with its isolation level
                     (serial / threads / processes / cluster), its
                     admission core cost (1, workers, or workers+1) and its
                     shim lines (code lines of its module) and exit

fault tolerance (process and cluster executors; env defaults in parentheses):
  --timeout SECONDS  per-round worker deadline — a wedged worker surfaces
                     as WorkerTimeoutError instead of a hang
                     (TASKBENCH_TIMEOUT)
  --max-retries N    retry a run/probe whose worker crashed or timed out,
                     with backoff; the pool self-heals between attempts
                     (TASKBENCH_MAX_RETRIES)
  --inject-fault S   arm one fault, S = kind:worker:round[:seconds] with
                     kind one of crash (SIGKILL), wedge (SIGTERM-ignoring
                     busy loop), delay (transient stall)
                     (TASKBENCH_INJECT_FAULT)

subcommands:
  check [graph/app options] [-budget SECONDS]
                     static passes: graph lint, executor-contract lint,
                     concurrency lint (lock order, blocking calls), and
                     (for real runtimes) an audited run.
                     exit codes: 0 clean, 1 findings, 2 usage error
  check --self       contract + concurrency lint of this repo's sources only
  trace FILE         summarize a Chrome trace file written by --trace
                     (per-track record and kernel-span counts)
  trace FILE --gantt render the trace as an ASCII Gantt chart instead
  suite SPEC [--jobs N] [--out DIR] [--resume] [--report] [--csv PATH]
             [--cores N] [--quiet]
                     run a declarative benchmark suite (a runtimes x
                     patterns x widths x steps x payloads x metrics
                     cross-product from a .json/.toml spec): cells run in
                     parallel worker processes up to --jobs under a core
                     budget (--cores, default: host cores), each finished
                     cell is checkpointed into DIR, and --resume finishes
                     only the cells a killed run left behind.  --report
                     prints the aggregate table; --csv writes it as CSV.
                     exit codes: 0 complete, 1 failed cells, 2 usage error
  serve [--socket ADDR] [--jobs N] [--cores N] [--queue N] [--deadline S]
        [--warm N] [--ttl S] [--cache N] [--quiet]
                     run the benchmark service daemon: persistent warm
                     executor pools, admission control (suite rules),
                     single-flight result cache, explicit BUSY
                     backpressure.  ADDR is a Unix socket path or
                     tcp:HOST:PORT (default: TASKBENCH_SERVE_SOCKET or
                     ./taskbench-serve.sock); remaining defaults read
                     TASKBENCH_SERVE_{{JOBS,CORES,QUEUE,DEADLINE,WARM,
                     TTL,CACHE}}.  SIGTERM/SIGINT drain gracefully:
                     running jobs finish, new submissions are rejected
  submit [--socket ADDR] [-runtime R] [-type P] [-width N] [-steps N]
         [-output BYTES] [-workers N] [-kernel K] [-iter N] [-metg [T]]
         [-timeout S] [--wait S]
                     run one cell on a running daemon and print its
                     record as JSON.  exit codes: 0 ok/unachievable,
                     1 failed cell, 2 usage or rejection error
  svc-stats [--socket ADDR]
                     print a running daemon's counters (queue depth,
                     cache hits, coalesced submissions, warm-pool
                     state, per-verb latency percentiles) as JSON
  clean [--max-age SECONDS]
                     sweep orphaned /dev/shm segments and cluster socket
                     directories left by crashed runs (also runs at
                     serve startup)
"""


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
