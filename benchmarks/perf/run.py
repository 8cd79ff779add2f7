"""The repo's benchmark: per-task overhead on four substrates x four shapes.

Contract form (one workload, one result line, see BENCHMARK.json)::

    python3 benchmarks/perf/run.py --workload fine_stencil --seed 1 \\
        --seconds 25 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/perf/run.py --workload fine_stencil --seed 1 \\
        --seconds 25 --trace 1        # per-layer metrics, traced

Whole sets and their comparison::

    python3 benchmarks/perf/run.py --seed 1 --sets 2 # every workload, both
    python3 benchmarks/perf/run.py --selfcheck       # two sets must agree
    python3 benchmarks/perf/run.py --smoke           # tiny, < 30 s
    python3 benchmarks/perf/run.py compare A.json B.json

This process measures nothing of the program itself: every measurement
runs in a fresh child (child.py), one child at a time, and the parent only
schedules, gates on the canaries, checks and prints.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
if not (SRC / "repro").is_dir():
    sys.exit(f"nothing to measure: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import compare  # noqa: E402
import gating  # noqa: E402
import hygiene  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    GATED_SUBSTRATE,
    SUBSTRATES,
    WORKERS,
    WORKLOADS,
    cli_args,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

#: Fresh-process trials of the gated substrate: each is one set-up sample,
#: and one draw of whatever speed a process starts with.
TRIALS = 8
#: Quiet samples a cell needs before its value is trusted.
MIN_QUIET = 5
#: Quiet set-up samples (one a trial) the run needs.
SETUP_QUIET = 3
#: Extra trials a cell short of quiet samples may get.
MAX_TOPUPS = 2
#: A run may overrun ``--seconds`` by this share for top-ups.
OVERRUN = 0.2
#: Timesteps of the cold CLI cell.
COLD_STEPS = 100
#: Counts that must repeat exactly from run to run.
EXACT = frozenset((
    "core.deps.hits", "core.deps.compiles", "core.deps.hit_ratio",
    "cluster.wire.bytes_per_task", "cluster.wire.messages_per_task",
    "core.bufpool.bytes_shared_per_task", "core.bufpool.bytes_copied_per_task",
    "core.validation.bytes_checked",
))
#: The smoke run: heights / 20, one trial of two runs per cell.
SMOKE = dict(steps_div=20, trials=1, runs=2, min_quiet=1)


def child_env() -> Dict[str, str]:
    """The children's environment: the program importable, none of its
    ``TASKBENCH_*`` switches inherited from the caller's shell."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TASKBENCH_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    """One (workload, seed, trace) run: spawns children, counts operations,
    collects canaries, and checks for leaks after every child."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        # Seeded so that the first child already knows what quiet looks like.
        self.canaries: List[float] = [gating.canary() for _ in range(10)]
        self.peak_rss_mb = 0.0
        self.spans: List[spans.Span] = []
        self.env = child_env()
        self.steps = self.steps_of(WORKLOADS[workload]["steps"])

    # -- bookkeeping ---------------------------------------------------
    def count(self, operations: int, problem: Optional[str] = None) -> None:
        self.attempted += operations
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            print(f"FAILED: {problem}", file=sys.stderr)

    def left(self) -> float:
        return self.seconds - (time.perf_counter() - self.started)

    def quiet_limit(self) -> float:
        """The canary reading above which a child should wait before it
        takes a sample: the fastest seen so far, with the gating margin."""
        return gating.QUIET_FACTOR * min(self.canaries)

    def steps_of(self, full: int) -> int:
        """``full`` timesteps, or a twentieth of them in the smoke run."""
        return max(4, full // SMOKE["steps_div"]) if self.smoke else full

    # -- children ------------------------------------------------------
    def spawn(self, argv: Sequence[str], what: str,
              timeout: float = 60.0) -> Tuple[Optional[str], float]:
        """Run one child to its end in a session of its own; returns its
        stdout (None if it failed) and its wall seconds.  Then the leak
        check: segments, socket dirs and processes it left behind."""
        before = hygiene.snapshot()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=ROOT, start_new_session=True, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nkilled after {timeout} s"
        wall = time.perf_counter() - t0
        ok = proc.returncode == 0
        if not ok:
            self.count(1, f"{what}: exit {proc.returncode}\n{err[-2000:]}")
        left_behind = hygiene.leaked_since(before) + [
            f"pid {pid}" for pid in hygiene.surviving_members(proc.pid)]
        self.count(1, f"{what} leaked {left_behind}" if left_behind else None)
        return (out if ok else None), wall

    def job(self, spec: dict) -> Optional[dict]:
        """Run one child.py job; returns its result record."""
        spec = dict(spec, workload=self.workload, seed=self.seed,
                    quiet_limit_s=self.quiet_limit())
        what = f"{spec['job']} {spec.get('substrate', '')}".strip()
        spec["trial"] = f"{self.workload}/{what.replace(' ', '/')}"
        out, _wall = self.spawn(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)], what)
        if out is None:
            return None
        result = json.loads(out.strip().splitlines()[-1])
        self.count(result["operations"])
        self.peak_rss_mb = max(self.peak_rss_mb, result["peak_rss_mb"])
        self.spans += [tuple(s) for s in result.get("spans", [])]
        for samples in result.get("samples", {}).values():
            self.canaries += gating.all_canaries(samples)
        return result

    def python(self, args: Sequence[str], what: str) -> Optional[gating.Sample]:
        """Wall seconds of one ``python <args>`` between two canaries,
        started in a quiet moment if one comes within half a second."""
        patience = 0.5 if self.left() > 0 and not self.smoke else 0.0
        c0 = gating.wait_quiet(self.quiet_limit(),
                               time.perf_counter() + patience)
        out, wall = self.spawn([sys.executable, *args], what)
        sample = (c0, wall, gating.canary())
        self.canaries += [sample[0], sample[2]]
        if out is None:
            return None
        self.count(1)
        return sample


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics, tracing off
# ----------------------------------------------------------------------
def end_to_end(run: Run) -> Dict[str, dict]:
    smoke = run.smoke
    trials = SMOKE["trials"] if smoke else TRIALS
    min_quiet = SMOKE["min_quiet"] if smoke else MIN_QUIET
    setup_quiet = SMOKE["min_quiet"] if smoke else SETUP_QUIET
    warm: List[gating.Sample] = []   # us per task of the timed warm runs
    setup: List[gating.Sample] = []  # seconds, one a trial
    digests: Dict[str, Optional[str]] = {}
    cost, fixed = 0.0, 0.5           # of the last trial: all of it, untimed

    def trial(substrate: str, window: float) -> None:
        """One fresh-process trial.  On the gated substrate: a set-up sample
        (imports done to the end of the first run), then timed warm runs for
        ``window`` seconds.  On the others: the first run and, like every
        substrate's first trial, the conformance run."""
        nonlocal cost, fixed
        gated_cell = substrate == GATED_SUBSTRATE
        runs = 0 if not gated_cell else SMOKE["runs"] if smoke else 4
        t0 = time.perf_counter()
        result = run.job({
            "job": "trial", "substrate": substrate, "steps": run.steps,
            "patience_s": 0.5 if gated_cell and not smoke else 0.0,
            "budget_s": 0.0 if smoke else window, "min_runs": runs,
            "max_runs": 200 if gated_cell and not smoke else runs,
            "conformance": substrate not in digests,
        })
        digests.setdefault(substrate, result and result["digest"])
        if result is None or not gated_cell:
            return
        tasks = result["tasks"]
        walls = result["samples"]["wall_s"]
        cost = time.perf_counter() - t0
        fixed = cost - sum(c0 + w + c1 for c0, w, c1 in walls)
        warm.extend((c0, w * 1e6 / tasks, c1) for c0, w, c1 in walls)
        setup.extend(tuple(s) for s in result["samples"]["first_s"])

    def short(ref: float) -> bool:
        """Whether quiet samples of either kind are still lacking."""
        return (gating.quiet_count(warm, ref) < min_quiet or
                gating.quiet_count(setup, ref, gating.BEFORE) < setup_quiet)

    # The other substrates once, for their outputs and memory; then the
    # trials, each sampling for an equal share of the time left after what
    # the trials still to come will cost untimed.  The first always runs; a
    # later one is dropped when --seconds cannot hold it.
    for substrate in SUBSTRATES:
        if substrate != GATED_SUBSTRATE:
            trial(substrate, 0.0)
    for k in range(trials):
        if k == 0 or run.left() > cost:
            to_come = trials - k
            trial(GATED_SUBSTRATE,
                  max(0.5, (run.left() - fixed * to_come) / to_come))

    # Top up by one trial, at most twice, while quiet samples are lacking,
    # as far as the allowed overrun goes.
    for _ in range(0 if smoke else MAX_TOPUPS):
        if (short(gating.reference(run.canaries))
                and run.left() + OVERRUN * run.seconds > cost):
            trial(GATED_SUBSTRATE, 0.5)

    conformance(run, digests)

    ref = gating.reference(run.canaries)
    metrics: Dict[str, dict] = {}
    if warm:
        metrics[f"task_us.{GATED_SUBSTRATE}"] = gated(warm, ref, min_quiet)
        # Gated on the canary before it: the one after a first run reads a
        # tenth high whatever the host does.
        metrics["setup_s"] = gated(setup, ref, setup_quiet, gating.BEFORE)
    metrics["peak_rss_mb"] = plain(run.peak_rss_mb, [run.peak_rss_mb])
    return metrics


def conformance(run: Run, digests: Dict[str, Optional[str]]) -> None:
    """Every substrate's outputs, bytewise, against serial's: one operation
    each.  A digest is missing when its child died."""
    for substrate in SUBSTRATES[1:]:
        same = digests["serial"] and digests[substrate] == digests["serial"]
        run.count(1, None if same else
                  f"{substrate} outputs differ from serial's")


def quiet_share(canaries: Sequence[float], ref: float) -> float:
    return sum(c <= gating.QUIET_FACTOR * ref for c in canaries) / len(canaries)


def gated(samples: Sequence[gating.Sample], ref: float, min_quiet: int,
          ends: Tuple[int, ...] = gating.BOTH) -> dict:
    """A metric cell from canary-bracketed samples."""
    cell = gating.summarise(samples, ref, min_quiet, ends)
    cell["samples"] = [s[1] for s in samples
                       if cell["unresolved"] or gating.is_quiet(s, ref, ends)]
    cell["raw"] = [list(s) for s in samples]
    return cell


def plain(value: float, samples: Sequence[float]) -> dict:
    """A metric cell from a number that has no canaries of its own."""
    p25, median, p75 = gating.quartiles(list(samples))
    return {"value": value, "p25": p25, "median": median, "p75": p75,
            "min": min(samples), "n": len(samples), "samples": list(samples)}


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics, from the traced run
# ----------------------------------------------------------------------
def per_layer(run: Run) -> Dict[str, dict]:
    smoke = run.smoke
    few = 1 if smoke else 3
    samples: Dict[str, List[gating.Sample]] = {}
    counts: Dict[str, float] = {}

    def take(result: Optional[dict]) -> None:
        if result is not None:
            for name, values in result.get("samples", {}).items():
                samples.setdefault(name, []).extend(
                    tuple(v) for v in values)
            counts.update(result.get("counts", {}))

    take(run.job({"job": "micro", "steps": run.steps,
                  "batches": 2 if smoke else 7,
                  "cold_passes": few, "launches": few}))
    digests: Dict[str, Optional[str]] = {}
    for substrate in SUBSTRATES:
        traced = run.job({"job": "traced", "substrate": substrate,
                          "steps": run.steps, "replays": few,
                          "budget_s": 0.0 if smoke else 0.6,
                          "min_runs": few, "max_runs": few if smoke else 12})
        take(traced)
        digests[substrate] = traced and traced["digest"]
    conformance(run, digests)
    # The probes below have a fixed shape of their own: what they measure
    # does not depend on the workload (see README, "Per-layer metrics").
    take(run.job({"job": "overflow", "runs": few,
                  "tall_steps": run.steps_of(2048),
                  "base_steps": run.steps_of(1000)}))
    others = run.job({"job": "others", "steps": run.steps_of(250),
                      "runs": min(few, 2)})
    take(others)
    take(run.job({"job": "metg", "steps": run.steps_of(300), "searches": 1,
                  "calibration_repeats": few}))
    take(run.job({"job": "suite", "steps": run.steps_of(250)}))
    take(run.job({"job": "serve", "steps": run.steps_of(250),
                  "runs": few + 2}))

    # cold_cell_s: one cold CLI cell of the workload's shape; cli.import_ms:
    # importing the CLI, minus a bare interpreter.
    cold_args = ["-m", "repro.cli",
                 *cli_args(run.workload, run.seed, run.steps_of(COLD_STEPS)),
                 "-runtime", "threads", "-workers", str(WORKERS)]
    cold, imports, bare = [], [], []
    for _ in range(few + 1):
        for args, into in ((cold_args, cold),
                           (["-c", "import repro.cli"], imports),
                           (["-c", "pass"], bare)):
            sample = run.python(args, "python " + " ".join(args[:2]))
            if sample is not None:
                into.append(sample)

    ref = gating.reference(run.canaries)
    min_quiet = 1 if smoke else 2
    metrics: Dict[str, dict] = {}
    for name, values in samples.items():
        metrics[name] = gated(values, ref, min_quiet)
    # A spawned interpreter outlasts most quiet stretches: gating.BEFORE.
    if cold:
        metrics["cold_cell_s"] = gated(cold, ref, min_quiet, gating.BEFORE)
    if imports and bare:
        bare_s = gating.summarise(
            bare, ref, min_quiet, gating.BEFORE)["value"]
        metrics["cli.import_ms"] = gated(
            [(c0, (w - bare_s) * 1e3, c1) for c0, w, c1 in imports],
            ref, min_quiet, gating.BEFORE)
    layers = [cell["value"] for name, cell in metrics.items()
              if name.startswith("replay.")]
    if layers and "task_us.serial" in metrics:
        # What serial spends outside the replayed calls, both sides gated.
        rest = metrics["task_us.serial"]["value"] - sum(layers)
        metrics["replay.unattributed_us"] = plain(rest, [rest])
    for name, value in counts.items():
        metrics[name] = dict(plain(value, [value]), exact=name in EXACT)
    if others is not None:
        for name, ratio in others["ratio_to_serial"].items():
            metrics[f"runtimes.{name}.task_us"]["ratio_to_serial"] = ratio
    for name, value in (
        ("host.canary_ms", ref * 1e3),
        ("host.quiet_share", quiet_share(run.canaries, ref)),
        ("host.nproc", float(os.cpu_count() or 1)),
    ):
        metrics[name] = plain(value, [value])
    return metrics


# ----------------------------------------------------------------------
# One run, one set, printing
# ----------------------------------------------------------------------
def execute(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False) -> dict:
    """One run of one workload; returns its full record."""
    before = hygiene.snapshot()
    run = Run(workload, seed, seconds, smoke)
    metrics = per_layer(run) if trace else end_to_end(run)
    left_behind = hygiene.leaked_since(before)
    run.count(1, f"run leaked {left_behind}" if left_behind else None)
    wanted = [m["name"] for m in DECLARED["per_layer" if trace
                                          else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        run.count(1, f"metrics not measured: {missing}")
    for name, cell in metrics.items():
        cell["unit"] = UNITS[name]
    ref = gating.reference(run.canaries)
    nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {name: metrics[name] for name in wanted
                    if name in metrics},
        "unresolved": sorted(name for name in wanted
                             if metrics.get(name, {}).get("unresolved")),
        "canary_reference_ms": ref * 1e3,
        "quiet_share": quiet_share(run.canaries, ref),
        "oversubscribed": [s for s in SUBSTRATES[1:] if WORKERS > nproc],
        "wall_s": time.perf_counter() - run.started,
        "spans": run.spans,
    }


def result_line(record: dict) -> str:
    """The contract's last line of standard output."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": cell["value"], "unit": cell["unit"]}
                    for name, cell in record["metrics"].items()},
    })


def print_table(record: dict) -> None:
    mode = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"== {record['workload']}: {mode}, seed {record['seed']}, "
          f"{record['wall_s']:.1f} s, quiet share "
          f"{record['quiet_share']:.2f}, canary "
          f"{record['canary_reference_ms']:.2f} ms")
    for name, cell in record["metrics"].items():
        line = f"  {name:40s} {cell['value']:14.4f} {cell['unit']:6s}"
        if "n_quiet" in cell:
            line += (f" median {cell['median']:.4g} p75 {cell['p75']:.4g} "
                     f"min {cell['min']:.4g} quiet {cell['n_quiet']}/{cell['n']}")
        if "ratio_to_serial" in cell:
            line += f" = {cell['ratio_to_serial']:.2f} x serial"
        if cell.get("exact"):
            line += " (count)"
        if cell.get("unresolved"):
            line += " UNRESOLVED"
        print(line)
    failed_share = record["failed"] / record["attempted"]
    print(f"  failed_share {failed_share:.4f} "
          f"({record['failed']} of {record['attempted']} operations)")
    if record["oversubscribed"]:
        print(f"  oversubscribed ({WORKERS} workers on this host's cores): "
              + ", ".join(record["oversubscribed"]))


def provenance(seed: int) -> dict:
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else "not a git checkout",
        "seed": seed,
        "trials": TRIALS,
        "min_quiet": MIN_QUIET,
        "nproc": os.cpu_count() or 1,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_results(sets: List[dict], seed: int) -> None:
    """out/results.json (without the spans) and out/trace.json (the spans)."""
    OUT.mkdir(exist_ok=True)
    all_spans = []
    for one_set in sets:
        for run in one_set["runs"] + one_set.get("set_aside", []):
            all_spans += run.pop("spans")
    (OUT / "results.json").write_text(json.dumps(
        {"schema": 1, "provenance": provenance(seed), "sets": sets}, indent=1))
    if all_spans:
        (OUT / "trace.json").write_text(json.dumps({
            "columns": ["id", "name", "start_ns", "end_ns", "parent", "trial"],
            "spans": all_spans,
            "self_ns": spans.self_times(all_spans),
        }))


def run_set(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload, untraced then traced.  An untraced run that the host
    left with an unresolved cell is measured once more, and kept aside."""
    t0 = time.perf_counter()
    runs, set_aside = [], []
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = execute(workload, seed, seconds, trace, smoke)
            print_table(record)
            if record["unresolved"] and not trace and not smoke:
                print("  unresolved: measuring it once more")
                set_aside.append(record)
                record = execute(workload, seed, seconds, trace, smoke)
                print_table(record)
            runs.append(record)
    return {"runs": runs, "set_aside": set_aside,
            "wall_s": time.perf_counter() - t0}


def set_problems(one_set: dict) -> List[str]:
    """Failed operations, and unresolved cells of the gated metrics."""
    out = []
    for run in one_set["runs"]:
        where = f"{run['workload']} trace {run['trace']}"
        out += [f"{where}: {p.splitlines()[0]}" for p in run["problems"]]
        if not run["trace"]:
            out += [f"{where}: {name} unresolved"
                    for name in run["unresolved"]]
    return out


def print_compare(a_sets: List[dict], b_sets: List[dict],
                  same_code: bool = False) -> List[str]:
    table = compare.rows(a_sets, b_sets, DECLARED, same_code)
    for metric, workload, result, a, b in table:
        print(f"  {metric:40s} {workload:14s} {result:11s} "
              f"{a:14.4f} -> {b:14.4f}")
    return compare.failing(table)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="*",
                        help="'compare A.json B.json', or nothing to measure")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float,
                        default=float(DECLARED["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1,
                        help="sets to measure into one results file")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure two sets and compare them")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.command:
        if args.command[0] != "compare" or len(args.command) != 3:
            parser.error("the only command is: compare A.json B.json")
        a, b = (json.loads(Path(p).read_text())["sets"]
                for p in args.command[1:])
        return 1 if print_compare(a, b) else 0

    # Scratch files of the program (socket dirs, suite stores) stay inside
    # the checkout when its path leaves room for a Unix socket name.
    scratch = OUT / "tmp"
    if len(str(scratch)) <= 60:
        scratch.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(scratch)
    try:
        if args.workload:
            record = execute(args.workload, args.seed, args.seconds,
                             args.trace, args.smoke)
            print_table(record)
            line = result_line(record)
            write_results([{"runs": [record]}], args.seed)
            print(line)
            return 0
        sets = [run_set(args.seed, args.seconds, args.smoke)
                for _ in range(2 if args.selfcheck else args.sets)]
        problems = [p for one_set in sets for p in set_problems(one_set)]
        if args.selfcheck:
            print("== selfcheck: set 1 -> set 2")
            problems += print_compare(sets[:1], sets[1:], same_code=True)
        write_results(sets, args.seed)
        for problem in problems:
            print(f"PROBLEM: {problem}")
        return 1 if problems else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
