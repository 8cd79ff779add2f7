"""Child-process side of the benchmark: one measurement, one fresh process.

``python child.py '<json spec>'`` runs the job named by ``spec["job"]`` and
prints one JSON object as its last line.  Every job starts from a cold
interpreter, so nothing measured here inherits warm caches, grown heaps or
drifted thread state from an earlier measurement (``threads`` slows by half
inside one long-lived process on the build host).

Only public functions of ``repro`` are called; nothing under ``src/`` is
patched or instrumented.
"""

from __future__ import annotations

import json
import hashlib
import os
import resource
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cluster import Cluster, decode, encode_data
from repro.core import (
    expected_inputs,
    fastpath,
    validate_inputs,
)
from repro.core.bufpool import HeapSlabPool, SharedMemorySlabPool
from repro.core.kernels import execute_kernel_compute
from repro.core.validation import write_task_output
from repro.runtimes import (
    ForkWorkerPool,
    OutputStore,
    make_executor,
)
from repro.runtimes._common import capturing_outputs
from repro.trace import recorder as trace_recorder

import gating
import spans
from workloads import (
    GATED_SUBSTRATE,
    OTHER_EXECUTORS,
    SUBSTRATES,
    WIDTH,
    WORKERS,
    build_graph,
)


def _close(executor) -> None:
    close = getattr(executor, "close", None)
    if close is not None:
        close()


def _peak_rss_mb() -> float:
    """This process's high-water mark plus its largest reaped worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _output_digest(executor, graph) -> str:
    """SHA-256 over every task's output bytes of one more validated run."""
    with capturing_outputs() as sink:
        executor.run([graph], validate=True)
    h = hashlib.sha256()
    for key in sorted(sink):
        h.update(repr(key).encode())
        h.update(sink[key])
    return h.hexdigest()


def _timed_runs(executor, graph, spec: dict) -> List[gating.Sample]:
    """Warm validated runs, each between two canaries and each begun in a
    quiet moment, until the budget is spent; at least ``min_runs`` are
    taken whatever the host does."""
    limit = spec["quiet_limit_s"]
    until = time.perf_counter() + spec["budget_s"]
    samples: List[gating.Sample] = []
    while len(samples) < spec["max_runs"] and (
        len(samples) < spec["min_runs"] or time.perf_counter() < until
    ):
        samples.append(gating.timed(
            lambda: executor.run([graph], validate=True), limit, until))
    return samples


# ----------------------------------------------------------------------
# job: trial — the untraced end-to-end measurement of one cell
# ----------------------------------------------------------------------
def job_trial(spec: dict) -> dict:
    # Set-up starts in a quiet moment too, if one comes in time.
    c0 = gating.wait_quiet(spec["quiet_limit_s"],
                           time.perf_counter() + spec["patience_s"])
    t0 = time.perf_counter()
    graph = build_graph(spec["workload"], spec["seed"], spec.get("steps"))
    executor = make_executor(spec["substrate"], workers=WORKERS)
    try:
        first = executor.run([graph], validate=True)
        first_s = time.perf_counter() - t0
        c1 = gating.canary()
        samples = _timed_runs(executor, graph, spec)
        digest = (_output_digest(executor, graph)
                  if spec["conformance"] else None)
    finally:
        _close(executor)
    return {
        "tasks": first.total_tasks,
        "samples": {"first_s": [(c0, first_s, c1)], "wall_s": samples},
        "digest": digest,
        "operations": 1 + len(samples) + (digest is not None),
    }


# ----------------------------------------------------------------------
# job: micro — loops over public calls, one layer at a time
# ----------------------------------------------------------------------
class Micro:
    """Collects (canary, value per operation, canary) samples per metric."""

    #: Duration of one timed batch: long enough to dwarf the clock, short
    #: enough that a host phase change rarely lands inside it.
    BATCH_S = 0.012

    #: How long one loop may wait, in all, for the host to turn quiet.
    PATIENCE_S = 0.25

    def __init__(self, rec: spans.SpanRecorder, batches: int,
                 quiet_limit_s: float) -> None:
        self.rec = rec
        self.batches = batches
        self.limit = quiet_limit_s
        self.samples: Dict[str, List[gating.Sample]] = {}

    def loop(self, name: str, one_pass: Callable[[], Tuple[int, float]],
             scale: float = 1.0) -> None:
        """``one_pass`` does some operations and returns (how many, the
        seconds they took); a batch repeats it for ``BATCH_S`` and yields
        one sample of ``scale`` x ns per operation."""
        out = self.samples.setdefault(name, [])
        one_pass()  # warm
        with self.rec.span(name):
            until = time.perf_counter() + self.PATIENCE_S
            after = gating.wait_quiet(self.limit, until)
            for _ in range(self.batches):
                before = (after if after <= self.limit
                          else gating.wait_quiet(self.limit, until))
                ops, seconds = 0, 0.0
                while seconds < self.BATCH_S:
                    n, s = one_pass()
                    ops += n
                    seconds += s
                after = gating.canary()
                out.append((before, scale * seconds * 1e9 / ops, after))

    def launches(self, name: str, make: Callable[[], object], count: int,
                 then: Callable[[object], None] | None = None) -> None:
        """``count`` samples of the ms ``make`` takes to build something
        with a ``close()``; ``then`` borrows the last one before it closes."""
        out = self.samples.setdefault(name, [])
        for k in range(count):
            made: List = []
            with self.rec.span(name):
                c0, wall, c1 = gating.timed(lambda: made.append(make()))
            try:
                out.append((c0, wall * 1e3, c1))
                if then is not None and k == count - 1:
                    then(made[0])
            finally:
                made[0].close()


def _each(body: Callable[[], object], ops: int) -> Callable[[], Tuple[int, float]]:
    """A pass that is ``body`` timed as a whole, counting ``ops``."""
    def one_pass() -> Tuple[int, float]:
        t0 = time.perf_counter()
        body()
        return ops, time.perf_counter() - t0
    return one_pass


def job_micro(spec: dict) -> dict:
    rec = spans.SpanRecorder(spec["trial"])
    micro = Micro(rec, spec["batches"], spec["quiet_limit_s"])
    seed = spec["seed"]
    graph = build_graph(spec["workload"], seed, spec.get("steps"))
    nbytes = graph.output_bytes_per_task
    points = list(graph.points())

    # core.deps: first pass over cold tables (another seed is another cache
    # key, so each of these compiles from scratch), then warm lookups.
    def deps_pass(g) -> None:
        for t, i in points:
            g.dependency_columns(t, i)
            g.consumer_count(t, i)

    cold = micro.samples.setdefault("core.deps.compile_ms", [])
    for k in range(spec["cold_passes"]):
        other = build_graph(spec["workload"], seed + 7919 * (k + 1),
                            spec.get("steps"))
        with rec.span("core.deps.compile_ms"):
            c0, wall, c1 = gating.timed(lambda: deps_pass(other))
        cold.append((c0, wall * 1e3, c1))
    micro.loop("core.deps.lookup_ns",
               _each(lambda: deps_pass(graph), len(points)))

    # core.validation / core.task_graph / core.kernels on eight warm rows
    # (few enough that the 64 KiB workload's inputs stay a few MiB).
    chunk = [(t, i) for t, i in points if 1 <= t <= 8]
    inputs = {p: expected_inputs(graph, *p) for p in chunk}
    dest = np.empty(nbytes, dtype=np.uint8)
    kernel = graph.kernel

    def validate_chunk() -> None:
        for t, i in chunk:
            validate_inputs(graph, t, i, inputs[(t, i)])

    def output_chunk() -> None:
        for t, i in chunk:
            write_task_output(graph, t, i, dest)

    def execute_chunk() -> None:
        for t, i in chunk[:WIDTH]:
            graph.execute_point(t, i, inputs[(t, i)], validate=True)

    def kernel_chunk() -> None:
        for t, i in chunk[:WIDTH]:
            kernel.execute(t, i, seed=seed)

    micro.loop("core.validation.validate_ns", _each(validate_chunk, len(chunk)))
    micro.loop("core.validation.output_ns", _each(output_chunk, len(chunk)))
    micro.loop("core.task_graph.execute_point_ns", _each(execute_chunk, WIDTH))
    micro.loop("core.kernels.kernel_us", _each(kernel_chunk, WIDTH), 1e-3)
    micro.loop("core.kernels.compute_ns_per_iter",
               _each(lambda: execute_kernel_compute(4000), 4000))

    # core.bufpool: acquire + resolve + decref on a warm pool.
    for name, pool in (("core.bufpool.heap_cycle_ns", HeapSlabPool()),
                       ("core.bufpool.shm_cycle_ns", SharedMemorySlabPool())):
        with pool:
            def cycle(pool=pool) -> None:
                for _ in range(1000):
                    ref = pool.acquire(nbytes)
                    pool.resolve(ref)
                    pool.decref(ref)
            micro.loop(name, _each(cycle, 1000))

    # runtimes.common: publish 32 rows, then gather the rows that read them.
    value = np.zeros(nbytes, dtype=np.uint8)
    produced = [(t, i) for t, i in points if t < 32]
    gathered = [(t, i) for t, i in points if 1 <= t <= 32]
    consumers = {p: graph.consumer_count(*p) for p in produced}

    def fill() -> OutputStore:
        store = OutputStore()
        for t, i in produced:
            store.put((0, t, i), value, consumers[(t, i)])
        return store

    def gather_pass() -> Tuple[int, float]:
        store = fill()
        t0 = time.perf_counter()
        for t, i in gathered:
            store.gather(graph, t, i)
        return len(gathered), time.perf_counter() - t0

    micro.loop("runtimes.common.put_ns", _each(fill, len(produced)))
    micro.loop("runtimes.common.gather_ns", gather_pass)

    # runtimes.procpool: fork two workers; then empty rounds on the pool.
    def rounds(pool: ForkWorkerPool) -> None:
        micro.loop(
            "runtimes.procpool.round_us",
            _each(lambda: pool.run_round([None] * WORKERS), 1), 1e-3)

    micro.launches("runtimes.procpool.spawn_ms", _spawn_pool,
                   spec["launches"], then=rounds)

    # cluster.wire: one DATA frame at the workload's payload size.
    tag = (1, 0, 5, 3)
    header, view = encode_data(tag, value)
    frame = memoryview(header + bytes(view))

    def encode_loop() -> None:
        for _ in range(200):
            encode_data(tag, value)

    def decode_loop() -> None:
        for _ in range(200):
            decode(frame)

    micro.loop("cluster.wire.encode_ns", _each(encode_loop, 200))
    micro.loop("cluster.wire.decode_ns", _each(decode_loop, 200))

    # cluster.launcher: fork two ranks and connect the mesh.
    micro.launches("cluster.launcher.launch_ms",
                   lambda: Cluster(WORKERS, "uds"), spec["launches"])

    return {
        "samples": micro.samples,
        "counts": {
            "core.validation.bytes_checked":
                graph.total_dependencies() * nbytes / len(points),
        },
        "spans": rec.spans,
    }


def _noop(chunk):
    return None


def _spawn_pool() -> ForkWorkerPool:
    pool = ForkWorkerPool(_noop, WORKERS)
    pool.run_round([None] * WORKERS)  # returns once both workers answer
    return pool


# ----------------------------------------------------------------------
# job: traced — one substrate: data-plane counts, layer replay, span fold
# ----------------------------------------------------------------------
#: Per-task replay spans are folded here and not shipped to the parent:
#: 12000 of them per walk would dwarf every other record in trace.json.
_REPLAY_LEAVES = frozenset(
    ("gather", "validate", "kernel", "output", "deps", "put"))


def _replay(rec: spans.SpanRecorder, graph) -> Dict[str, float]:
    """Walk the graph in program order as the serial executor does, one
    span per layer call; returns µs per task by layer."""
    store = OutputStore()
    nbytes = graph.output_bytes_per_task
    kernel, seed = graph.kernel, graph.seed
    now, leaf = spans.now, rec.leaf
    first = len(rec.spans)
    opened = rec.open()
    tasks = 0
    for t, i in graph.points():
        s = now()
        inputs = store.gather(graph, t, i)
        leaf("gather", s)
        s = now()
        validate_inputs(graph, t, i, inputs)
        leaf("validate", s)
        s = now()
        kernel.execute(t, i, seed=seed)
        leaf("kernel", s)
        out = np.empty(nbytes, dtype=np.uint8)
        s = now()
        write_task_output(graph, t, i, out)
        leaf("output", s)
        s = now()
        consumers = graph.consumer_count(t, i)
        leaf("deps", s)
        s = now()
        store.put((0, t, i), out, consumers)
        leaf("put", s)
        tasks += 1
    rec.close("replay", opened)
    store.assert_drained()
    own = spans.self_times(rec.spans[first:])
    return {name: ns / 1e3 / tasks for name, ns in own.items()
            if name != "replay"}


def job_traced(spec: dict) -> dict:
    substrate = spec["substrate"]
    rec = spans.SpanRecorder(spec["trial"])
    t0 = time.perf_counter()
    graph = build_graph(spec["workload"], spec["seed"], spec.get("steps"))
    with rec.span("make_executor"):
        executor = make_executor(substrate, workers=WORKERS)
    out: Dict = {"samples": {}, "counts": {}}
    try:
        with rec.span("first_run"):
            executor.run([graph], validate=True)
        first_s = time.perf_counter() - t0
        compiles = fastpath.counters()[1]
        with rec.span("warm_runs"):
            samples = _timed_runs(executor, graph, spec)
            hits = fastpath.counters()[0]
            result = executor.run([graph], validate=True)
            hits = fastpath.counters()[0] - hits
        out["digest"] = _output_digest(executor, graph)
        tasks = result.total_tasks
        out["samples"][f"task_us.{substrate}"] = [
            (c0, wall * 1e6 / tasks, c1) for c0, wall, c1 in samples]
        untraced_us = statistics.median(s[1] for s in samples) * 1e6 / tasks
        if substrate != GATED_SUBSTRATE:
            # As the end-to-end ``setup_s``, from this one process.
            out["counts"][f"setup_s.{substrate}"] = first_s
        out["counts"].update(_data_plane_counts(substrate, result, tasks))
        if substrate == "serial":
            # Lookups served by compiled tables in one warm run, and tables
            # compiled by the first run of a fresh process: both exact.
            out["counts"].update({
                "core.deps.hits": hits,
                "core.deps.compiles": compiles,
                "core.deps.hit_ratio": hits / (hits + compiles),
            })
            for _ in range(spec["replays"]):
                c0 = gating.canary()
                layers = _replay(rec, graph)
                c1 = gating.canary()
                for name, value in layers.items():
                    out["samples"].setdefault(f"replay.{name}_us", []).append(
                        (c0, value, c1))
        with trace_recorder.capture(capacity_per_thread=1 << 19) as capture:
            with rec.span("traced_run"):
                t0 = time.perf_counter()
                executor.run([graph], validate=True)
                traced_wall = time.perf_counter() - t0
            collected = capture.collect()
    finally:
        with rec.span("close"):
            _close(executor)
    if collected.dropped:
        raise RuntimeError(f"the recorder dropped {collected.dropped} spans")
    folded = spans.fold_tracks(
        [((r.pid, r.tid), r.cat, r.ts_ns, r.dur_ns)
         for r in collected.records if r.ph == "X"])
    lane_ns = folded["lanes"] * traced_wall * 1e9
    prefix = f"trace.{substrate}."
    for cat in ("kernel", "publish", "sched", "dispatch", "wire"):
        out["counts"][f"{prefix}{cat}_us"] = (
            folded["self_ns"].get(cat, 0) / 1e3 / tasks)
    out["counts"].update({
        f"{prefix}unattributed_us":
            (lane_ns - folded["lane_self_ns"]) / 1e3 / tasks,
        f"{prefix}overhead_ratio":
            1.0 - folded["self_ns"].get("kernel", 0) / lane_ns,
        f"{prefix}tracing_cost_us": traced_wall * 1e6 / tasks - untraced_us,
    })
    # first + timed + counted + conformance + traced
    out["operations"] = 4 + len(samples)
    out["spans"] = [s for s in rec.spans if s[1] not in _REPLAY_LEAVES]
    return out


def _data_plane_counts(substrate: str, result, tasks: int) -> Dict[str, float]:
    stats = result.data_plane
    if substrate == "shm_processes":
        return {
            "core.bufpool.hit_rate": stats.pool_hit_rate,
            "core.bufpool.bytes_shared_per_task": stats.bytes_shared / tasks,
            "core.bufpool.bytes_copied_per_task": stats.bytes_copied / tasks,
        }
    if substrate == "cluster_uds":
        wire = stats.wire
        codec = wire.serialize_seconds + wire.deserialize_seconds
        return {
            "cluster.wire.bytes_per_task": wire.bytes_sent / tasks,
            "cluster.wire.messages_per_task": wire.messages_sent / tasks,
            "cluster.wire.codec_share":
                codec / (result.elapsed_seconds * WORKERS),
        }
    return {}


# ----------------------------------------------------------------------
# job: others — the ten executors without an end-to-end metric
# ----------------------------------------------------------------------
def job_others(spec: dict) -> dict:
    """Per-task wall of every other executor on the ``fine_stencil`` shape
    and its ratio to serial measured in this same process."""
    graph = build_graph("fine_stencil", spec["seed"], spec["steps"])
    values: Dict[str, float] = {}
    operations = 0
    for name in ("serial",) + OTHER_EXECUTORS:
        executor = make_executor(name, workers=WORKERS)
        try:
            first = executor.run([graph], validate=True)
            walls = []
            for _ in range(spec["runs"]):
                t0 = time.perf_counter()
                executor.run([graph], validate=True)
                walls.append(time.perf_counter() - t0)
        finally:
            _close(executor)
        operations += 1 + len(walls)
        values[name] = statistics.median(walls) * 1e6 / first.total_tasks
    return {
        "counts": {f"runtimes.{name}.task_us": values[name]
                   for name in OTHER_EXECUTORS},
        "ratio_to_serial": {
            name: values[name] / values["serial"] for name in OTHER_EXECUTORS
        },
        "operations": operations,
    }


# ----------------------------------------------------------------------
# job: probes — fixed-shape measurements that do not depend on the workload
# ----------------------------------------------------------------------
def job_overflow(spec: dict) -> dict:
    """Serial per-task wall at 2048 timesteps over 1000: the dependence
    table's front cache holds 1024 timesteps, beyond which it evicts."""
    tall = build_graph("fine_stencil", spec["seed"], spec["tall_steps"])
    base = build_graph("fine_stencil", spec["seed"], spec["base_steps"])
    executor = make_executor("serial")
    ratios = []
    executor.run([tall], validate=True)
    executor.run([base], validate=True)
    for _ in range(spec["runs"]):
        c0 = gating.canary()
        t0 = time.perf_counter()
        executor.run([tall], validate=True)
        t1 = time.perf_counter()
        executor.run([base], validate=True)
        t2 = time.perf_counter()
        ratio = ((t1 - t0) / spec["tall_steps"]) / ((t2 - t1) / spec["base_steps"])
        ratios.append((c0, ratio, gating.canary()))
    return {
        "samples": {"core.deps.overflow_ratio": ratios},
        "operations": 2 + 2 * len(ratios),
    }


def job_metg(spec: dict) -> dict:
    from repro.metg import (
        RealRunner,
        calibrate_kernel_flops,
        compute_workload,
        metg,
    )

    os.environ["TASKBENCH_PEAK_FLOPS"] = repr(
        calibrate_kernel_flops(200_000, spec["calibration_repeats"]))
    found: Dict[str, List[float]] = {"serial": [], "threads": []}
    probes: List[int] = []
    seconds: List[float] = []
    for _ in range(spec["searches"]):
        for name in found:
            runner = RealRunner(make_executor(name, workers=1), validate=True)
            try:
                t0 = time.perf_counter()
                result = metg(runner, compute_workload(
                    WIDTH, spec["steps"], seed=spec["seed"]))
                seconds.append(time.perf_counter() - t0)
            finally:
                runner.close()
            found[name].append(result.metg_microseconds)
            probes.append(len(result.history))
    return {
        "counts": {
            "metg.metg_us.serial": statistics.median(found["serial"]),
            "metg.metg_us.threads": statistics.median(found["threads"]),
            "metg.probes": statistics.median(probes),
            "metg.search_s": statistics.median(seconds),
        },
        "operations": len(seconds),
    }


def job_suite(spec: dict) -> dict:
    from repro.suite import SuiteSpec, SuiteStore, run_suite

    suite = SuiteSpec(
        name="perf-cell-overhead", runtimes=SUBSTRATES,
        patterns=("stencil_1d",), widths=(WIDTH,), steps=(spec["steps"],),
        payload_bytes=(16,), kernel="empty", iterations=0, workers=WORKERS,
    )
    with tempfile.TemporaryDirectory(prefix="perf-suite-") as root:
        store = SuiteStore(root)
        t0 = time.perf_counter()
        summary = run_suite(suite, store, jobs=1)
        wall = time.perf_counter() - t0
        records = store.records()
    if summary.ok != len(SUBSTRATES):
        raise RuntimeError(f"suite cells failed: {records}")
    inside = sum(r["measurements"]["elapsed_seconds"] for r in records)
    return {
        "counts": {"suite.cell_overhead_s": (wall - inside) / len(records)},
        "operations": len(records),
    }


def job_serve(spec: dict) -> dict:
    from repro.serve import ServeClient, ServeConfig, Server

    def cell(iterations: int) -> dict:
        # The result cache is keyed on the whole cell; a cell has no seed
        # field, so the iteration count (ignored by the empty kernel) is
        # what makes every request a cache miss.
        return {
            "runtime": "shm_processes", "workers": WORKERS,
            "pattern": "stencil_1d", "width": WIDTH, "steps": spec["steps"],
            "payload_bytes": 16, "metric": "run", "kernel": "empty",
            "iterations": iterations,
        }

    with tempfile.TemporaryDirectory(prefix="perf-serve-") as root:
        server = Server(ServeConfig(
            address=os.path.join(root, "s.sock"), max_jobs=1))
        server.start()
        try:
            with ServeClient(server.config.address) as client:
                base = spec["seed"] % 1000

                def submit(k: int) -> None:
                    record = client.run(cell(base + k), timeout=60)
                    if record["status"] != "ok" or (
                            k and not record["served"]["warm"]):
                        raise RuntimeError(f"not a warm ok job: {record}")

                submit(0)  # forks the pool the timed requests find warm
                samples = []
                for k in range(spec["runs"]):
                    c0, wall, c1 = gating.timed(lambda: submit(k + 1))
                    samples.append((c0, wall * 1e3, c1))
        finally:
            server.close()
    return {
        "samples": {"serve.warm_submit_ms": samples},
        "operations": 1 + len(samples),
    }


JOBS = {
    "trial": job_trial,
    "micro": job_micro,
    "traced": job_traced,
    "others": job_others,
    "overflow": job_overflow,
    "metg": job_metg,
    "suite": job_suite,
    "serve": job_serve,
}


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    gating.canary()  # the first call in a process pays one-off costs
    out = JOBS[spec["job"]](spec)
    out["peak_rss_mb"] = _peak_rss_mb()
    out.setdefault("operations", 1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
