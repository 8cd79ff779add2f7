"""Sequential-task-flow executor (PaRSEC DTD / StarPU analogue, paper
§3.8, §3.12).

The defining property of the dynamic-task-discovery model is that the
program never states dependencies explicitly: a main thread enumerates tasks
in *program order*, declaring only which data each task reads and writes,
and the runtime infers task-to-task edges from those accesses ("a task
depends on another task if it reads data written by the other task").

Each (graph, column, field) triple is a data item, where ``field = t mod
nb_fields`` rotates buffers across timesteps exactly like the official STF
shims double-buffer their columns (the core library's ``nb_fields``
parameter).  Task ``(t, i)`` reads the field written at ``t - 1`` of its
dependency columns and writes its own column's field ``t mod nb_fields``.
The scheduler derives read-after-write, write-after-read and
write-after-write edges and executes the discovered DAG on a worker pool
while discovery is still ongoing.  With ``nb_fields = 1`` the model degrades
to strict in-place semantics, which over-serializes — a measurable ablation
(see ``benchmarks/bench_ablation_nb_fields.py``).

Validation closes the loop: if the inferred edges were insufficient, a task
would run with a stale buffer and the core library would throw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..core.executor_base import Executor
from ..core.task_graph import TaskGraph
from ..trace import recorder as trace
from ._common import OutputStore, ScratchPool, TaskKey, run_point, task_keys
from ._readypool import ReadyPool

DataItem = Tuple[int, int, int]  # (graph_index, column, field)


@dataclass
class _ItemState:
    """Access history of one data item, as seen in program order."""

    last_writer: TaskKey | None = None
    readers: Set[TaskKey] = field(default_factory=set)


class STFScheduler:
    """Infers the DAG from sequential read/write declarations and runs it.

    Thread-safe: ``submit`` is called from the discovery thread while worker
    threads retire tasks concurrently; the inferred edges live under the
    ready pool's lock, so a retirement and a submission never interleave.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = ReadyPool()
        self._items: Dict[DataItem, _ItemState] = {}
        self._pending: Dict[TaskKey, int] = {}
        self._successors: Dict[TaskKey, List[TaskKey]] = {}
        self._completed: Set[TaskKey] = set()
        self._bodies: Dict[TaskKey, Callable[[], None]] = {}
        #: Edges inferred during discovery, by kind (for tests/inspection).
        self.edge_counts = {"raw": 0, "war": 0, "waw": 0}

    # -- discovery side -------------------------------------------------
    def submit(self, key: TaskKey, reads: Sequence[DataItem], write: DataItem,
               body: Callable[[], None]) -> None:
        """Declare task ``key`` reading ``reads`` and writing ``write``."""
        with self._pool.lock:
            preds: Set[TaskKey] = set()
            for item in reads:
                st = self._items.setdefault(item, _ItemState())
                if st.last_writer is not None:
                    preds.add(st.last_writer)
                    self.edge_counts["raw"] += 1
                st.readers.add(key)
            wst = self._items.setdefault(write, _ItemState())
            for reader in wst.readers:
                if reader != key:
                    preds.add(reader)
                    self.edge_counts["war"] += 1
            if wst.last_writer is not None:
                preds.add(wst.last_writer)
                self.edge_counts["waw"] += 1
            wst.last_writer = key
            wst.readers = {key} if key in wst.readers else set()

            live_preds = {p for p in preds if p not in self._completed}
            self._bodies[key] = body
            for p in live_preds:
                self._successors.setdefault(p, []).append(key)
            if live_preds:
                self._pending[key] = len(live_preds)
            # Raises the first worker error, which ends discovery early.
            self._pool.add(key, ready=not live_preds)

    def finish_discovery(self) -> None:
        self._pool.seal()

    # -- execution side ---------------------------------------------------
    def _execute(self, keys: List[TaskKey]) -> None:
        for key in keys:
            self._bodies.pop(key)()
            with self._pool.lock:
                self._completed.add(key)
                released = []
                for succ in self._successors.pop(key, ()):
                    left = self._pending[succ] - 1
                    if left == 0:
                        del self._pending[succ]
                        released.append(succ)
                    else:
                        self._pending[succ] = left
                self._pool.complete(1, released)

    def worker_main(self) -> None:
        """One worker's loop, for a caller that brings its own thread."""
        self._pool.work(self._execute)

    def run(self, discover: Callable[[], None]) -> None:
        """Execute on ``workers`` threads everything ``discover`` submits
        from the calling thread; raises the first failure of either."""
        self._pool.run(
            self.workers, self._execute, name="stf-worker", feed=discover
        )

    @property
    def error(self) -> BaseException | None:
        return self._pool.error


class DataflowExecutor(Executor):
    """Sequential task discovery with runtime dependence inference.

    The discovery thread plays the role of the runtime's inline main
    thread; the workers execute tasks."""

    name = "dataflow"
    options = ("nb_fields",)

    def __init__(self, workers: int = 2, nb_fields: int = 2) -> None:
        super().__init__(workers)
        if nb_fields < 1:
            raise ValueError(f"nb_fields must be >= 1, got {nb_fields}")
        self.nb_fields = nb_fields

    def execute_graphs(
        self, graphs: Sequence[TaskGraph], *, validate: bool = True
    ) -> None:
        by_index = {g.graph_index: g for g in graphs}
        sched = STFScheduler(self.workers)
        store = OutputStore()
        scratch = ScratchPool(graphs)
        nf = self.nb_fields

        def discover() -> None:
            t0 = trace.begin() if trace.enabled else 0
            for gi, t, i in task_keys(graphs):
                g = by_index[gi]
                reads = (
                    [(gi, j, (t - 1) % nf) for j in g.dependency_points(t, i)]
                    if t
                    else []
                )
                body = (
                    lambda g=g, t=t, i=i: run_point(
                        store, scratch, g, t, i, validate=validate
                    )
                )
                sched.submit((gi, t, i), reads, (gi, i, t % nf), body)
            if t0:
                # Discovery overlaps execution; its span length against the
                # workers' kernel spans shows how far ahead the main thread
                # runs.
                trace.complete("stf.discover", trace.CAT_DISPATCH, t0)
            sched.finish_discovery()

        sched.run(discover)
        store.assert_drained()
