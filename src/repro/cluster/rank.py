"""Per-rank driver of the distributed executors.

Each rank process owns a block of columns (the same MPI-style block
partitioning as :mod:`repro.runtimes.p2p`) and advances timestep by
timestep: claim the inputs its tasks need — same-rank inputs from a local
refcounted store, remote inputs via blocking tagged receives — execute
its whole block of the row through ``TaskGraph.execute_row`` with **full
input validation**, then deliver each output: one refcounted local copy
for same-rank consumers and exactly one wire message per remote consumer
rank.

The rank talks to the launcher over a control pipe::

    rank -> ("address", addr)          after binding its listener
    rank <- ("peers", [addr, ...])     all ranks' addresses
    rank -> ("ready",)                 mesh connected
    rank <- ("run", spec)              one epoch of work
    rank -> ("rows", epoch, t, blocks) observed runs only: timestep ``t`` is
                                       done; one ``(graph_index, lo,
                                       snapshots)`` per row block it ran
    rank -> ("done", WireStats)        epoch complete (wire-stats delta)
    rank -> ("error", exc, traceback)  epoch failed; the rank exits
    rank <- ("shutdown",) or EOF       orderly exit

Graphs ship through the control pipe once and are cached by
``graph_index`` with stale-entry eviction (the launcher broadcasts only
graphs the rank has not seen), so a METG sweep's dozens of runs reuse the
warm mesh and warm caches.

Fault injection: an armed :class:`~repro.faults.FaultSpec` fires in the
rank whose index matches ``fault.worker``, immediately before it executes
timestep ``fault.round_index`` of its **first** run — transient by
construction, a relaunched mesh runs clean.
"""

from __future__ import annotations

import traceback
from multiprocessing.connection import Connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.task_graph import TaskGraph
from ..faults import FaultSpec, apply_fault
from ..runtimes._common import block_owner
from ..trace import recorder as trace
from .transport import Endpoint, make_listener
from .wire import Tag, encode_trace

#: Local payload key: (graph_index, timestep, column).
Key = Tuple[int, int, int]

#: Per-timestep send coalescing buffer: dest rank -> [(key, payload), ...].
Outbatch = Dict[int, List[Tuple[Key, np.ndarray]]]

#: One row block as the sinks will see it: (graph_index, first column, one
#: entry per column — the output's snapshot where a sink asked for it and
#: the task has readers, else ``None``).
RowBlock = Tuple[int, int, List[Optional[bytes]]]


class _RefStore:
    """Single-threaded refcounted payload store (one per epoch).

    The rank's own loop is sequential, so unlike
    :class:`repro.runtimes._common.OutputStore` no lock is needed; the
    same leak discipline applies — anything left at the end of the epoch
    is a mis-routed dependency.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._data: Dict[Key, Tuple[np.ndarray, int]] = {}

    def put(self, key: Key, value: np.ndarray, consumers: int) -> None:
        if key in self._data:
            raise RuntimeError(f"duplicate {self.kind} payload for {key}")
        self._data[key] = (value, consumers)

    def __contains__(self, key: Key) -> bool:
        return key in self._data

    def take(self, key: Key) -> np.ndarray:
        try:
            value, remaining = self._data[key]
        except KeyError:
            raise RuntimeError(
                f"{self.kind} payload for task {key} requested but not held"
            ) from None
        if remaining == 1:
            del self._data[key]
        else:
            self._data[key] = (value, remaining - 1)
        return value

    def assert_drained(self) -> None:
        if self._data:
            leaked = sorted(self._data)[:5]
            raise RuntimeError(
                f"{len(self._data)} {self.kind} payloads never consumed, "
                f"e.g. {leaked}"
            )


def _local_consumers(g: TaskGraph, t: int, j: int, rank: int, nranks: int) -> int:
    """How many tasks owned by ``rank`` read the output of ``(t, j)``."""
    return sum(
        1
        for jj in g.reverse_dependency_points(t, j)
        if block_owner(jj, g.max_width, nranks) == rank
    )


class RankDriver:
    """The state of one rank process across runs: graph/scratch caches and
    the connected endpoint."""

    def __init__(
        self,
        rank: int,
        nranks: int,
        endpoint: Endpoint,
        recv_timeout: float | None = None,
    ) -> None:
        self.rank = rank
        self.nranks = nranks
        self.endpoint = endpoint
        #: Deadline for each remote-input wait; ``None`` trusts the
        #: failure latch alone (the pre-PR 6 behavior).
        self.recv_timeout = recv_timeout
        self._graphs: Dict[int, TaskGraph] = {}
        self._scratch: Dict[Tuple[int, int], np.ndarray] = {}

    # -- caches --------------------------------------------------------
    def install(self, graphs: Sequence[TaskGraph]) -> None:
        """Refresh the graph cache; a *different* graph under a reused
        index evicts the stale entry and its scratch buffers (same
        cache-coherence rule as :func:`repro.runtimes.processes.worker_graph`)."""
        for g in graphs:
            cached = self._graphs.get(g.graph_index)
            if cached is not None and cached == g:
                continue
            self._graphs[g.graph_index] = g
            for key in [k for k in self._scratch if k[0] == g.graph_index]:
                del self._scratch[key]

    def graphs_for(self, order: Sequence[int]) -> List[TaskGraph]:
        return [self._graphs[gi] for gi in order]

    def _scratch_for(self, g: TaskGraph, i: int) -> Optional[np.ndarray]:
        if not g.scratch_bytes_per_task:
            return None
        key = (g.graph_index, i)
        buf = self._scratch.get(key)
        if buf is None or buf.nbytes != g.scratch_bytes_per_task:
            buf = g.prepare_scratch()
            self._scratch[key] = buf
        return buf

    # -- one epoch -----------------------------------------------------
    def run_epoch(
        self,
        graphs: Sequence[TaskGraph],
        epoch: int,
        *,
        validate: bool,
        rows: Callable[[tuple], None] | None,
        capture: bool,
        fault: FaultSpec | None,
    ) -> None:
        """Run this rank's share of ``graphs``.  On an observed run ``rows``
        (the control pipe's ``send``) gets one ``("rows", epoch, t, blocks)``
        at every timestep boundary, so the rank holds one timestep of
        snapshots, never the run's."""
        local = _RefStore("local")
        remote = _RefStore("remote")
        blocks: List[RowBlock] = []
        max_t = max(g.timesteps for g in graphs)
        # Coalesce this timestep's sends to each peer into one DATA_BATCH
        # frame, posted at the timestep boundary.  Safe because
        # dependencies only span consecutive timesteps — a consumer rank
        # first needs a timestep-t output while running timestep t+1, by
        # which time the producer has flushed t.  Deadlock-free for the
        # same reason: no rank waits on a message its peer is still
        # buffering for the timestep both are currently in.
        outbatch: Outbatch = {}
        for t in range(max_t):
            if fault is not None and t == fault.round_index:
                apply_fault(fault)  # crash/wedge never return
                fault = None  # a delay returns; fire once
            self.endpoint.check_failure()
            for g in graphs:
                if t >= g.timesteps:
                    continue
                off = g.offset_at_timestep(t)
                owned = [
                    i for i in range(off, off + g.width_at_timestep(t))
                    if block_owner(i, g.max_width, self.nranks) == self.rank
                ]
                if not owned:
                    continue
                # Block partitioning: the owned columns are contiguous, so
                # they run as one row block.
                outputs = g.execute_row(
                    t, owned[0], owned[-1] + 1,
                    self._gather(g, t, owned, epoch, local, remote),
                    scratch=[self._scratch_for(g, i) for i in owned]
                    if g.scratch_bytes_per_task else None,
                    validate=validate,
                )
                snaps = [
                    self._deliver(
                        g, t, i, epoch, out, local, outbatch, capture=capture
                    )
                    for i, out in zip(owned, outputs)
                ]
                if rows is not None:
                    blocks.append((g.graph_index, owned[0], snaps))
            for dest, items in outbatch.items():
                self.endpoint.post_batch(dest, epoch, items)
            outbatch.clear()
            if blocks:
                rows(("rows", epoch, t, blocks))
                blocks = []
        local.assert_drained()
        remote.assert_drained()
        stray = self.endpoint.pending(epoch)
        if stray:
            raise RuntimeError(
                f"rank {self.rank} received {stray} messages it never "
                "consumed this epoch"
            )

    def _gather(
        self,
        g: TaskGraph,
        t: int,
        owned: Sequence[int],
        epoch: int,
        local: _RefStore,
        remote: _RefStore,
    ) -> List[np.ndarray]:
        """The inputs of the ``owned`` tasks of row ``t`` laid end to end,
        each task's in canonical order: same-rank producers from the
        ``local`` store, the rest claimed off the wire."""
        inputs: List[np.ndarray] = []
        if t == 0:
            return inputs
        gi = g.graph_index
        for i in owned:
            for j in g.dependency_columns(t, i):
                key = (gi, t - 1, j)
                if block_owner(j, g.max_width, self.nranks) == self.rank:
                    inputs.append(local.take(key))
                else:
                    inputs.append(self._claim_remote(g, epoch, key, remote))
        return inputs

    def _claim_remote(
        self, g: TaskGraph, epoch: int, key: Key, remote: _RefStore
    ) -> np.ndarray:
        """One consumer's read of a remote input.

        The producer rank sends each consumer *rank* the payload exactly
        once; several local columns may read it, so the first claim pulls
        the message out of the endpoint mailbox and parks it in the
        ``remote`` store under its locally-computed consumer count — the
        same count the producer used to decide to send one message here.
        """
        if key not in remote:
            gi, tp, j = key
            tag: Tag = (epoch, gi, tp, j)
            t0 = trace.begin() if trace.enabled else 0
            payload = self.endpoint.recv(tag, timeout=self.recv_timeout)
            if t0:
                # The communication stall: how long this rank sat waiting
                # for a peer's output (paper §5.6).
                trace.complete(
                    "recv.wait", trace.CAT_SCHED, t0, {"source": key}
                )
            remote.put(key, payload, _local_consumers(g, tp, j, self.rank, self.nranks))
        return remote.take(key)

    def _deliver(
        self,
        g: TaskGraph,
        t: int,
        i: int,
        epoch: int,
        out: np.ndarray,
        local: _RefStore,
        outbatch: Outbatch,
        *,
        capture: bool,
    ) -> Optional[bytes]:
        """Route one output to its consumers; returns its snapshot when
        ``capture`` and somebody reads it."""
        per_rank: Dict[int, int] = {}
        for jj in g.reverse_dependency_points(t, i):
            dest = block_owner(jj, g.max_width, self.nranks)
            per_rank[dest] = per_rank.get(dest, 0) + 1
        if not per_rank:
            return None
        key = (g.graph_index, t, i)
        t0 = trace.begin() if trace.enabled else 0
        snap = out.tobytes() if capture else None
        for dest, consumers in per_rank.items():
            if dest == self.rank:
                local.put(key, out, consumers)
            else:
                # Park the send; run_epoch flushes every peer's batch in
                # one frame at the end of the timestep.
                outbatch.setdefault(dest, []).append((key, out))
        if t0:
            trace.complete("publish", trace.CAT_PUBLISH, t0, {"task": key})
        return snap


def rank_main(
    rank: int,
    nranks: int,
    ctl: Connection,
    kind: str,
    uds_dir: str | None,
    fault: FaultSpec | None,
    recv_timeout: float | None = None,
) -> None:
    """Entry point of one rank process (the launcher's fork target)."""
    # Drop any recorder state inherited from a parent forked mid-capture;
    # tracing is enabled per run via spec["trace"].
    trace.fork_reset()
    endpoint: Endpoint | None = None
    try:
        listener, address = make_listener(kind, rank, uds_dir)
        ctl.send(("address", address))
        msg = ctl.recv()
        if msg[0] != "peers":
            raise RuntimeError(f"expected peers, got {msg[0]!r}")
        endpoint = Endpoint(rank, nranks, listener, msg[1])
        # An epoch's wire stats are the counters' growth since the previous
        # ``done`` (first: since here, before any run spec exists).  The
        # launcher sends epoch N only after every ``done`` of N-1, so no
        # frame of N can be counted before its base — a base taken on
        # receiving the spec would race a peer already sending timestep 0.
        base = endpoint.counters.snapshot()
        ctl.send(("ready",))
        driver = RankDriver(rank, nranks, endpoint, recv_timeout=recv_timeout)
        first_run = True
        while True:
            try:
                msg = ctl.recv()
            except (EOFError, OSError):
                break
            if msg is None or msg[0] == "shutdown":
                break
            if msg[0] == "trace":
                # Trace pull: sample the local clock (the alignment anchor
                # — see repro.trace.merge), drain the recorder, reply with
                # a wire-protocol TRACE frame through the control pipe.
                clock_ns = trace.now()
                blob = encode_trace(rank, clock_ns, trace.worker_drain())
                ctl.send(("trace", blob))
                continue
            _, spec = msg
            try:
                if spec.get("trace"):
                    trace.worker_begin()
                driver.install(spec["graphs"])
                graphs = driver.graphs_for(spec["order"])
                driver.run_epoch(
                    graphs,
                    spec["epoch"],
                    validate=spec["validate"],
                    rows=ctl.send if spec["rows"] else None,
                    capture=spec["capture"],
                    fault=fault if first_run else None,
                )
                first_run = False
                endpoint.flush()
                delta = endpoint.counters.snapshot(base)
                base = base.merged(delta)
                ctl.send(("done", delta))
            except BaseException as exc:  # noqa: BLE001 - shipped to launcher
                tb = traceback.format_exc()
                try:
                    ctl.send(("error", exc, tb))
                except Exception:  # unpicklable: ship a summary
                    ctl.send(("error", RuntimeError(repr(exc)), tb))
                # The mesh is broken (peers may block on messages this rank
                # will never send): exit so peers see EOF and abort too.
                break
    except BaseException as exc:  # noqa: BLE001 - setup failure
        try:
            ctl.send(("error", exc, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if endpoint is not None:
            endpoint.close()
        try:
            ctl.close()
        except OSError:
            pass
