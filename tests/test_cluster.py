"""Unit and integration tests for the distributed executors (repro.cluster).

Three layers, bottom-up:

* the wire codec: frames must round-trip exactly (including empty payloads
  and frames far larger than one socket buffer), and malformed frames must
  raise instead of mis-parse;
* the frame transport: orderly EOF between frames is a clean shutdown,
  EOF inside a frame is evidence of a dead peer;
* the launcher: an injected rank crash surfaces as ``WorkerCrashError``
  (never a hang), a wedged rank as ``WorkerTimeoutError`` within the
  deadline, and the owning executor relaunches a clean mesh afterwards
  with the relaunch accounted as respawns.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    FrameSocket,
    MSG_HELLO,
    PeerDiedError,
    WireCounters,
    WireError,
    block_owner,
    decode,
    encode_data,
    encode_hello,
    sweep_orphaned_socket_dirs,
)
from repro.cluster.wire import LEN_STRUCT, MAX_FRAME_BYTES
from repro.core import DependenceType, Kernel, KernelType, TaskGraph
from repro.faults import FaultSpec
from repro.runtimes import (
    WorkerCrashError,
    WorkerTimeoutError,
    make_executor,
)
from repro.runtimes.p2p import block_owner as p2p_block_owner
from repro.runtimes.registry import describe_runtimes, runtime_isolation

#: Generous wall-clock bound: "no indefinite hang", with slack for
#: terminate->kill escalation on slow CI hosts.
HANG_BOUND = 20.0

CLUSTER_RUNTIMES = ["cluster_tcp", "cluster_uds"]


def _graph(nbytes=64, **kw) -> TaskGraph:
    kw.setdefault("timesteps", 4)
    kw.setdefault("max_width", 4)
    kw.setdefault("dependence", DependenceType.STENCIL_1D)
    kw.setdefault(
        "kernel", Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=2)
    )
    return TaskGraph(output_bytes_per_task=nbytes, **kw)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


class TestWireCodec:
    def test_hello_round_trip(self):
        assert decode(memoryview(encode_hello(7))) == (MSG_HELLO, 7)

    @pytest.mark.parametrize("nbytes", [0, 1, 16, (1 << 16) + 13])
    def test_data_round_trip(self, nbytes):
        tag = (3, 1, 5, 2)
        payload = np.arange(nbytes, dtype=np.uint8) ^ 0xA5
        header, view = encode_data(tag, payload)
        got_tag, got = decode(memoryview(bytes(header) + bytes(view)))
        assert got_tag == tag
        assert got.dtype == np.uint8
        assert got.tobytes() == payload.tobytes()

    def test_negative_tag_fields_round_trip(self):
        # graph_index/timestep/column are signed in the header.
        tag = (1, 0, -1, -2)
        header, view = encode_data(tag, np.zeros(0, dtype=np.uint8))
        got_tag, _ = decode(memoryview(bytes(header) + bytes(view)))
        assert got_tag == tag

    def test_empty_frame_rejected(self):
        with pytest.raises(WireError, match="empty"):
            decode(memoryview(b""))

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError, match="unknown message type"):
            decode(memoryview(b"\xff\x00\x00\x00"))

    def test_truncated_hello_rejected(self):
        with pytest.raises(WireError):
            decode(memoryview(encode_hello(1)[:-1]))

    def test_counters_snapshot_delta(self):
        counters = WireCounters()
        counters.count_sent(100, 0.25)
        counters.count_received(40, 0.125)
        first = counters.snapshot()
        assert (first.bytes_sent, first.messages_sent) == (100, 1)
        assert (first.bytes_received, first.messages_received) == (40, 1)
        counters.count_sent(1, 0.0)
        delta = counters.snapshot(base=first)
        assert (delta.bytes_sent, delta.messages_sent) == (1, 1)
        assert (delta.bytes_received, delta.messages_received) == (0, 0)


# ---------------------------------------------------------------------------
# Frame transport
# ---------------------------------------------------------------------------


@pytest.fixture
def frame_pair():
    a, b = socket.socketpair()
    left, right = FrameSocket(a), FrameSocket(b)
    yield left, right
    left.close()
    right.close()


class TestFrameSocket:
    def test_round_trip(self, frame_pair):
        left, right = frame_pair
        left.send_frame(b"hello", b" world")
        assert bytes(right.recv_frame()) == b"hello world"

    def test_empty_frame(self, frame_pair):
        left, right = frame_pair
        left.send_frame(b"")
        frame = right.recv_frame()
        assert frame is not None and len(frame) == 0

    def test_large_frame(self, frame_pair):
        """A frame far beyond one socket buffer (> 64 KiB) survives the
        partial-send / partial-recv loops intact."""
        left, right = frame_pair
        payload = np.arange(3 * (1 << 16) + 7, dtype=np.uint8)
        done = threading.Event()

        def send():
            left.send_frame(b"H", memoryview(payload))
            done.set()

        threading.Thread(target=send, daemon=True).start()
        frame = right.recv_frame()
        assert done.wait(timeout=5.0)
        assert bytes(frame) == b"H" + payload.tobytes()

    def test_eof_at_boundary_is_clean(self, frame_pair):
        left, right = frame_pair
        left.send_frame(b"last")
        left.close()
        assert bytes(right.recv_frame()) == b"last"
        assert right.recv_frame() is None

    def test_eof_inside_frame_is_peer_death(self, frame_pair):
        left, right = frame_pair
        # A length prefix promising 100 bytes, then the peer vanishes.
        left._sock.sendall(LEN_STRUCT.pack(100) + b"partial")
        left.close()
        with pytest.raises(PeerDiedError):
            right.recv_frame()

    def test_oversized_length_rejected(self, frame_pair):
        left, right = frame_pair
        left._sock.sendall(LEN_STRUCT.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(WireError, match="exceeds the cap"):
            right.recv_frame()


# ---------------------------------------------------------------------------
# Endpoint mailbox deadline
# ---------------------------------------------------------------------------


def test_endpoint_recv_timeout_raises_promptly():
    """A mailbox wait with a deadline must abort with TransportError when
    the message never arrives and no failure is latched — the backstop
    against lost wakeups that the liveness heartbeat cannot see."""
    from repro.cluster.transport import Endpoint, TransportError, make_listener

    listener, address = make_listener("tcp", 0, None)
    endpoint = Endpoint(0, 1, listener, [address])  # one-rank mesh: no peers
    try:
        start = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            endpoint.recv((1, 0, 0, 0), timeout=0.2)
        elapsed = time.monotonic() - start
        assert 0.2 <= elapsed < HANG_BOUND
    finally:
        endpoint.close()


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def test_block_owner_matches_p2p_partitioning():
    """The cluster must partition columns exactly like the in-process p2p
    executor (same block mapping, same owner for every column)."""
    for width in (1, 2, 3, 5, 8, 17):
        for ranks in (1, 2, 3, 4, 7):
            owners = [block_owner(i, width, ranks) for i in range(width)]
            assert owners == [
                p2p_block_owner(i, width, ranks) for i in range(width)
            ]
            assert owners == sorted(owners)  # contiguous blocks
            assert all(0 <= o < ranks for o in owners)
            if width >= ranks:
                assert set(owners) == set(range(ranks))


# ---------------------------------------------------------------------------
# Launcher + executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("runtime", CLUSTER_RUNTIMES)
def test_validated_run_with_wire_traffic(runtime):
    ex = make_executor(runtime, workers=2)
    try:
        g = _graph(timesteps=6, max_width=4)
        r = ex.run([g])
        assert r.validated and r.total_tasks == g.total_tasks()
        wire = r.data_plane.wire
        # A 4-wide stencil over 2 ranks crosses the boundary every step.
        assert wire.messages_sent > 0
        assert wire.bytes_sent == wire.bytes_received > 0
        assert wire.messages_sent == wire.messages_received
    finally:
        ex.close()


@pytest.mark.parametrize("runtime", CLUSTER_RUNTIMES)
def test_wire_stats_belong_to_their_epoch(runtime):
    """Back-to-back epochs on one mesh: a peer may be sending this epoch's
    timestep 0 before a rank has looked at its run spec, and that frame
    must still be counted in this epoch (an epoch's base is the previous
    ``done``).  With the base taken on receipt of the spec, ~5 % of these
    epochs read ``bytes_sent 330 != bytes_received 297``."""
    ex = make_executor(runtime, workers=2)
    try:
        for seed in range(1, 321):
            g = _graph(
                16, timesteps=6, seed=seed,
                kernel=Kernel(kernel_type=KernelType.EMPTY),
            )
            wire = ex.run([g]).data_plane.wire
            assert wire.bytes_sent == wire.bytes_received > 0, seed
            assert wire.messages_sent == wire.messages_received > 0, seed
    finally:
        ex.close()


def test_no_comm_pattern_sends_nothing():
    ex = make_executor("cluster_uds", workers=2)
    try:
        r = ex.run([_graph(dependence=DependenceType.NO_COMM)])
        assert r.validated
        assert r.data_plane.wire.messages_sent == 0
    finally:
        ex.close()


def test_crash_fault_surfaces_and_mesh_relaunches():
    """An injected SIGKILL in rank 1 surfaces as WorkerCrashError within a
    bounded time; the next run relaunches a clean mesh and accounts the
    relaunch as respawned workers."""
    ex = make_executor(
        "cluster_uds", workers=2, fault=FaultSpec("crash", worker=1, round_index=2)
    )
    try:
        start = time.perf_counter()
        with pytest.raises(WorkerCrashError):
            ex.run([_graph(timesteps=6)])
        assert time.perf_counter() - start < HANG_BOUND
        r = ex.run([_graph(timesteps=6)])  # fault was transient
        assert r.validated
        assert r.faults.worker_crashes == 1
        assert r.faults.workers_respawned == 2
    finally:
        ex.close()


def test_wedge_fault_hits_deadline():
    ex = make_executor(
        "cluster_uds",
        workers=2,
        timeout=2.0,
        fault=FaultSpec("wedge", worker=0, round_index=1),
    )
    try:
        start = time.perf_counter()
        with pytest.raises(WorkerTimeoutError):
            ex.run([_graph(timesteps=6)])
        assert time.perf_counter() - start < HANG_BOUND
    finally:
        ex.close()


def test_close_removes_socket_dir():
    cluster = Cluster(2, "uds")
    uds_dir = cluster._uds_dir
    assert uds_dir is not None and os.path.isdir(uds_dir)
    assert cluster.alive_ranks == 2
    cluster.close()
    assert not os.path.exists(uds_dir)
    assert cluster.alive_ranks == 0
    with pytest.raises(RuntimeError, match="closed"):
        cluster.run([_graph()])


def test_sweep_removes_only_stale_dirs(monkeypatch):
    stale = tempfile.mkdtemp(prefix="taskbench-cluster-")
    fresh = tempfile.mkdtemp(prefix="taskbench-cluster-")
    try:
        old = time.time() - 7200
        os.utime(stale, (old, old))
        removed = sweep_orphaned_socket_dirs()
        assert stale in removed
        assert not os.path.exists(stale)
        assert os.path.isdir(fresh)  # too young to be declared an orphan
    finally:
        for path in (stale, fresh):
            if os.path.exists(path):
                os.rmdir(path)


# ---------------------------------------------------------------------------
# Registry metadata + CLI
# ---------------------------------------------------------------------------


def test_isolation_levels():
    table = {name: isolation for name, isolation, _, _ in describe_runtimes()}
    assert table["serial"] == "serial"
    assert table["threads"] == "threads"
    assert table["processes"] == "processes"
    assert table["shm_processes"] == "processes"
    assert table["cluster_tcp"] == "cluster"
    assert table["cluster_uds"] == "cluster"
    assert runtime_isolation("cluster_tcp") == "cluster"
    with pytest.raises(ValueError, match="unknown runtime"):
        runtime_isolation("slurm")


def test_core_cost_formulas():
    costs = {name: cost for name, _, cost, _ in describe_runtimes()}
    assert costs["serial"] == "1"
    assert costs["threads"] == "workers"
    assert costs["processes"] == "workers"
    assert costs["cluster_tcp"] == "workers+1"
    assert costs["cluster_uds"] == "workers+1"


def test_cli_list_runtimes(capsys):
    from repro.cli import main

    assert main(["--list-runtimes"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.strip().splitlines()]
    assert all(len(row) == 4 for row in rows)
    table = {name: (isolation, cost) for name, isolation, cost, _ in rows}
    # Shim lines: counted from source, so only their shape is asserted.
    lines = {name: int(n) for name, _, _, n in rows}
    assert all(n > 0 for n in lines.values())
    assert lines["cluster_tcp"] == lines["cluster_uds"]  # one module
    assert table["cluster_tcp"] == ("cluster", "workers+1")
    assert table["cluster_uds"] == ("cluster", "workers+1")
    assert table["serial"] == ("serial", "1")
    assert table["processes"] == ("processes", "workers")


def test_cli_crash_fault_exits_nonzero(capsys):
    from repro.cli import main

    code = main(
        [
            "-type", "stencil", "-steps", "8", "-width", "4",
            "-runtime", "cluster_uds", "-workers", "2",
            "--timeout", "30", "--inject-fault", "crash:1:2",
        ]
    )
    assert code == 1
    assert "died mid-run" in capsys.readouterr().err
