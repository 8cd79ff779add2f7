"""Distributed-memory execution: rank processes over real sockets.

The paper's headline results are measured on distributed-memory runtimes —
MPI ranks exchanging dependency payloads over a network.  This package is
that substrate in miniature: N independent rank *processes* (no shared
memory, no shared Python state at run time) connected by a full mesh of
TCP or Unix-domain sockets, speaking a length-prefixed binary wire
protocol with no pickle on the payload hot path.

Layers, bottom up:

* :mod:`repro.cluster.wire` — frame format and zero-copy payload codec;
* :mod:`repro.cluster.transport` — framed sockets, per-peer outboxes
  (non-blocking sends), blocking tagged receives, peer-death detection;
* :mod:`repro.cluster.rank` — the per-rank driver: block-partitioned
  columns advanced timestep by timestep with full input validation;
* :mod:`repro.cluster.launcher` — spawns/supervises ranks, performs the
  address exchange, collects results and wire statistics.

The executor-facing shims live in :mod:`repro.runtimes.cluster_rt` and
register as ``cluster_tcp`` / ``cluster_uds``, so METG sweeps,
``--report``, ``--audit`` and the conformance suite drive a real
distributed run unchanged.
"""

from .._exports import export

_EXPORTS = {
    "launcher": ("Cluster", "sweep_orphaned_socket_dirs"),
    "rank": ("RankDriver", "block_owner", "rank_main"),
    "transport": (
        "Endpoint", "FrameSocket", "PeerDiedError", "TransportError",
    ),
    "wire": (
        "MSG_DATA", "MSG_HELLO", "WireCounters", "WireError", "decode",
        "encode_data", "encode_hello",
    ),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
