"""Binary wire protocol for the distributed executors.

Every message between two rank processes is one *frame*::

    +----------+-----------------+---------------------+
    | length   | header          | payload (DATA only) |
    | u32 LE   | fixed struct    | raw ndarray bytes   |
    +----------+-----------------+---------------------+

``length`` counts the header plus payload.  There are two message types:

``HELLO`` (``<BI``: type, rank)
    Sent once on every freshly connected socket so the accepting side can
    identify which rank is on the other end (connections arrive in
    arbitrary order during mesh setup).

``TRACE`` (``<BIQ``: type, rank, clock_ns)
    A rank's span-recorder dump, drained by the launcher at trace
    collection time.  The header carries the rank's ``perf_counter_ns``
    sample for clock alignment (see :mod:`repro.trace.merge`); the
    payload is the buffer dump as JSON — this is a cold, once-per-run
    control frame, so readability beats zero-copy here (and no pickle,
    same as the rest of the protocol).

``DATA`` (``<BIiii``: type, epoch, graph_index, timestep, column)
    One task output travelling to one consumer rank.  The header is the
    message *tag* — ``(epoch, graph_index, timestep, column)`` names the
    producer task, exactly like an MPI tag — and the payload is the
    producer's output buffer, shipped as raw bytes with **no pickle on the
    hot path**: encoding packs a 17-byte header next to a memoryview of
    the ndarray, decoding wraps the received frame with ``np.frombuffer``.

``DATA_BATCH`` (``<BII``: type, epoch, count)
    Several task outputs travelling to the same consumer rank in one
    frame.  After the batch header come ``count`` item headers
    (``<iiiI``: graph_index, timestep, column, payload_bytes) and then the
    payloads, concatenated in item order.  A rank coalesces all of
    a timestep's sends to one peer into a single batch frame, amortizing
    the per-frame syscall and length-prefix costs across the timestep's
    payloads; decoding hands back zero-copy ``np.frombuffer`` slices of
    the one received buffer.  A batch frame counts once in the message
    counters on each side (so the symmetric-accounting invariant between
    sender and receiver is preserved); the payloads it carried are counted
    separately (``batched_payloads_*``).

The epoch field isolates back-to-back runs of a persistent rank mesh: a
fast rank may race ahead into run *k+1* while a peer still drains run *k*,
and its early messages simply park in the receiver's mailbox under the new
epoch instead of corrupting the old run.
"""

from __future__ import annotations

import json
import struct
import threading
from typing import Any, List, Tuple, Union

import numpy as np

from ..core.metrics import WireStats

#: Message type codes (first header byte).
MSG_HELLO = 1
MSG_DATA = 2
MSG_TRACE = 3
MSG_DATA_BATCH = 4

#: Frame length prefix: u32 little-endian, counting header + payload.
LEN_STRUCT = struct.Struct("<I")

#: HELLO header: (type, sender rank).
HELLO_STRUCT = struct.Struct("<BI")

#: DATA header: (type, epoch, graph_index, timestep, column).
DATA_STRUCT = struct.Struct("<BIiii")

#: TRACE header: (type, rank, perf_counter_ns clock sample).
TRACE_STRUCT = struct.Struct("<BIQ")

#: DATA_BATCH header: (type, epoch, item count).
DATA_BATCH_STRUCT = struct.Struct("<BII")

#: DATA_BATCH per-item header: (graph_index, timestep, column, nbytes).
DATA_BATCH_ITEM_STRUCT = struct.Struct("<iiiI")

#: Hard cap on a single frame (1 GiB) — a corrupted length prefix must not
#: make the receiver allocate an absurd buffer.
MAX_FRAME_BYTES = 1 << 30

#: A message tag: (epoch, graph_index, timestep, column).
Tag = Tuple[int, int, int, int]


class WireError(RuntimeError):
    """A malformed frame arrived (corrupt header, bad type, bad length)."""


def encode_hello(rank: int) -> bytes:
    """The HELLO header announcing ``rank`` (no payload)."""
    return HELLO_STRUCT.pack(MSG_HELLO, rank)


def encode_data(tag: Tag, payload: np.ndarray) -> Tuple[bytes, memoryview]:
    """Encode one task output as a (header, payload view) pair.

    The payload is *not* copied: the caller hands both parts to the
    transport, which scatter-writes them onto the socket.
    """
    epoch, gi, t, i = tag
    header = DATA_STRUCT.pack(MSG_DATA, epoch, gi, t, i)
    return header, memoryview(np.ascontiguousarray(payload)).cast("B")


def encode_data_batch(
    epoch: int, items: List[Tuple[Tuple[int, int, int], np.ndarray]]
) -> Tuple[bytes, List[memoryview]]:
    """Encode several task outputs bound for one peer as a single frame.

    ``items`` is a list of ``((graph_index, timestep, column), payload)``
    pairs.  Returns the combined batch + item headers as one ``bytes``
    object and the payload views, in order — the transport scatter-writes
    header and payloads onto the socket, so payloads are never copied.
    """
    parts = [DATA_BATCH_STRUCT.pack(MSG_DATA_BATCH, epoch, len(items))]
    views: List[memoryview] = []
    for (gi, t, i), payload in items:
        view = memoryview(np.ascontiguousarray(payload)).cast("B")
        parts.append(DATA_BATCH_ITEM_STRUCT.pack(gi, t, i, view.nbytes))
        views.append(view)
    return b"".join(parts), views


def encode_trace(rank: int, clock_ns: int, buffers: List[Any]) -> bytes:
    """Encode one rank's span-buffer dump (see
    :meth:`repro.trace.recorder.SpanRecorder.dump`) as a TRACE frame."""
    header = TRACE_STRUCT.pack(MSG_TRACE, rank, clock_ns)
    return header + json.dumps(buffers, separators=(",", ":")).encode("utf-8")


def decode(
    frame: memoryview,
) -> Union[Tuple[int, int], Tuple[Tag, np.ndarray], Tuple[int, int, int, List[Any]]]:
    """Decode one received frame (without its length prefix).

    Returns ``(MSG_HELLO, rank)`` for a HELLO, ``(tag, array)`` for a
    DATA frame, ``(MSG_DATA_BATCH, [(tag, array), ...])`` for a
    DATA_BATCH frame, and ``(MSG_TRACE, rank, clock_ns, buffers)`` for a
    TRACE frame.  DATA arrays are zero-copy ``np.frombuffer`` views over
    the frame's own buffer (read-only, ``uint8``) — the receive path
    allocates one buffer per frame and never copies the payloads again.
    """
    if len(frame) < 1:
        raise WireError("empty frame")
    kind = frame[0]
    if kind == MSG_HELLO:
        if len(frame) != HELLO_STRUCT.size:
            raise WireError(f"HELLO frame has {len(frame)} bytes")
        _, rank = HELLO_STRUCT.unpack(frame)
        return MSG_HELLO, rank
    if kind == MSG_DATA:
        if len(frame) < DATA_STRUCT.size:
            raise WireError(f"DATA frame has only {len(frame)} bytes")
        _, epoch, gi, t, i = DATA_STRUCT.unpack(frame[: DATA_STRUCT.size])
        payload = np.frombuffer(frame[DATA_STRUCT.size:], dtype=np.uint8)
        return (epoch, gi, t, i), payload
    if kind == MSG_DATA_BATCH:
        if len(frame) < DATA_BATCH_STRUCT.size:
            raise WireError(f"DATA_BATCH frame has only {len(frame)} bytes")
        _, epoch, count = DATA_BATCH_STRUCT.unpack(
            frame[: DATA_BATCH_STRUCT.size]
        )
        isize = DATA_BATCH_ITEM_STRUCT.size
        meta_end = DATA_BATCH_STRUCT.size + count * isize
        if len(frame) < meta_end:
            raise WireError(
                f"DATA_BATCH frame truncated: {count} items need "
                f"{meta_end} header bytes, frame has {len(frame)}"
            )
        items: List[Tuple[Tag, np.ndarray]] = []
        off = meta_end
        pos = DATA_BATCH_STRUCT.size
        for _ in range(count):
            gi, t, i, nbytes = DATA_BATCH_ITEM_STRUCT.unpack(
                frame[pos: pos + isize]
            )
            pos += isize
            if off + nbytes > len(frame):
                raise WireError("DATA_BATCH payload overruns the frame")
            payload = np.frombuffer(frame[off: off + nbytes], dtype=np.uint8)
            items.append(((epoch, gi, t, i), payload))
            off += nbytes
        if off != len(frame):
            raise WireError(
                f"DATA_BATCH frame has {len(frame) - off} trailing bytes"
            )
        return MSG_DATA_BATCH, items
    if kind == MSG_TRACE:
        if len(frame) < TRACE_STRUCT.size:
            raise WireError(f"TRACE frame has only {len(frame)} bytes")
        _, rank, clock_ns = TRACE_STRUCT.unpack(frame[: TRACE_STRUCT.size])
        try:
            buffers = json.loads(bytes(frame[TRACE_STRUCT.size:]).decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireError(f"corrupt TRACE payload: {exc}") from None
        if not isinstance(buffers, list):
            raise WireError("TRACE payload is not a buffer list")
        return MSG_TRACE, rank, clock_ns, buffers
    raise WireError(f"unknown message type {kind}")


class WireCounters:
    """Mutable, thread-safe wire accounting for one endpoint.

    The transport's sender/receiver threads bump these as frames move;
    :meth:`snapshot` folds them into the immutable
    :class:`~repro.core.metrics.WireStats` that travels back to the
    launcher at the end of each run.  ``snapshot(base)`` returns the delta
    since ``base``, so a persistent mesh reports per-run numbers rather
    than lifetime totals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.serialize_seconds = 0.0
        self.deserialize_seconds = 0.0
        self.batched_payloads_sent = 0
        self.batched_payloads_received = 0

    def count_sent(self, nbytes: int, seconds: float, batched: int = 0) -> None:
        """One frame left the socket; ``batched`` payloads rode inside it
        if it was a DATA_BATCH frame (0 for plain frames)."""
        with self._lock:
            self.bytes_sent += nbytes
            self.messages_sent += 1
            self.serialize_seconds += seconds
            self.batched_payloads_sent += batched

    def count_serialize(self, seconds: float) -> None:
        with self._lock:
            self.serialize_seconds += seconds

    def count_received(
        self, nbytes: int, seconds: float, batched: int = 0
    ) -> None:
        with self._lock:
            self.bytes_received += nbytes
            self.messages_received += 1
            self.deserialize_seconds += seconds
            self.batched_payloads_received += batched

    def snapshot(self, base: WireStats | None = None) -> WireStats:
        with self._lock:
            stats = WireStats(
                bytes_sent=self.bytes_sent,
                bytes_received=self.bytes_received,
                messages_sent=self.messages_sent,
                messages_received=self.messages_received,
                serialize_seconds=self.serialize_seconds,
                deserialize_seconds=self.deserialize_seconds,
                batched_payloads_sent=self.batched_payloads_sent,
                batched_payloads_received=self.batched_payloads_received,
            )
        if base is None:
            return stats
        return WireStats(
            bytes_sent=stats.bytes_sent - base.bytes_sent,
            bytes_received=stats.bytes_received - base.bytes_received,
            messages_sent=stats.messages_sent - base.messages_sent,
            messages_received=stats.messages_received - base.messages_received,
            serialize_seconds=stats.serialize_seconds - base.serialize_seconds,
            deserialize_seconds=(
                stats.deserialize_seconds - base.deserialize_seconds
            ),
            batched_payloads_sent=(
                stats.batched_payloads_sent - base.batched_payloads_sent
            ),
            batched_payloads_received=(
                stats.batched_payloads_received - base.batched_payloads_received
            ),
        )
