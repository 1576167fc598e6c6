"""The coordinator↔worker wire protocol: length-prefixed JSON frames.

Every frame is a 4-byte big-endian unsigned length followed by that
many bytes of UTF-8 JSON encoding one message object.  Messages always
carry a ``"type"`` key; unknown keys are ignored (forward
compatibility), unknown *types* are a :class:`ProtocolError`.

Message types
-------------

``hello``
    Capability handshake, first frame in each direction.  Carries
    ``protocol`` (version — mismatches abort the connection), ``role``
    (``coordinator`` / ``worker``), ``caps`` (optional capability
    list — see below), and, from the worker, ``slots`` (its local
    parallelism) and ``pid``.
``configure``
    Coordinator → worker: which target structure to evaluate and at
    what scale (``target``, ``program_scale``, ``loop_scale``,
    ``paper``, ``eval_timeout``, ``max_retries``).  The worker rebuilds
    the metric/machine locally from the target registry, so only plain
    JSON ever crosses the wire.  Answered by ``configured`` or
    ``error``.
``eval``
    Coordinator → worker: a batch of candidates, each a task ``id``
    plus its ``program`` record
    (:func:`repro.isa.encoding.program_record`: name, init seed, data
    size, source and the hex of the encoded instructions).  The worker
    decodes the exact instructions, so remote evaluation is
    deterministic for any program.  Carries a generation sequence tag
    ``gen``.  Answered by ``result``.
``result``
    Worker → coordinator: per-task fitness records (``id``,
    ``fitness``, ``total_cycles``, ``crashed``, ``error_kind``,
    ``attempts``) plus the worker's :class:`~repro.core.evaluator.
    EvalHealth` delta for the batch.  Echoes the ``gen`` tag of the
    ``eval`` it answers, so the coordinator can discard duplicated or
    straggling results that cross a generation boundary on a lossy
    transport.
``ping`` / ``pong``
    Heartbeats.  The worker answers from its reader thread even while
    a batch is evaluating, so the coordinator can tell *slow* from
    *dead*.
``shutdown`` / ``bye``
    Orderly connection teardown.
``register`` / ``registered``
    Dynamic fleet membership.  A late-starting worker dials the
    coordinator's registration listener and announces its own listen
    address (``host``, ``port``, ``slots``); the coordinator admits it
    into dispatch from the next generation on and acknowledges with
    ``registered``.  The registration connection is one-shot.
``leaving``
    Worker → coordinator: this host received SIGTERM and is draining —
    it will finish the batch already in flight (and stream its
    ``result``), but must not be sent further work.  The coordinator
    deregisters it instead of declaring it dead.
``error``
    A structured failure report (``message``); the peer treats the
    request that provoked it as failed.

:func:`recv_frame` distinguishes an *idle* timeout (no header byte
arrived — :class:`FrameTimeout`, retryable, heartbeat time) from a
*torn* frame (timeout mid-frame — :class:`ProtocolError`, fatal).

Capabilities
------------

Optional features are negotiated through ``caps`` lists exchanged in
the hellos; a feature is active only when **both** sides advertise it
(:func:`negotiated_caps`).  Peers that omit ``caps`` negotiate the
empty set and keep working unchanged.

``zlib`` (:data:`CAP_ZLIB`)
    Batch compression.  Large frames (``eval`` batches, ``result``
    batches — at paper scale a generation serializes MBs of program
    records) may be sent zlib-compressed: the top bit of the length
    header marks a compressed body, which is inflated (with a
    decompression-bomb guard) before JSON parsing.  Never used before
    the handshake completes, so legacy peers never see the flag.
``metrics`` (:data:`CAP_METRICS`)
    Worker metric shipping.  The worker samples its local
    :mod:`repro.obs` registry and attaches the snapshot to each
    ``result`` message, where the coordinator merges it into
    fleet-wide ``worker``-labelled series.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import zlib
from typing import Dict, FrozenSet, Optional

from repro.core.errors import EvaluationError

#: Bump on incompatible wire changes; checked in the hello handshake.
PROTOCOL_VERSION = 2

#: Frames larger than this are rejected outright (corrupt or hostile).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Capability names (see the module docstring).
CAP_ZLIB = "zlib"
CAP_METRICS = "metrics"

#: Every capability this build understands and advertises.
LOCAL_CAPS: FrozenSet[str] = frozenset({CAP_ZLIB, CAP_METRICS})

#: Top bit of the length header: the frame body is zlib-compressed.
#: Safe to steal — MAX_FRAME_BYTES keeps real lengths far below 2^31 —
#: and only ever set after both peers advertised :data:`CAP_ZLIB`.
COMPRESS_FLAG = 0x8000_0000

#: Frames smaller than this are sent uncompressed even when the peer
#: supports zlib (the deflate header would outweigh the savings).
MIN_COMPRESS_BYTES = 512

#: Once a frame header has arrived, the body must follow within this
#: budget — a peer that stalls mid-frame is broken, not merely idle.
BODY_TIMEOUT = 30.0

_HEADER = struct.Struct("!I")

MSG_HELLO = "hello"
MSG_CONFIGURE = "configure"
MSG_CONFIGURED = "configured"
MSG_EVAL = "eval"
MSG_RESULT = "result"
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_SHUTDOWN = "shutdown"
MSG_BYE = "bye"
MSG_ERROR = "error"
MSG_REGISTER = "register"
MSG_REGISTERED = "registered"
MSG_LEAVING = "leaving"

#: Every type a conforming peer may emit.
KNOWN_TYPES = frozenset({
    MSG_HELLO, MSG_CONFIGURE, MSG_CONFIGURED, MSG_EVAL, MSG_RESULT,
    MSG_PING, MSG_PONG, MSG_SHUTDOWN, MSG_BYE, MSG_ERROR,
    MSG_REGISTER, MSG_REGISTERED, MSG_LEAVING,
})


def validate_port(value: object, what: str = "port") -> int:
    """Parse and range-check one TCP port.

    Accepts an int or a numeric string; raises :class:`ValueError`
    with a clear message for anything non-numeric or outside
    ``[0, 65535]`` (0 is allowed — it means "bind an ephemeral port").
    """
    try:
        port = int(str(value), 10)
    except (TypeError, ValueError):
        raise ValueError(f"{what} {value!r} is not a number") from None
    if not 0 <= port <= 65535:
        raise ValueError(
            f"{what} {port} is out of range (expected 0-65535)"
        )
    return port


class ProtocolError(EvaluationError):
    """The peer sent something unframeable, oversized, or malformed."""

    kind = "protocol_error"


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF on a frame boundary)."""

    kind = "connection_closed"


class FrameTimeout(Exception):
    """No frame arrived within the socket timeout (idle, not broken).

    Deliberately *not* a :class:`ProtocolError`: the coordinator's
    heartbeat loop catches it to inject a ping, whereas protocol errors
    condemn the connection.
    """


def send_frame(
    sock: socket.socket,
    message: Dict[str, object],
    *,
    compress: bool = False,
) -> None:
    """Serialize and send one message (length-prefixed JSON).

    ``compress=True`` (only after :data:`CAP_ZLIB` was negotiated)
    deflates the body when it is large enough to benefit; the
    compressed length carries :data:`COMPRESS_FLAG` in the header.
    """
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"outgoing frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    header = len(payload)
    if compress and len(payload) >= MIN_COMPRESS_BYTES:
        deflated = zlib.compress(payload, 6)
        if len(deflated) < len(payload):
            payload = deflated
            header = len(payload) | COMPRESS_FLAG
    sock.sendall(_HEADER.pack(header) + payload)


def _recv_exact(
    sock: socket.socket, count: int, deadline: Optional[float]
) -> bytes:
    """Read exactly ``count`` bytes; EOF or a blown deadline raises."""
    chunks = []
    remaining = count
    while remaining:
        if deadline is not None and time.monotonic() > deadline:
            raise ProtocolError(
                f"peer stalled mid-frame ({count - remaining}/{count} "
                f"bytes arrived within {BODY_TIMEOUT:.0f}s)"
            )
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            # Socket timeouts inside a frame just re-check the deadline;
            # the *idle* case (no header byte at all) is handled by the
            # caller before any byte is read.
            continue
        if not chunk:
            raise ConnectionClosed(
                "connection closed mid-frame"
                if len(chunks) or count != remaining
                else "connection closed"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, object]:
    """Receive one message; blocks per the socket's timeout.

    Raises :class:`FrameTimeout` when the socket times out before any
    header byte arrives (the peer is idle — heartbeat opportunity),
    :class:`ConnectionClosed` on EOF at a frame boundary, and
    :class:`ProtocolError` for torn, oversized, or malformed frames.
    """
    try:
        first = sock.recv(1)
    except socket.timeout:
        raise FrameTimeout("no frame within the socket timeout") from None
    if not first:
        raise ConnectionClosed("connection closed")
    deadline = time.monotonic() + BODY_TIMEOUT
    header = first + _recv_exact(sock, _HEADER.size - 1, deadline)
    (raw_length,) = _HEADER.unpack(header)
    compressed = bool(raw_length & COMPRESS_FLAG)
    length = raw_length & ~COMPRESS_FLAG
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); refusing"
        )
    payload = _recv_exact(sock, length, deadline)
    if compressed:
        payload = _inflate(payload)
    return parse_message(payload)


def _inflate(payload: bytes) -> bytes:
    """Decompress a zlib frame body, bounded against zip bombs."""
    decompressor = zlib.decompressobj()
    try:
        inflated = decompressor.decompress(payload, MAX_FRAME_BYTES + 1)
    except zlib.error as exc:
        raise ProtocolError(f"bad compressed frame: {exc}") from exc
    if len(inflated) > MAX_FRAME_BYTES or decompressor.unconsumed_tail:
        raise ProtocolError(
            f"compressed frame inflates past the "
            f"{MAX_FRAME_BYTES}-byte limit; refusing"
        )
    return inflated


def parse_message(payload: bytes) -> Dict[str, object]:
    """Decode and validate one frame body."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame is not a JSON object (got {type(message).__name__})"
        )
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("frame has no string 'type' field")
    if kind not in KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    return message


def check_hello(
    message: Dict[str, object], expected_role: str
) -> Dict[str, object]:
    """Validate the peer's hello; returns it for capability fields."""
    if message.get("type") != MSG_HELLO:
        raise ProtocolError(
            f"expected hello, got {message.get('type')!r}"
        )
    version = message.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    role = message.get("role")
    if role != expected_role:
        raise ProtocolError(
            f"expected a {expected_role!r} peer, got {role!r}"
        )
    return message


def negotiated_caps(hello: Dict[str, object]) -> FrozenSet[str]:
    """Capabilities active with this peer: the intersection of its
    advertised ``caps`` and ours.  Peers predating capabilities (no
    ``caps`` key, or a malformed one) negotiate the empty set."""
    advertised = hello.get("caps")
    if not isinstance(advertised, list):
        return frozenset()
    return LOCAL_CAPS.intersection(
        item for item in advertised if isinstance(item, str)
    )


def result_record(task_id: int, evaluated) -> Dict[str, object]:
    """One per-task entry of a ``result`` message.

    Only the scores cross the wire — the coordinator re-attaches its
    own :class:`~repro.isa.program.Program` object by task id, so no
    program reconstruction happens on the way back.
    """
    return {
        "id": task_id,
        "fitness": evaluated.fitness,
        "total_cycles": evaluated.total_cycles,
        "crashed": evaluated.crashed,
        "error_kind": evaluated.error_kind,
        "attempts": evaluated.attempts,
    }
