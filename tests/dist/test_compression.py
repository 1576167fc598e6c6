"""Compressed batch frames and capability negotiation."""

import socket
import struct
import zlib

import pytest

from repro import obs
from repro.core.generator import Generator
from repro.core.targets import scaled_targets
from repro.dist import protocol
from repro.dist.protocol import (
    CAP_METRICS,
    CAP_ZLIB,
    COMPRESS_FLAG,
    LOCAL_CAPS,
    MIN_COMPRESS_BYTES,
    ProtocolError,
    negotiated_caps,
    recv_frame,
    send_frame,
)
from repro.dist.worker import WorkerServer
from repro.isa import program_record

SCALES = (0.03, 0.008)
TARGET_KEY = "int_adder"


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    try:
        yield left, right
    finally:
        left.close()
        right.close()


def raw_header(sock):
    header = b""
    while len(header) < 4:
        header += sock.recv(4 - len(header))
    return struct.unpack("!I", header)[0]


class TestNegotiation:
    def test_intersection_of_advertised_caps(self):
        hello = {"caps": ["zlib", "metrics", "future-cap"]}
        assert negotiated_caps(hello) == LOCAL_CAPS

    def test_legacy_peer_negotiates_empty(self):
        assert negotiated_caps({}) == frozenset()
        assert negotiated_caps({"caps": "zlib"}) == frozenset()
        assert negotiated_caps({"caps": [1, None]}) == frozenset()

    def test_local_caps_cover_zlib_and_metrics(self):
        assert CAP_ZLIB in LOCAL_CAPS
        assert CAP_METRICS in LOCAL_CAPS


class TestCompressedFrames:
    def test_large_frame_round_trips_compressed(self, pair):
        left, right = pair
        message = {"type": "eval", "batch": ["x" * 64] * 200}
        send_frame(left, message, compress=True)
        # Peek the header: the top bit must mark a compressed body.
        received = recv_frame(right)
        assert received == message

    def test_compressed_header_carries_flag(self, pair):
        left, right = pair
        message = {"type": "eval", "batch": ["x" * 64] * 200}
        send_frame(left, message, compress=True)
        raw = raw_header(right)
        assert raw & COMPRESS_FLAG
        length = raw & ~COMPRESS_FLAG
        body = b""
        while len(body) < length:
            body += right.recv(length - len(body))
        assert protocol.parse_message(zlib.decompress(body)) == message

    def test_small_frames_stay_uncompressed(self, pair):
        left, right = pair
        message = {"type": "ping", "seq": 1}
        send_frame(left, message, compress=True)
        raw = raw_header(right)
        assert not raw & COMPRESS_FLAG
        assert raw < MIN_COMPRESS_BYTES

    def test_incompressible_frames_fall_back(self, pair):
        import random

        left, right = pair
        rng = random.Random(0)
        noise = "".join(
            chr(rng.randrange(0x20, 0x7F)) for _ in range(4096)
        )
        message = {"type": "eval", "noise": noise}
        send_frame(left, message, compress=True)
        received = recv_frame(right)
        assert received == message

    def test_uncompressed_send_never_sets_flag(self, pair):
        left, right = pair
        message = {"type": "eval", "batch": ["x" * 64] * 200}
        send_frame(left, message)  # legacy peer: no compress
        assert not raw_header(right) & COMPRESS_FLAG

    def test_bad_compressed_body_is_protocol_error(self, pair):
        left, right = pair
        body = b"this is not zlib data"
        header = struct.pack("!I", len(body) | COMPRESS_FLAG)
        left.sendall(header + body)
        with pytest.raises(ProtocolError, match="bad compressed"):
            recv_frame(right)

    def test_decompression_bomb_is_rejected(self):
        bomb = zlib.compress(b"\x00" * (protocol.MAX_FRAME_BYTES + 2))
        with pytest.raises(ProtocolError, match="inflates past"):
            protocol._inflate(bomb)


class TestEndToEnd:
    def test_worker_negotiates_and_serves_compressed_batches(self):
        """Full handshake → configure → compressed eval/result."""
        spec = scaled_targets(*SCALES)[TARGET_KEY]
        generator = Generator(spec.generation)
        population = generator.initial_population(4, base_seed=3)

        server = WorkerServer(slots=1).start()
        sock = socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        )
        sock.settimeout(5.0)
        try:
            send_frame(sock, {
                "type": "hello", "protocol": protocol.PROTOCOL_VERSION,
                "role": "coordinator",
                "caps": sorted(LOCAL_CAPS),
            })
            hello = recv_frame(sock)
            assert negotiated_caps(hello) == LOCAL_CAPS
            send_frame(sock, {
                "type": "configure", "target": TARGET_KEY,
                "program_scale": SCALES[0], "loop_scale": SCALES[1],
                "paper": False, "eval_timeout": None, "max_retries": 0,
            })
            assert recv_frame(sock)["type"] == "configured"
            send_frame(sock, {
                "type": "eval",
                "batch": [
                    {"id": i, "program": program_record(p)}
                    for i, p in enumerate(population)
                ],
            }, compress=True)
            result = recv_frame(sock)
            assert result["type"] == "result"
            assert sorted(r["id"] for r in result["results"]) == \
                [0, 1, 2, 3]
            # CAP_METRICS negotiated → the worker ships a snapshot.
            assert isinstance(result.get("metrics"), dict)
            assert result["metrics"].get("families")
        finally:
            sock.close()
            server.close()
            obs.reset()  # the worker enabled metrics process-wide

    def test_legacy_coordinator_gets_plain_results(self):
        """A peer that never sends caps sees no flagged frames and no
        metrics payload — full backward compatibility."""
        spec = scaled_targets(*SCALES)[TARGET_KEY]
        generator = Generator(spec.generation)
        population = generator.initial_population(2, base_seed=5)

        server = WorkerServer(slots=1).start()
        sock = socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        )
        sock.settimeout(5.0)
        try:
            send_frame(sock, {
                "type": "hello", "protocol": protocol.PROTOCOL_VERSION,
                "role": "coordinator",
            })
            recv_frame(sock)
            send_frame(sock, {
                "type": "configure", "target": TARGET_KEY,
                "program_scale": SCALES[0], "loop_scale": SCALES[1],
                "paper": False, "eval_timeout": None, "max_retries": 0,
            })
            assert recv_frame(sock)["type"] == "configured"
            send_frame(sock, {
                "type": "eval",
                "batch": [
                    {"id": i, "program": program_record(p)}
                    for i, p in enumerate(population)
                ],
            })
            raw = raw_header(sock)
            assert not raw & COMPRESS_FLAG
            body = b""
            while len(body) < raw:
                body += sock.recv(raw - len(body))
            result = protocol.parse_message(body)
            assert result["type"] == "result"
            assert "metrics" not in result
        finally:
            sock.close()
            server.close()
