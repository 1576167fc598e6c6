"""Wire-protocol unit tests: framing round-trips and malformed-frame
rejection (the coordinator must treat a corrupt or hostile peer as a
lost worker, never as a crash)."""

import json
import random
import socket
import struct
import threading

import pytest

from repro.dist import protocol
from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameTimeout,
    ProtocolError,
)
from repro.isa import Program, make, program_record, reg, x64


def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


class TestRoundTrip:
    def test_simple_message(self):
        left, right = pair()
        try:
            protocol.send_frame(left, {"type": "ping", "seq": 7})
            message = protocol.recv_frame(right)
            assert message == {"type": "ping", "seq": 7}
        finally:
            left.close()
            right.close()

    def test_large_batch_round_trips(self):
        left, right = pair()
        isa = x64()
        add = make(isa.by_name("add_r64_r64"), reg("rbx"), reg("rax"))
        batch = [
            {"id": i, "program": program_record(Program(
                instructions=(add,) * 50, name=f"p{i}", init_seed=i,
            ))}
            for i in range(64)
        ]
        received = {}

        def reader():
            received["msg"] = protocol.recv_frame(right)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            protocol.send_frame(left, {"type": "eval", "batch": batch})
            thread.join(timeout=5.0)
            assert received["msg"]["batch"] == batch
        finally:
            left.close()
            right.close()

    def test_back_to_back_frames_keep_boundaries(self):
        left, right = pair()
        try:
            for seq in range(10):
                protocol.send_frame(left, {"type": "pong", "seq": seq})
            for seq in range(10):
                assert protocol.recv_frame(right)["seq"] == seq
        finally:
            left.close()
            right.close()

    def test_result_record_fields(self):
        from repro.core.evaluator import EvaluatedProgram

        entry = EvaluatedProgram(
            program=None, fitness=0.5, total_cycles=123, crashed=False,
            error_kind=None, attempts=2,
        )
        record = protocol.result_record(9, entry)
        assert record == {
            "id": 9, "fitness": 0.5, "total_cycles": 123,
            "crashed": False, "error_kind": None, "attempts": 2,
        }
        # The record must survive JSON exactly (determinism).
        assert json.loads(json.dumps(record)) == record


class TestMalformedFrames:
    def drain(self, payload: bytes):
        left, right = pair()
        try:
            left.sendall(payload)
            left.close()
            return protocol.recv_frame(right)
        finally:
            right.close()

    def test_eof_at_boundary_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            self.drain(b"")

    def test_truncated_header(self):
        with pytest.raises(ConnectionClosed):
            self.drain(b"\x00\x01")

    def test_truncated_body(self):
        with pytest.raises(ConnectionClosed):
            self.drain(struct.pack("!I", 100) + b"{\"type\":")

    def test_oversized_claim_rejected(self):
        with pytest.raises(ProtocolError, match="refusing"):
            self.drain(struct.pack("!I", MAX_FRAME_BYTES + 1))

    def test_invalid_json(self):
        body = b"this is not json"
        with pytest.raises(ProtocolError, match="malformed"):
            self.drain(struct.pack("!I", len(body)) + body)

    def test_invalid_utf8(self):
        body = b"\xff\xfe{}"
        with pytest.raises(ProtocolError, match="malformed"):
            self.drain(struct.pack("!I", len(body)) + body)

    def test_non_object_payload(self):
        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError, match="not a JSON object"):
            self.drain(struct.pack("!I", len(body)) + body)

    def test_missing_type(self):
        body = json.dumps({"seq": 1}).encode()
        with pytest.raises(ProtocolError, match="type"):
            self.drain(struct.pack("!I", len(body)) + body)

    def test_unknown_type(self):
        body = json.dumps({"type": "exfiltrate"}).encode()
        with pytest.raises(ProtocolError, match="unknown message type"):
            self.drain(struct.pack("!I", len(body)) + body)

    def test_fuzz_random_bytes_never_hang_or_crash(self):
        """Random garbage must always resolve to a protocol-level
        error (or a clean close) — never a hang or an unhandled
        exception type."""
        rng = random.Random(1234)
        for _ in range(50):
            blob = bytes(
                rng.getrandbits(8) for _ in range(rng.randrange(0, 64))
            )
            with pytest.raises((ProtocolError, FrameTimeout)):
                left, right = pair()
                right.settimeout(0.2)
                try:
                    left.sendall(blob)
                    left.close()
                    while True:
                        protocol.recv_frame(right)
                finally:
                    right.close()


class TestHandshake:
    def test_version_mismatch_rejected(self):
        message = {"type": "hello", "protocol": PROTOCOL_VERSION + 1,
                   "role": "worker"}
        with pytest.raises(ProtocolError, match="version mismatch"):
            protocol.check_hello(message, expected_role="worker")

    def test_wrong_role_rejected(self):
        message = {"type": "hello", "protocol": PROTOCOL_VERSION,
                   "role": "coordinator"}
        with pytest.raises(ProtocolError, match="expected a 'worker'"):
            protocol.check_hello(message, expected_role="worker")

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError, match="expected hello"):
            protocol.check_hello({"type": "ping"}, expected_role="worker")

    def test_valid_hello_returns_capabilities(self):
        message = {"type": "hello", "protocol": PROTOCOL_VERSION,
                   "role": "worker", "slots": 8}
        assert protocol.check_hello(message, "worker")["slots"] == 8

    def test_idle_socket_raises_frame_timeout(self):
        left, right = pair()
        right.settimeout(0.1)
        try:
            with pytest.raises(FrameTimeout):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()
