"""The ``repro-worker`` agent: one host's slice of the fleet.

A :class:`WorkerServer` listens for coordinator connections and
evaluates the candidate batches it is sent, wrapping the existing
:class:`~repro.core.evaluator.Evaluator` (and therefore
:class:`~repro.util.parallel.ResilientPool`) — so per-host parallelism,
per-task timeouts, bounded retry, quarantine, and health telemetry all
keep working exactly as they do in a single-host campaign.

Each connection runs two threads:

* the **reader** parses frames and answers pings immediately — the
  coordinator's heartbeats get a prompt pong even while a long batch
  is co-simulating, which is what lets it tell slow from dead;
* the **executor** drains a queue of eval batches, decodes each
  candidate from its program record (the encoded instruction bytes of
  :func:`repro.isa.encoding.program_record`, so any program is graded
  exactly as the coordinator holds it, with no generator pass), grades
  the batch, and streams the ``result`` frame back.

Run standalone via the ``repro-worker`` console script or
``harpocrates worker``::

    repro-worker --listen 0.0.0.0:7070 --slots 8 --eval-timeout 60
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import socket
import sys
import threading
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.core.evaluator import QUARANTINE_FITNESS, Evaluator
from repro.core.targets import paper_targets, scaled_targets
from repro.dist import protocol
from repro.dist.membership import ExponentialBackoff, announce
from repro.dist.protocol import (
    CAP_METRICS,
    CAP_ZLIB,
    MSG_BYE,
    MSG_CONFIGURE,
    MSG_CONFIGURED,
    MSG_ERROR,
    MSG_EVAL,
    MSG_HELLO,
    MSG_LEAVING,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    validate_port,
)
from repro.isa.encoding import program_from_record
from repro.util.parallel import clamp_workers


def parse_listen(value: str) -> Tuple[str, int]:
    """``host:port`` → ``(host, port)``; a bare port binds loopback.

    Rejects non-numeric and out-of-range ports with a clear
    :class:`ValueError` instead of a raw traceback.
    """
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", value
    try:
        return host or "127.0.0.1", validate_port(port)
    except ValueError as exc:
        raise ValueError(
            f"invalid listen address {value!r}: {exc}"
        ) from None


def default_evaluator_factory(
    spec, slots: int, eval_timeout: Optional[float], max_retries: int
) -> Evaluator:
    """Build the production evaluator for one configured target."""
    return Evaluator(
        spec.metric,
        spec.machine,
        workers=slots,
        eval_timeout=eval_timeout,
        max_retries=max_retries,
    )


class _Connection:
    """State for one coordinator connection (reader + executor)."""

    def __init__(self, server: "WorkerServer", sock: socket.socket):
        self.server = server
        self.sock = sock
        self.send_lock = threading.Lock()
        self.batches: "queue.Queue[Optional[dict]]" = queue.Queue()
        self.evaluator: Optional[Evaluator] = None
        #: Capabilities negotiated with this coordinator.
        self.caps: FrozenSet[str] = frozenset()
        self.closed = threading.Event()

    def send(
        self, message: Dict[str, object], compress: bool = False
    ) -> None:
        with self.send_lock:
            protocol.send_frame(self.sock, message, compress=compress)

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        self.batches.put(None)
        try:
            self.sock.close()
        except OSError:
            pass


class WorkerServer:
    """A TCP server evaluating candidate batches for coordinators.

    Parameters mirror the local evaluation stack: ``slots`` is this
    host's parallelism (default: CPU count), ``eval_timeout`` /
    ``max_retries`` override whatever the coordinator's ``configure``
    message requests (None/negative = accept the coordinator's
    values).  ``evaluator_factory`` is an injection point for tests —
    the fault-injecting doubles plug in here to exercise failover.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: Optional[int] = None,
        eval_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        evaluator_factory=default_evaluator_factory,
        announce_to: Optional[Tuple[str, int]] = None,
        advertise_host: Optional[str] = None,
        announce_backoff: Optional[ExponentialBackoff] = None,
    ):
        self.host = host
        self.requested_port = port
        self.slots = clamp_workers(slots if slots else os.cpu_count())
        self.eval_timeout = eval_timeout
        self.max_retries = max_retries
        self.evaluator_factory = evaluator_factory
        #: Coordinator registration endpoint for dynamic membership:
        #: while this worker has no coordinator connection it announces
        #: itself here, pacing retries with exponential backoff +
        #: jitter (so a restarted worker rejoins the fleet unassisted).
        self.announce_to = announce_to
        self.advertise_host = advertise_host
        self._announce_backoff = announce_backoff
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._announce_thread: Optional[threading.Thread] = None
        self._connections: List[_Connection] = []
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._draining = threading.Event()
        self._drain_requested = threading.Event()
        #: Eval batches accepted but not yet answered; drain waits for
        #: this to hit zero so SIGTERM never loses in-flight work.
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()[1]

    def start(self) -> "WorkerServer":
        """Bind and begin accepting in a daemon thread; returns self."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.requested_port))
        listener.listen(16)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept", daemon=True
        )
        self._accept_thread.start()
        if self.announce_to is not None:
            self._announce_thread = threading.Thread(
                target=self._announce_loop,
                name="repro-worker-announce",
                daemon=True,
            )
            self._announce_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` (the CLI entrypoint)."""
        if self._listener is None:
            self.start()
        try:
            while not self._closing.is_set():
                if self._drain_requested.is_set():
                    self.drain()
                    return
                self._closing.wait(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def request_drain(self) -> None:
        """Signal-safe drain trigger (the SIGTERM handler calls this);
        :meth:`serve_forever` performs the actual drain."""
        self._drain_requested.set()

    def drain(self, timeout: float = 60.0) -> None:
        """Graceful departure: finish in-flight work, then leave.

        Announces ``leaving`` on every coordinator connection (so the
        coordinator deregisters this host instead of declaring it
        dead), waits for every accepted batch to be answered, then
        closes.  Batches arriving *after* the drain starts are
        refused with an ``error`` frame — the coordinator re-dispatches
        them to the survivors, so nothing is lost or duplicated.
        """
        self._draining.set()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.send({"type": MSG_LEAVING})
            except (OSError, ProtocolError):
                pass
        with self._inflight_cond:
            self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )
        # Let coordinators absorb the final results and deregister
        # (they close their end once ``leaving`` is processed).
        # Closing immediately can RST frames still in flight: a close
        # with an unread ping in our receive queue discards the
        # peer's receive buffer along with the results it holds.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with self._lock:
                if not self._connections:
                    break
            time.sleep(0.05)
        self.close()

    def close(self) -> None:
        """Stop accepting and drop every live connection."""
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    # -- dynamic membership ------------------------------------------------

    def _announce_loop(self) -> None:
        """Register with the coordinator whenever unconnected.

        Exponential backoff + jitter between failed attempts (capped
        at the backoff ceiling); a successful announce or a live
        coordinator connection resets the schedule.  Announcing is
        idempotent — the coordinator deduplicates — so re-announcing
        after a disconnect is always safe.
        """
        assert self.announce_to is not None
        backoff = self._announce_backoff or ExponentialBackoff(
            base=0.5, cap=15.0
        )
        while not (
            self._closing.is_set() or self._draining.is_set()
        ):
            with self._lock:
                connected = bool(self._connections)
            if connected:
                backoff.reset()
                self._closing.wait(0.5)
                continue
            accepted = announce(
                self.announce_to,
                self.advertise_host or "",
                self.port,
                slots=self.slots,
            )
            if accepted:
                backoff.reset()
                # Registered; give the coordinator a generation to
                # dial back before re-announcing.
                self._closing.wait(2.0)
            else:
                self._closing.wait(backoff.next_delay())

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            connection = _Connection(self, sock)
            with self._lock:
                self._connections.append(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repro-worker-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: _Connection) -> None:
        executor = threading.Thread(
            target=self._executor_loop,
            args=(connection,),
            name="repro-worker-exec",
            daemon=True,
        )
        executor.start()
        try:
            hello = protocol.recv_frame(connection.sock)
            protocol.check_hello(hello, expected_role="coordinator")
            connection.caps = protocol.negotiated_caps(hello)
            if CAP_METRICS in connection.caps:
                # Metrics-only: the coordinator asked for snapshots, so
                # start sampling (tracing stays a local --trace-dir
                # decision).
                obs.enable()
            connection.send({
                "type": MSG_HELLO,
                "protocol": PROTOCOL_VERSION,
                "role": "worker",
                "slots": self.slots,
                "pid": os.getpid(),
                "caps": sorted(protocol.LOCAL_CAPS),
            })
            while True:
                message = protocol.recv_frame(connection.sock)
                kind = message["type"]
                if kind == MSG_PING:
                    connection.send(
                        {"type": MSG_PONG, "seq": message.get("seq")}
                    )
                elif kind == MSG_CONFIGURE:
                    self._configure(connection, message)
                elif kind == MSG_EVAL:
                    if self._draining.is_set():
                        # Refused, not dropped: the coordinator sees
                        # the error, condemns this connection, and
                        # re-dispatches the batch to the survivors.
                        connection.send({
                            "type": MSG_ERROR,
                            # Structured flag: lets the coordinator
                            # classify the refusal as a drain even if
                            # this frame beats the ``leaving`` one.
                            "draining": True,
                            "message": "worker is draining; "
                                       "batch refused",
                        })
                    else:
                        self._track_accepted()
                        connection.batches.put(message)
                elif kind == MSG_SHUTDOWN:
                    connection.send({"type": MSG_BYE})
                    return
                else:
                    connection.send({
                        "type": MSG_ERROR,
                        "message": f"unexpected {kind!r} message",
                    })
        except (ConnectionClosed, ProtocolError, OSError):
            return
        finally:
            connection.close()
            self._settle_unanswered(connection)
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    # -- in-flight accounting (drain support) ------------------------------

    def _track_accepted(self) -> None:
        with self._inflight_cond:
            self._inflight += 1

    def _track_settled(self, count: int = 1) -> None:
        if count <= 0:
            return
        with self._inflight_cond:
            self._inflight -= count
            self._inflight_cond.notify_all()

    def _settle_unanswered(self, connection: "_Connection") -> None:
        """Settle batches still queued on a dead connection so a
        drain never waits on work that can no longer be answered.
        The executor's ``None`` sentinel is preserved."""
        settled = 0
        saw_sentinel = False
        while True:
            try:
                message = connection.batches.get_nowait()
            except queue.Empty:
                break
            if message is None:
                saw_sentinel = True
            else:
                settled += 1
        if saw_sentinel:
            connection.batches.put(None)
        self._track_settled(settled)

    def _configure(self, connection: _Connection, message: dict) -> None:
        try:
            target_key = str(message["target"])
            if message.get("paper"):
                targets = paper_targets()
            else:
                targets = scaled_targets(
                    program_scale=float(message["program_scale"]),
                    loop_scale=float(message["loop_scale"]),
                )
            spec = targets[target_key]
            eval_timeout = self.eval_timeout
            if eval_timeout is None:
                raw = message.get("eval_timeout")
                eval_timeout = None if raw is None else float(raw)
            max_retries = self.max_retries
            if max_retries is None:
                max_retries = int(message.get("max_retries", 0))
            connection.evaluator = self.evaluator_factory(
                spec, self.slots, eval_timeout, max_retries
            )
        except (KeyError, TypeError, ValueError) as exc:
            connection.send({
                "type": MSG_ERROR,
                "message": f"bad configure: {type(exc).__name__}: {exc}",
            })
            return
        connection.send({"type": MSG_CONFIGURED, "target": target_key})

    # -- evaluation --------------------------------------------------------

    def _executor_loop(self, connection: _Connection) -> None:
        while True:
            message = connection.batches.get()
            if message is None:
                return
            try:
                if not connection.closed.is_set():
                    self._evaluate_batch(connection, message)
            except (ProtocolError, OSError):
                connection.close()
                return
            finally:
                self._track_settled()

    def _evaluate_batch(self, connection: _Connection, message: dict) -> None:
        if connection.evaluator is None:
            connection.send({
                "type": MSG_ERROR,
                "message": "eval before configure",
            })
            return
        batch = message.get("batch")
        if not isinstance(batch, list):
            connection.send({
                "type": MSG_ERROR,
                "message": "eval message has no batch list",
            })
            return
        ids: List[int] = []
        programs = []
        undecodable: List[Tuple[int, str]] = []
        for entry in batch:
            task_id = int(entry["id"])
            record = dict(entry["program"])
            try:
                program = program_from_record(record)
            except (KeyError, TypeError, ValueError):
                # A record this host cannot decode costs that
                # candidate (quarantined), not the batch.
                undecodable.append(
                    (task_id, str(record.get("name", f"task{task_id}")))
                )
                continue
            ids.append(task_id)
            programs.append(program)
        with obs.phase("worker_batch"):
            evaluated = connection.evaluator.evaluate(programs)
        health = connection.evaluator.take_health()
        obs.inc(
            "repro_worker_batches_total",
            help_text="Eval batches this worker completed",
        )
        obs.inc(
            "repro_worker_tasks_total",
            len(batch),
            "Tasks this worker graded",
        )
        results = [
            protocol.result_record(task_id, entry)
            for task_id, entry in zip(ids, evaluated)
        ]
        for task_id, name in undecodable:
            health.record_error("candidate_error")
            health.quarantined.append(name)
            results.append({
                "id": task_id,
                "fitness": QUARANTINE_FITNESS,
                "total_cycles": 0,
                "crashed": False,
                "error_kind": "candidate_error",
                "attempts": 1,
            })
        reply: Dict[str, object] = {
            "type": MSG_RESULT,
            "results": results,
            "health": health.as_dict(),
        }
        if message.get("gen") is not None:
            # Echo the coordinator's generation tag so a duplicated or
            # straggling result can never be absorbed into the wrong
            # generation (see ``_Generation.seq``).
            reply["gen"] = message["gen"]
        if CAP_METRICS in connection.caps and obs.enabled():
            # Cumulative snapshot: the coordinator merges with replace
            # semantics, so resending the running totals is idempotent.
            reply["metrics"] = obs.snapshot()
        connection.send(reply, compress=CAP_ZLIB in connection.caps)


def main(argv=None) -> int:
    """``repro-worker`` console entrypoint."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Harpocrates distributed-evaluation worker agent",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:7070", metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:7070; port 0 "
             "binds an ephemeral port)",
    )
    parser.add_argument(
        "--slots", type=int, default=None,
        help="local evaluation parallelism (default: CPU count)",
    )
    parser.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="override the coordinator's per-candidate wall-clock budget",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="override the coordinator's retry budget",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="enable observability and write span-trace JSONL plus a "
             "final metrics snapshot into DIR",
    )
    parser.add_argument(
        "--announce", default=None, metavar="HOST:PORT",
        help="register with a coordinator's fleet-registration "
             "listener, re-announcing with exponential backoff while "
             "unconnected — lets this worker join (or rejoin) a "
             "campaign that is already running",
    )
    parser.add_argument(
        "--advertise-host", default=None, metavar="HOST",
        help="hostname to advertise when announcing (default: the "
             "address this worker dials the coordinator from)",
    )
    args = parser.parse_args(argv)
    if args.trace_dir is not None:
        obs.configure(enabled=True, trace_dir=args.trace_dir)
    try:
        host, port = parse_listen(args.listen)
        announce_to = (
            parse_listen(args.announce)
            if args.announce is not None else None
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    server = WorkerServer(
        host=host,
        port=port,
        slots=args.slots,
        eval_timeout=args.eval_timeout,
        max_retries=args.max_retries,
        announce_to=announce_to,
        advertise_host=args.advertise_host,
    )
    # SIGTERM drains: finish the in-flight batch, tell the coordinator
    # we are leaving, then exit — instead of being declared dead.
    signal.signal(
        signal.SIGTERM, lambda signum, frame: server.request_drain()
    )
    server.start()
    print(
        f"repro-worker listening on {host}:{server.port} "
        f"(slots={server.slots}, pid={os.getpid()})",
        flush=True,
    )
    server.serve_forever()
    obs.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
