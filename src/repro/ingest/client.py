"""The trace client: batches, compresses, and ships record lines.

:class:`TraceClient` is the instrumented half the application embeds: a
bounded in-memory queue of compressed frames drained by one background
sender thread. The calling thread only ever appends to the current
batch — compression happens at batch-seal time, socket I/O in the
sender — so instrumented code pays microseconds per record.

Delivery is lossless or it fails loudly. Memory is bounded twice:
batches are sealed at ``batch_records`` lines, and at most
:data:`MAX_PENDING_BATCHES` sealed batches wait in the queue; a seal
that finds the queue full waits for the sender to free a slot.
``close()`` queues END behind the last batch, and the same sender loop
delivers it. Both waits for the daemon — a seal's wait for a slot and
``close()``'s wait for the END ack — run out after ``timeout_s * 4``
(``close(timeout_s=)`` sets the second). When one does, the client
stops the sender and raises an :class:`IngestClientError` naming the
records the daemon never acked; every later call raises it again.

Backpressure: a ``backpressure:`` nack from the daemon makes the sender
sleep and redeliver the same seq. A nack of a batch's first delivery
sleeps the server's retry-after hint alone (about the time a full queue
takes to free a slot); a nack of a later delivery of the same batch
sleeps ``max(server hint, RetryPolicy backoff)``, so a daemon that stays
full gets a growing backoff — the curve (and its deterministic jitter) is
exactly the engine scheduler's
:class:`~repro.engine.scheduler.RetryPolicy`, keyed by
``(session, seq)``. Redelivery is idempotent: the daemon acks
duplicates without re-spooling. A batch the daemon refuses for good
(any other nack) is dropped and counted in :attr:`dropped_batches` /
:attr:`dropped_records`.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from repro.core.errors import LagAlyzerError
from repro.engine.scheduler import RetryPolicy
from repro.ingest import protocol
from repro.obs import runtime as obs_runtime
from repro.obs.context import TraceContext, carrier_span

#: Sealed batches the queue holds before a seal waits for a free slot.
MAX_PENDING_BATCHES = 64

#: Backoff curve for nacked deliveries (deterministic jitter).
DEFAULT_RETRY = RetryPolicy(
    max_attempts=1, base_delay_s=0.01, max_delay_s=0.5,
    backoff_factor=2.0, jitter=0.5,
)


class IngestClientError(LagAlyzerError):
    """The client failed hard (protocol error, daemon rejected us)."""


class _Frame:
    """One queued frame: a sealed BATCH, or the END that closes the session."""

    __slots__ = ("type", "seq", "payload", "records", "attempts", "context")

    def __init__(
        self,
        frame_type: int,
        seq: int,
        payload: bytes = b"",
        records: int = 0,
        context: Optional[TraceContext] = None,
    ) -> None:
        self.type = frame_type
        self.seq = seq
        self.payload = payload
        self.records = records
        self.attempts = 0
        self.context = context


class TraceClient:
    """Ships LiLa record lines to an :class:`~repro.ingest.server.IngestServer`.

    Args:
        address: the daemon's ``(host, port)``.
        session: session id (the daemon's spool/dedup key).
        application: application name recorded in the spool name.
        batch_records: lines per sealed batch.
        timeout_s: socket timeout for connects, sends, and ack waits;
            a wait for the daemon runs out after four of them.
        propagate: carry a trace context in HELLO/BATCH frames so the
            daemon's spans parent under this client's send spans
            (effective only while an observer is installed).
        sample_rate: fraction of sessions whose batches carry context —
            a **deterministic** decision derived from the session id,
            not a random draw, so repeated runs sample identically.
        family: workload family announced in HELLO (``"gui"``,
            ``"io_service"``, ``"async_pipeline"``); gui omits the key,
            keeping the frame byte-identical to pre-family clients.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        session: str,
        application: str = "",
        batch_records: int = 256,
        timeout_s: float = 10.0,
        propagate: bool = True,
        sample_rate: float = 1.0,
        family: str = "gui",
    ) -> None:
        self.address = address
        self.session = session
        self.application = application
        self.family = family
        self.batch_records = max(1, int(batch_records))
        self.timeout_s = timeout_s
        self.propagate = bool(propagate)
        self.trace_context = TraceContext.mint(session, sample_rate=sample_rate)

        self._cond = threading.Condition()
        self._pending: Deque[_Frame] = deque()
        self._current: List[str] = []
        self._seq = 0
        self._closing = False
        #: Set once the sender thread has exited.
        self._finished = False
        #: What every call raises once set: the sender failed, or a wait
        #: for the daemon ran out. The sender stops delivering.
        self._error: Optional[IngestClientError] = None
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        self._sender: Optional[threading.Thread] = None

        # -- counters (read them after close()) -----------------------
        self.records_enqueued = 0
        self.batches_sent = 0
        self.records_sent = 0
        self.nacks_received = 0
        self.retries = 0
        self.reconnects = 0
        self.dropped_batches = 0
        self.dropped_records = 0

    # ------------------------------------------------------------------
    # Producer API (the instrumented application's thread)
    # ------------------------------------------------------------------

    def send_line(self, line: str) -> None:
        """Buffer one record line; seals and enqueues full batches."""
        self._check_usable()
        self._current.append(line.rstrip("\n"))
        self.records_enqueued += 1
        if len(self._current) >= self.batch_records:
            self._seal(self._deadline(), "send")

    def extend(self, lines: Iterable[str]) -> None:
        """Buffer many record lines."""
        for line in lines:
            self.send_line(line)

    def flush(self) -> None:
        """Seal the current partial batch, if any."""
        self._check_usable()
        if self._current:
            self._seal(self._deadline(), "send")

    def _check_usable(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closing:
            raise IngestClientError("client is closed")

    def _propagating(self) -> bool:
        """Whether batches sealed now should carry a trace context."""
        return (
            self.propagate
            and self.trace_context.sampled
            and obs_runtime.current() is not None
        )

    def _deadline(self, timeout_s: Optional[float] = None) -> float:
        return time.monotonic() + (
            self.timeout_s * 4 if timeout_s is None else timeout_s
        )

    def _seal(self, deadline: float, wait: str) -> None:
        lines = self._current
        self._current = []
        self._seq += 1
        context = (
            self.trace_context.child() if self._propagating() else None
        )
        payload = protocol.encode_batch(
            lines, context=context.to_dict() if context else None
        )
        self._await(
            lambda: len(self._pending) < MAX_PENDING_BATCHES, deadline, wait
        )
        self._enqueue(_Frame(
            protocol.T_BATCH, self._seq, payload, len(lines), context
        ))

    def _enqueue(self, frame: _Frame) -> None:
        with self._cond:
            self._pending.append(frame)
            obs_runtime.set_gauge(
                "ingest.client.queue_depth", len(self._pending)
            )
            self._cond.notify_all()
        self._ensure_sender()

    def _await(
        self, ready: Callable[[], bool], deadline: float, wait: str
    ) -> None:
        """Wait for ``ready()`` until ``deadline``, then give up.

        Giving up records an :class:`IngestClientError` naming the
        records the daemon never acked and stops the sender. That
        error, or the sender's own failure, is raised here and by
        every later call.
        """
        with self._cond:
            while self._error is None and not ready():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    undelivered = (
                        self.records_enqueued - self.records_sent
                        - self.dropped_records
                    )
                    host, port = self.address[:2]
                    self._error = IngestClientError(
                        f"{undelivered} record(s) not acked by the daemon "
                        f"at {host}:{port} before the {wait} wait ran out"
                    )
                    self._cond.notify_all()
                    break
                self._cond.wait(timeout=remaining)
        if self._error is not None:
            raise self._error

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Flush everything, send END, and wait for the daemon's ack.

        Raises:
            IngestClientError: the sender failed hard and records were
                not delivered, or the wait ran out before the daemon
                acked every record and END; the sender then stops.
        """
        if self._error is not None:
            raise self._error
        if self._closing:
            return
        deadline = self._deadline(timeout_s)
        if self._current:
            self._seal(deadline, "close")
        self._closing = True
        self._seq += 1
        self._enqueue(_Frame(protocol.T_END, self._seq))
        self._await(lambda: self._finished, deadline, "close")

    def __enter__(self) -> "TraceClient":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if exc_type is None:
            self.close()
        return False

    # ------------------------------------------------------------------
    # Sender thread
    # ------------------------------------------------------------------

    def _ensure_sender(self) -> None:
        # One sender per client: it ends only after END or a failure.
        if self._sender is None:
            self._sender = threading.Thread(
                target=self._sender_loop,
                name=f"ingest-client-{self.session}",
                daemon=True,
            )
            self._sender.start()

    def _connect(self) -> None:
        self._disconnect()
        sock = socket.create_connection(self.address, timeout=self.timeout_s)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._wfile = sock.makefile("wb")
        hello_context = (
            self.trace_context.to_dict() if self._propagating() else None
        )
        protocol.write_frame(
            self._wfile, protocol.T_HELLO, 0,
            protocol.encode_hello(
                self.session, self.application, context=hello_context,
                family=self.family,
            ),
        )
        reply = protocol.read_frame(self._rfile)
        if reply is None or reply.type != protocol.T_ACK:
            raise IngestClientError(
                "daemon did not ack HELLO"
                if reply is None
                else f"daemon answered HELLO with {reply.name}: "
                     f"{reply.payload.decode('utf-8', 'replace')}"
            )

    def _disconnect(self) -> None:
        for closer in (self._rfile, self._wfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = self._wfile = self._sock = None

    def _sender_loop(self) -> None:
        try:
            while self._error is None:
                with self._cond:
                    while not self._pending and self._error is None:
                        self._cond.wait(timeout=0.1)
                    if self._error is not None:
                        break
                    frame = self._pending[0]
                self._deliver(frame)
                with self._cond:
                    self._pending.popleft()
                    obs_runtime.set_gauge(
                        "ingest.client.queue_depth", len(self._pending)
                    )
                    self._cond.notify_all()
                if frame.type == protocol.T_END:
                    break
        except BaseException as error:  # noqa: BLE001 - raised by the producer
            failure = IngestClientError(f"ingest client failed: {error}")
            failure.__cause__ = error
            with self._cond:
                if self._error is None:
                    self._error = failure
        finally:
            self._disconnect()
            with self._cond:
                self._finished = True
                self._cond.notify_all()

    def _deliver(self, frame: _Frame) -> None:
        """Deliver one frame: retries, backoff, reconnects, drops; or
        give up, neither sent nor dropped, once the client failed.

        Under a sampled trace context the whole delivery of a batch —
        including retries — is one ``ingest.client.send`` span whose id
        *is* the propagated ``span_id``, so the daemon's frame/flush
        spans attach to it once observers merge.
        """
        with carrier_span(
            "ingest.client.send", frame.context,
            session=self.session, seq=frame.seq, records=frame.records,
        ):
            self._deliver_inner(frame)

    def _deliver_inner(self, frame: _Frame) -> None:
        while self._error is None:
            if frame.attempts:
                self.retries += 1
            frame.attempts += 1
            try:
                if self._sock is None:
                    self._connect()
                started = time.perf_counter()
                protocol.write_frame(
                    self._wfile, frame.type, frame.seq, frame.payload
                )
                reply = protocol.read_frame(self._rfile)
            except (OSError, protocol.ProtocolError):
                # Connection damage: reconnect and redeliver (the
                # daemon dedupes by seq, so this is safe).
                self.reconnects += 1
                self._disconnect()
                time.sleep(
                    DEFAULT_RETRY.delay_for(
                        frame.attempts, token=f"{self.session}/{frame.seq}"
                    )
                )
                continue
            if reply is None:
                self.reconnects += 1
                self._disconnect()
                continue
            if reply.type == protocol.T_ACK and reply.seq == frame.seq:
                if frame.type == protocol.T_BATCH:
                    self.batches_sent += 1
                    self.records_sent += frame.records
                    obs_runtime.observe(
                        "ingest.client.flush_ms",
                        (time.perf_counter() - started) * 1000.0,
                    )
                return
            if reply.type == protocol.T_NACK:
                self.nacks_received += 1
                obs_runtime.count("ingest.client.nacks")
                retry_after_ms, reason = protocol.decode_nack(reply.payload)
                if not reason.startswith("backpressure"):
                    # A permanent refusal: drop the batch and count it.
                    self.dropped_batches += 1
                    self.dropped_records += frame.records
                    obs_runtime.count(
                        "ingest.client.dropped_records", frame.records
                    )
                    return
                # The first nack waits out the hint alone; the backoff
                # grows from the second (``delay_for(0)`` is 0).
                delay = max(
                    retry_after_ms / 1000.0,
                    DEFAULT_RETRY.delay_for(
                        frame.attempts - 1,
                        token=f"{self.session}/{frame.seq}",
                    ),
                )
                obs_runtime.observe("ingest.client.backoff_ms", delay * 1000.0)
                time.sleep(delay)
                continue
            if reply.type == protocol.T_ERROR:
                answering = " on END" if frame.type == protocol.T_END else ""
                raise IngestClientError(
                    f"daemon error{answering}: "
                    + reply.payload.decode("utf-8", "replace")
                )
            raise IngestClientError(
                f"unexpected {reply.name} frame answering a batch"
            )

    def __repr__(self) -> str:
        return (
            f"TraceClient({self.session!r} -> {self.address[0]}:"
            f"{self.address[1]}, {self.records_sent} records sent, "
            f"{self.dropped_records} dropped)"
        )
