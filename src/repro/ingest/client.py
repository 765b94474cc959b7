"""The trace client: batches, compresses, and ships record lines.

:class:`TraceClient` is the instrumented half the application embeds: a
bounded in-memory queue of compressed batches drained by one background
sender thread. The calling thread only ever appends to the current
batch — compression happens at batch-seal time, socket I/O in the
sender — so instrumented code pays microseconds per record.

Memory is bounded twice: batches are sealed at ``batch_records`` lines,
and at most ``max_pending_batches`` sealed batches wait in the queue.
What happens at the bound is the ``overflow`` policy: ``"block"``
(default — the zero-loss mode; the caller waits for the queue to
drain) or ``"drop"`` (the graceful-degradation mode; the oldest
pending batch is discarded and counted in :attr:`dropped_batches` /
:attr:`dropped_records`).

Backpressure: a ``backpressure:`` nack from the daemon makes the sender
sleep and redeliver the same seq. A nack of a batch's first delivery
sleeps the server's retry-after hint alone (about the time a full queue
takes to free a slot); a nack of a later delivery of the same batch
sleeps ``max(server hint, RetryPolicy backoff)``, so a daemon that stays
full gets a growing backoff — the curve (and its deterministic jitter) is
exactly the engine scheduler's
:class:`~repro.engine.scheduler.RetryPolicy`, keyed by
``(session, seq)``. Redelivery is idempotent: the daemon acks
duplicates without re-spooling. With ``max_retries`` set, a batch that
keeps getting nacked is eventually dropped with its counter bumped;
unset (default) the sender blocks for as long as the daemon pushes
back.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

from repro.core.errors import LagAlyzerError
from repro.engine.scheduler import RetryPolicy
from repro.ingest import protocol
from repro.obs import runtime as obs_runtime
from repro.obs.context import TraceContext, carrier_span

#: Backoff curve for nacked deliveries (deterministic jitter).
DEFAULT_RETRY = RetryPolicy(
    max_attempts=1, base_delay_s=0.01, max_delay_s=0.5,
    backoff_factor=2.0, jitter=0.5,
)


class IngestClientError(LagAlyzerError):
    """The client failed hard (protocol error, daemon rejected us)."""


class _Batch:
    __slots__ = ("seq", "payload", "records", "attempts", "context")

    def __init__(
        self,
        seq: int,
        payload: bytes,
        records: int,
        context: Optional[TraceContext] = None,
    ) -> None:
        self.seq = seq
        self.payload = payload
        self.records = records
        self.attempts = 0
        self.context = context


_END = object()


class TraceClient:
    """Ships LiLa record lines to an :class:`~repro.ingest.server.IngestServer`.

    Args:
        address: the daemon's ``(host, port)``.
        session: session id (the daemon's spool/dedup key).
        application: application name recorded in the spool name.
        batch_records: lines per sealed batch.
        max_pending_batches: sealed batches the queue holds before the
            ``overflow`` policy applies.
        overflow: ``"block"`` (lossless) or ``"drop"`` (lossy, counted).
        max_retries: per-batch delivery attempts before dropping;
            ``None`` retries forever (lossless under backpressure).
        retry: backoff policy for nacked deliveries.
        timeout_s: socket timeout for connects, sends, and ack waits.
        propagate: carry a trace context in HELLO/BATCH frames so the
            daemon's spans parent under this client's send spans
            (effective only while an observer is installed).
        sample_rate: fraction of sessions whose batches carry context —
            a **deterministic** decision derived from
            ``(sample_seed, session)``, not a random draw, so repeated
            runs sample identically.
        sample_seed: seed for the sampling decision and the trace id.
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
        max_pending_batches: int = 64,
        overflow: str = "block",
        max_retries: Optional[int] = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        timeout_s: float = 10.0,
        propagate: bool = True,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
        family: str = "gui",
    ) -> None:
        if overflow not in ("block", "drop"):
            raise IngestClientError(
                f"overflow must be 'block' or 'drop', got {overflow!r}"
            )
        self.address = address
        self.session = session
        self.application = application
        self.family = family
        self.batch_records = max(1, int(batch_records))
        self.max_pending_batches = max(1, int(max_pending_batches))
        self.overflow = overflow
        self.max_retries = max_retries
        self.retry = retry
        self.timeout_s = timeout_s
        self.propagate = bool(propagate)
        self.trace_context = TraceContext.mint(
            session, seed=sample_seed, sample_rate=sample_rate
        )

        self._cond = threading.Condition()
        self._pending: Deque[object] = deque()
        self._current: List[str] = []
        self._seq = 0
        self._closing = False
        self._done = threading.Event()
        #: Set when close() gave up waiting: the sender stops delivering.
        self._abandoned = False
        self._failure: Optional[BaseException] = None
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
            self._seal()

    def extend(self, lines: Iterable[str]) -> None:
        """Buffer many record lines."""
        for line in lines:
            self.send_line(line)

    def flush(self) -> None:
        """Seal the current partial batch, if any."""
        self._check_usable()
        if self._current:
            self._seal()

    def _check_usable(self) -> None:
        if self._closing:
            raise IngestClientError("client is closed")
        if self._failure is not None:
            raise IngestClientError(
                f"client failed: {self._failure}"
            ) from self._failure

    def _propagating(self) -> bool:
        """Whether batches sealed now should carry a trace context."""
        return (
            self.propagate
            and self.trace_context.sampled
            and obs_runtime.current() is not None
        )

    def _seal(self) -> None:
        lines = self._current
        self._current = []
        self._seq += 1
        context = (
            self.trace_context.child() if self._propagating() else None
        )
        payload = protocol.encode_batch(
            lines, context=context.to_dict() if context else None
        )
        batch = _Batch(self._seq, payload, len(lines), context=context)
        with self._cond:
            while (
                self.overflow == "block"
                and self._queued_batches() >= self.max_pending_batches
                and self._failure is None
            ):
                self._cond.wait(timeout=0.1)
            if self._failure is not None:
                return  # close() will surface the failure
            if (
                self.overflow == "drop"
                and self._queued_batches() >= self.max_pending_batches
            ):
                victim = self._oldest_batch()
                if victim is not None:
                    self.dropped_batches += 1
                    self.dropped_records += victim.records
                    obs_runtime.count("ingest.client.dropped_records",
                                      victim.records)
            self._pending.append(batch)
            obs_runtime.set_gauge(
                "ingest.client.queue_depth", self._queued_batches()
            )
            self._cond.notify_all()
        self._ensure_sender()

    def _queued_batches(self) -> int:
        return sum(1 for item in self._pending if isinstance(item, _Batch))

    def _oldest_batch(self) -> Optional[_Batch]:
        for item in list(self._pending):
            if isinstance(item, _Batch):
                self._pending.remove(item)
                return item
        return None

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
        if self._closing:
            return
        if self._current and self._failure is None:
            self._seal()
        self._closing = True
        with self._cond:
            self._pending.append(_END)
            self._cond.notify_all()
        self._ensure_sender()
        finished = self._done.wait(
            timeout=self.timeout_s * 4 if timeout_s is None else timeout_s
        )
        if self._failure is not None:
            raise IngestClientError(
                f"ingest client failed: {self._failure}"
            ) from self._failure
        if not finished:
            self._abandoned = True
            undelivered = (
                self.records_enqueued - self.records_sent
                - self.dropped_records
            )
            host, port = self.address[:2]
            raise IngestClientError(
                f"{undelivered} record(s) not acked by the daemon at "
                f"{host}:{port} before the close wait ran out"
            )

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
        if self._sender is None or not self._sender.is_alive():
            if self._failure is not None or self._done.is_set():
                return
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
            while not self._abandoned:
                with self._cond:
                    while not self._pending:
                        self._cond.wait(timeout=0.1)
                    item = self._pending[0]
                if item is _END:
                    self._deliver_end()
                    with self._cond:
                        self._pending.popleft()
                    break
                self._deliver(item)  # never raises
                with self._cond:
                    self._pending.popleft()
                    obs_runtime.set_gauge(
                        "ingest.client.queue_depth", self._queued_batches()
                    )
                    self._cond.notify_all()
        except BaseException as error:  # noqa: BLE001 - surfaced at close
            self._fail(error)
        finally:
            self._disconnect()
            self._done.set()
            with self._cond:
                self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        self._failure = error
        with self._cond:
            self._cond.notify_all()

    def _drop(self, batch: _Batch) -> None:
        self.dropped_batches += 1
        self.dropped_records += batch.records
        obs_runtime.count("ingest.client.dropped_records", batch.records)

    def _deliver(self, batch: _Batch) -> None:
        """Deliver one batch: retries, backoff, reconnects, drops; or
        give up, neither sent nor dropped, once close() abandoned it.

        Under a sampled trace context the whole delivery — including
        retries — is one ``ingest.client.send`` span whose id *is* the
        propagated ``span_id``, so the daemon's frame/flush spans
        attach to it once observers merge.
        """
        with carrier_span(
            "ingest.client.send", batch.context,
            session=self.session, seq=batch.seq, records=batch.records,
        ):
            self._deliver_inner(batch)

    def _deliver_inner(self, batch: _Batch) -> None:
        while not self._abandoned:
            if (
                self.max_retries is not None
                and batch.attempts > self.max_retries
            ):
                self._drop(batch)
                return
            if batch.attempts:
                self.retries += 1
            batch.attempts += 1
            try:
                if self._sock is None:
                    self._connect()
                started = time.perf_counter()
                protocol.write_frame(
                    self._wfile, protocol.T_BATCH, batch.seq, batch.payload
                )
                reply = protocol.read_frame(self._rfile)
            except (OSError, protocol.ProtocolError):
                # Connection damage: reconnect and redeliver (the
                # daemon dedupes by seq, so this is safe).
                self.reconnects += 1
                self._disconnect()
                time.sleep(
                    self.retry.delay_for(
                        batch.attempts, token=f"{self.session}/{batch.seq}"
                    )
                )
                continue
            if reply is None:
                self.reconnects += 1
                self._disconnect()
                continue
            if reply.type == protocol.T_ACK and reply.seq == batch.seq:
                self.batches_sent += 1
                self.records_sent += batch.records
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
                    self._drop(batch)  # permanent refusal
                    return
                # The first nack waits out the hint alone; the backoff
                # grows from the second (``delay_for(0)`` is 0).
                delay = max(
                    retry_after_ms / 1000.0,
                    self.retry.delay_for(
                        batch.attempts - 1,
                        token=f"{self.session}/{batch.seq}",
                    ),
                )
                obs_runtime.observe("ingest.client.backoff_ms", delay * 1000.0)
                time.sleep(delay)
                continue
            if reply.type == protocol.T_ERROR:
                raise IngestClientError(
                    "daemon error: "
                    + reply.payload.decode("utf-8", "replace")
                )
            raise IngestClientError(
                f"unexpected {reply.name} frame answering a batch"
            )

    def _deliver_end(self) -> None:
        self._seq += 1
        seq = self._seq
        attempts = 0
        while not self._abandoned:
            attempts += 1
            try:
                if self._sock is None:
                    self._connect()
                protocol.write_frame(self._wfile, protocol.T_END, seq)
                reply = protocol.read_frame(self._rfile)
            except (OSError, protocol.ProtocolError):
                if attempts >= 8:
                    raise
                self.reconnects += 1
                self._disconnect()
                time.sleep(self.retry.delay_for(
                    attempts, token=f"{self.session}/end"
                ))
                continue
            if reply is not None and reply.type == protocol.T_ACK:
                return
            if reply is not None and reply.type == protocol.T_ERROR:
                raise IngestClientError(
                    "daemon error on END: "
                    + reply.payload.decode("utf-8", "replace")
                )
            if attempts >= 8:
                raise IngestClientError("daemon never acked END")
            self._disconnect()

    def __repr__(self) -> str:
        return (
            f"TraceClient({self.session!r} -> {self.address[0]}:"
            f"{self.address[1]}, {self.records_sent} records sent, "
            f"{self.dropped_records} dropped)"
        )
