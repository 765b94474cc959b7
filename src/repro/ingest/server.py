"""The collector daemon: a threaded TCP server that spools live traces.

One :class:`IngestServer` accepts any number of concurrent client
connections (one OS thread each, via ``socketserver.ThreadingTCPServer``)
speaking the framed protocol of :mod:`repro.ingest.protocol`. Per
session it keeps a **bounded** queue of accepted-but-unflushed batches;
a single background flush thread drains every session's queue into its
:class:`~repro.ingest.spool.SessionSpool`. The daemon only spools: the
rolling analysis of a session is ``lagalyzer ingest tail`` over its
spool, and full analysis reads the finished spool as any trace file.

Flow control is explicit, not implicit in TCP buffers:

- a batch is **acked** once it sits in the session's bounded queue —
  from that moment the daemon owns it and will flush it;
- a batch that arrives while the queue is full is **nacked** with a
  ``backpressure:`` reason and a retry-after hint — the daemon's 429.
  Nothing is buffered; the client redelivers after the hint, and backs
  off further if the same batch is nacked again;
- a redelivered batch the daemon already accepted (``seq`` at or below
  the session's high-water mark) is acked again without re-enqueueing,
  so retries are idempotent and no record is ever spooled twice;
- ``END`` is acked only after the session's queue is fully flushed,
  which is the zero-loss contract: a client that saw its END ack knows
  every acked record is on disk.

Fault sites: every accepted batch passes ``ingest.frame`` (keyed
``"session/seq"``, attempt = deliveries of that seq seen so far) and
every flush passes ``ingest.flush`` (keyed by session, attempt = the
session's flush-failure count) — so transient rules (``times=1``)
recover on the client's redelivery / the flusher's next cycle, exactly
like scheduler retries.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.faults import runtime as faults_runtime
from repro.ingest import protocol
from repro.ingest.spool import SessionSpool
from repro.obs import runtime as obs_runtime
from repro.obs.context import TraceContext, adopted_span
from repro.obs.http import HealthServer, WakeableServer
from repro.obs.publisher import TelemetryPublisher
from repro.obs.slo import SloPolicy, ingest_stats_for_slo
from repro.obs.warehouse import Warehouse

#: Default bound on accepted-but-unflushed batches per session.
DEFAULT_QUEUE_LIMIT = 8
#: Default retry-after hint sent with backpressure nacks: about how long
#: a full session queue takes to free a slot (median 0.46 ms, p90 2.8 ms
#: over 92 full queues of the fleet benchmark on 2 vCPUs), rounded up to
#: whole milliseconds. A client redelivers after this hint alone once,
#: then backs off.
DEFAULT_RETRY_AFTER_MS = 2
#: How long END waits for the final flush before giving up.
END_FLUSH_ATTEMPTS = 64


class SessionState:
    """Everything the daemon tracks for one ingest session."""

    def __init__(
        self,
        session: str,
        application: str,
        spool: SessionSpool,
        queue_limit: int,
        family: str = "gui",
    ) -> None:
        self.session = session
        self.application = application
        self.family = family
        self.spool = spool
        self.queue_limit = queue_limit
        self.queue: Deque[
            Tuple[int, List[str], Optional[TraceContext]]
        ] = deque()
        #: Trace id propagated in the session's HELLO, if any.
        self.trace_id: Optional[str] = None
        self.lock = threading.Lock()
        # Serializes flushing (the background thread vs an END handler).
        self.flush_lock = threading.Lock()
        #: Highest seq accepted into the queue (acks below it are
        #: idempotent redeliveries).
        self.last_seq = 0
        #: Deliveries seen per in-flight seq (the ``attempt`` coordinate
        #: of the ``ingest.frame`` fault site); pruned on accept.
        self.frame_attempts: Dict[int, int] = {}
        #: Flush failures so far (the ``attempt`` coordinate of the
        #: ``ingest.flush`` site — monotonic, so a transient rule fires
        #: once per session and the next cycle recovers).
        self.flush_attempts = 0
        self.records_accepted = 0
        self.records_flushed = 0
        self.nacks_sent = 0
        self.ended = False

    def pending_batches(self) -> int:
        with self.lock:
            return len(self.queue)

    def try_accept(
        self,
        seq: int,
        lines: List[str],
        context: Optional[TraceContext] = None,
    ) -> str:
        """Accept one delivered batch; ``"ack"``, ``"dup"`` or ``"full"``."""
        with self.lock:
            if seq <= self.last_seq:
                return "dup"
            if len(self.queue) >= self.queue_limit:
                return "full"
            self.queue.append((seq, lines, context))
            self.last_seq = seq
            self.records_accepted += len(lines)
            self.frame_attempts.pop(seq, None)
            return "ack"

    def flush(self) -> int:
        """Drain the queue into the spool; records flushed.

        Raises whatever the ``ingest.flush`` fault site raises, with
        the already-flushed batches safely on disk and the rest still
        queued for the next cycle.
        """
        flushed = 0
        with self.flush_lock:
            while True:
                with self.lock:
                    if not self.queue:
                        break
                    seq, lines, context = self.queue[0]
                started = time.perf_counter()
                with adopted_span(
                    "ingest.server.flush", context,
                    session=self.session, seq=seq, records=len(lines),
                ):
                    try:
                        faults_runtime.check(
                            "ingest.flush",
                            key=self.session,
                            attempt=self.flush_attempts,
                        )
                        self.spool.append(lines)
                    except Exception:
                        self.flush_attempts += 1
                        obs_runtime.count("ingest.server.flush_faults")
                        raise
                obs_runtime.observe(
                    "ingest.server.flush_ms",
                    (time.perf_counter() - started) * 1000.0,
                )
                obs_runtime.count("ingest.server.records", len(lines))
                with self.lock:
                    self.queue.popleft()
                    self.records_flushed += len(lines)
                flushed += len(lines)
        return flushed


class _IngestHandler(socketserver.StreamRequestHandler):
    """One client connection: HELLO, then batches until END or EOF."""

    def handle(self) -> None:  # noqa: C901 - one protocol loop
        server: "IngestServer" = self.server.ingest  # type: ignore[attr-defined]
        try:
            frame = protocol.read_frame(
                self.rfile, max_payload=server.max_payload
            )
        except protocol.ProtocolError as error:
            self._error(0, str(error))
            return
        if frame is None:
            return
        if frame.type != protocol.T_HELLO:
            self._error(frame.seq, "first frame must be HELLO")
            return
        try:
            session_id, application, hello_ctx = (
                protocol.decode_hello_context(frame.payload)
            )
            family = protocol.decode_hello_family(frame.payload)
        except protocol.ProtocolError as error:
            self._error(frame.seq, str(error))
            return
        state = server.session(session_id, application, family=family)
        hello_context = TraceContext.from_dict(hello_ctx)
        if hello_context is not None and hello_context.sampled:
            state.trace_id = hello_context.trace_id
        self._ack(frame.seq)
        obs_runtime.count("ingest.server.connections")

        while True:
            try:
                frame = protocol.read_frame(
                    self.rfile, max_payload=server.max_payload
                )
            except protocol.FrameTooLarge as error:
                # Payload was drained; refuse just this frame.
                self._nack(error.seq, 0, f"oversized: {error}", state)
                continue
            except protocol.ProtocolError as error:
                # Truncation or a bad version byte mid-stream: the
                # framing is lost, the connection is unrecoverable.
                self._error(0, str(error))
                return
            if frame is None:
                return  # client went away; its acked records are safe
            if frame.type == protocol.T_BATCH:
                if not self._handle_batch(server, state, frame):
                    return
            elif frame.type == protocol.T_END:
                self._handle_end(server, state, frame)
                return
            else:
                self._error(
                    frame.seq, f"unexpected {frame.name} frame"
                )
                return

    # ------------------------------------------------------------------

    def _handle_batch(
        self, server: "IngestServer", state: SessionState,
        frame: protocol.Frame,
    ) -> bool:
        attempt = state.frame_attempts.get(frame.seq, 0)
        state.frame_attempts[frame.seq] = attempt + 1
        try:
            faults_runtime.check(
                "ingest.frame",
                key=f"{state.session}/{frame.seq}",
                attempt=attempt,
            )
        except Exception as error:
            self._nack(
                frame.seq, server.retry_after_ms,
                f"backpressure: injected fault ({error})", state,
            )
            return True
        try:
            lines, raw_context = protocol.decode_batch_context(
                frame.payload
            )
        except protocol.ProtocolError as error:
            # Undecodable payloads never become decodable: permanent.
            self._nack(frame.seq, 0, f"bad-batch: {error}", state)
            return True
        context = TraceContext.from_dict(raw_context)
        with adopted_span(
            "ingest.server.frame", context,
            session=state.session, seq=frame.seq, records=len(lines),
        ):
            verdict = state.try_accept(frame.seq, lines, context)
            if verdict == "full":
                self._nack(
                    frame.seq, server.retry_after_ms,
                    "backpressure: session queue full", state,
                )
                return True
            self._ack(frame.seq)
        if verdict == "ack":
            server.wake_flusher()
        return True

    def _handle_end(
        self, server: "IngestServer", state: SessionState,
        frame: protocol.Frame,
    ) -> None:
        for _ in range(END_FLUSH_ATTEMPTS):
            try:
                state.flush()
            except Exception:
                time.sleep(server.flush_interval_s)
                continue
            if state.pending_batches() == 0:
                state.ended = True
                self._ack(frame.seq)
                return
        self._error(frame.seq, "final flush did not complete")

    # ------------------------------------------------------------------

    def _ack(self, seq: int) -> None:
        protocol.write_frame(self.wfile, protocol.T_ACK, seq)

    def _nack(
        self, seq: int, retry_after_ms: int, reason: str,
        state: Optional[SessionState] = None,
    ) -> None:
        if state is not None:
            state.nacks_sent += 1
        obs_runtime.count("ingest.server.nacks")
        protocol.write_frame(
            self.wfile, protocol.T_NACK, seq,
            protocol.encode_nack(retry_after_ms, reason),
        )

    def _error(self, seq: int, reason: str) -> None:
        obs_runtime.count("ingest.server.errors")
        try:
            protocol.write_frame(
                self.wfile, protocol.T_ERROR, seq,
                reason.encode("utf-8"),
            )
        except OSError:
            pass  # client is already gone


class _ThreadingServer(WakeableServer, socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    ingest: "IngestServer"


class IngestServer:
    """The long-running collector daemon.

    Use as a context manager (or call :meth:`start` / :meth:`stop`)::

        with IngestServer(spool_dir="spools") as server:
            client = TraceClient(server.address, session="s-1")
            ...

    Args:
        spool_dir: directory session spools are written to.
        host/port: bind address; port 0 picks a free port.
        queue_limit: accepted-but-unflushed batches per session before
            backpressure nacks start.
        max_payload: per-frame payload ceiling; larger batches are
            drained and nacked.
        retry_after_ms: hint sent with backpressure nacks.
        config: analysis config of spool compaction (default:
            ``AnalysisConfig()``).
        flush_interval_s: background flush cadence (the flusher also
            wakes immediately whenever a batch is accepted).
        health_port: also serve ``/metrics`` / ``/healthz`` /
            ``/sessions`` on this port (0 picks a free one; ``None``
            disables the health surface).
        health_host: bind address for the health surface.
        slo: policy behind ``/healthz``; defaults to
            :data:`~repro.obs.slo.DEFAULT_INGEST_SLO`.
        warehouse: a :class:`~repro.obs.warehouse.Warehouse` (or its
            file path) that a background
            :class:`~repro.obs.publisher.TelemetryPublisher` flushes
            into while the daemon runs. Requires an ambiently installed
            observer (see :func:`repro.obs.runtime.install`) — without
            one there is nothing to publish and the option is inert.
        publish_interval_s: warehouse flush cadence.
        run_id: warehouse partition key; defaults to
            ``ingest-<pid>``.
        study_warehouse: a
            :class:`~repro.warehouse.StudyWarehouse` (or its file path)
            that every flushed session spool is compacted into on
            :meth:`stop` — Table III statistics plus pattern occurrence
            rows per session, filed under ``run_id``. Distinct from
            ``warehouse`` (operational telemetry): the two are
            different schemas and must be different files. Compaction
            failures degrade (warn + ``warehouse.write_errors``), they
            never block shutdown.
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_payload: int = protocol.DEFAULT_MAX_PAYLOAD,
        retry_after_ms: int = DEFAULT_RETRY_AFTER_MS,
        config: Optional[Any] = None,
        flush_interval_s: float = 0.02,
        health_port: Optional[int] = None,
        health_host: str = "127.0.0.1",
        slo: Optional[SloPolicy] = None,
        warehouse: Optional[Union[str, Path, Warehouse]] = None,
        publish_interval_s: float = 2.0,
        run_id: Optional[str] = None,
        study_warehouse: Optional[Union[str, Path, Any]] = None,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        self.queue_limit = max(1, int(queue_limit))
        self.max_payload = int(max_payload)
        self.retry_after_ms = int(retry_after_ms)
        self.config = config
        self.flush_interval_s = flush_interval_s
        self._sessions: Dict[str, SessionState] = {}
        self._sessions_lock = threading.Lock()
        self._server = _ThreadingServer((host, port), _IngestHandler)
        self._server.ingest = self
        self._serve_thread: Optional[threading.Thread] = None
        self._flush_thread: Optional[threading.Thread] = None
        self._flush_wake = threading.Event()
        self._stopping = threading.Event()

        self._health_port = health_port
        self._health_host = health_host
        self._slo = slo
        #: The live health surface, running between start() and stop().
        self.health: Optional[HealthServer] = None
        if warehouse is not None and not isinstance(warehouse, Warehouse):
            warehouse = Warehouse(warehouse)
        self.warehouse: Optional[Warehouse] = warehouse
        self._publish_interval_s = publish_interval_s
        self.run_id = run_id or f"ingest-{os.getpid()}"
        #: The warehouse publisher, running between start() and stop().
        self.publisher: Optional[TelemetryPublisher] = None
        if study_warehouse is not None and not hasattr(
            study_warehouse, "ingest_spools"
        ):
            from repro.warehouse import StudyWarehouse

            study_warehouse = StudyWarehouse(study_warehouse)
        self.study_warehouse = study_warehouse

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._server.server_address[:2]

    def start(self) -> "IngestServer":
        self._serve_thread = self._server.serve_in_thread(
            "ingest-serve", 0.05
        )
        self._flush_thread = threading.Thread(
            target=self._flush_loop, name="ingest-flush", daemon=True
        )
        self._flush_thread.start()
        observer = obs_runtime.current()
        if self.warehouse is not None and observer is not None:
            self.publisher = TelemetryPublisher(
                observer,
                self.warehouse,
                self.run_id,
                interval_s=self._publish_interval_s,
            ).start()
        if self._health_port is not None:
            self.health = HealthServer(
                stats_fn=self.health_stats,
                metrics_fn=self._metrics_text,
                sessions_fn=self.session_summaries,
                slo=self._slo,
                host=self._health_host,
                port=self._health_port,
            ).start()
        return self

    def stop(self) -> None:
        """Shut down: stop accepting, final-flush every session."""
        self._stopping.set()
        self._flush_wake.set()
        if self.health is not None:
            self.health.stop()
            self.health = None
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._flush_thread is not None:
            self._flush_thread.join(timeout=5.0)
        for state in self.sessions():
            try:
                state.flush()
            except Exception:
                pass
            state.spool.close()
        if self.study_warehouse is not None:
            self.compact_spools()
        if self.publisher is not None:
            self.publisher.stop()
            self.publisher = None

    def compact_spools(self) -> Dict[str, int]:
        """Compact every session's flushed spool into the study warehouse.

        Each spool is re-read as a trace source, analyzed under
        ``config`` with the warehouse ingest plan
        (:data:`~repro.warehouse.store.INGEST_ANALYSES`), and stored
        under this daemon's ``run_id`` — so the warehouse's
        per-session ``records`` equals the spool's record count, which
        equals ``records_flushed`` (the zero-loss contract). Every
        session goes through one warehouse connection
        (:meth:`~repro.warehouse.StudyWarehouse.ingest_spools`).
        Per-session failures warn, count ``warehouse.write_errors``, and
        move on; one damaged spool never loses the rest. Returns
        ``{"ingested", "skipped", "failed"}``.
        """
        if self.study_warehouse is None:
            return {"ingested": 0, "skipped": 0, "failed": 0}
        from repro.core.analyzer import AnalysisConfig

        config = self.config if self.config is not None else AnalysisConfig()
        return self.study_warehouse.ingest_spools(
            [(state.session, state.spool.path) for state in self.sessions()],
            self.run_id,
            config,
        )

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session(
        self, session_id: str, application: str, family: str = "gui"
    ) -> SessionState:
        """The state for ``session_id``, created on first contact.

        A reconnecting client reattaches to its existing state, so seq
        dedup and the spool survive dropped connections.
        """
        with self._sessions_lock:
            state = self._sessions.get(session_id)
            if state is None:
                state = SessionState(
                    session_id,
                    application,
                    SessionSpool(self.spool_dir, session_id, application),
                    self.queue_limit,
                    family=family,
                )
                self._sessions[session_id] = state
                obs_runtime.count("ingest.server.sessions")
            return state

    def sessions(self) -> List[SessionState]:
        with self._sessions_lock:
            return list(self._sessions.values())

    def stats(self) -> Dict[str, Any]:
        """Aggregate daemon counters (for tests and the CLI)."""
        sessions = self.sessions()
        return {
            "sessions": len(sessions),
            "records_accepted": sum(
                s.records_accepted for s in sessions
            ),
            "records_flushed": sum(s.records_flushed for s in sessions),
            "pending_batches": sum(s.pending_batches() for s in sessions),
            "nacks_sent": sum(s.nacks_sent for s in sessions),
            "ended_sessions": sum(1 for s in sessions if s.ended),
        }

    def health_stats(self) -> Dict[str, float]:
        """The stat mapping ``/healthz`` evaluates the SLO against."""
        return ingest_stats_for_slo(
            self.stats(),
            telemetry_lost=(
                self.publisher.lost_flushes
                if self.publisher is not None
                else 0
            ),
        )

    def session_summaries(self) -> List[Dict[str, Any]]:
        """Per-session JSON rows for the ``/sessions`` endpoint."""
        rows = []
        for state in sorted(self.sessions(), key=lambda s: s.session):
            rows.append(
                {
                    "session": state.session,
                    "application": state.application,
                    "family": state.family,
                    "records_accepted": state.records_accepted,
                    "records_flushed": state.records_flushed,
                    "pending_batches": state.pending_batches(),
                    "nacks_sent": state.nacks_sent,
                    "ended": state.ended,
                    "trace_id": state.trace_id,
                }
            )
        return rows

    @staticmethod
    def _metrics_text() -> str:
        """Prometheus text of the ambient observer's registry."""
        from repro.obs.export import metrics_to_prometheus

        observer = obs_runtime.current()
        if observer is None:
            return "# observation disabled (no ambient observer)\n"
        return metrics_to_prometheus(observer.metrics.as_dict())

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def wake_flusher(self) -> None:
        self._flush_wake.set()

    def _flush_loop(self) -> None:
        while not self._stopping.is_set():
            self._flush_wake.wait(timeout=self.flush_interval_s)
            self._flush_wake.clear()
            pending = 0
            for state in self.sessions():
                try:
                    state.flush()
                except Exception:
                    pass  # attempt counter advanced; retried next cycle
                pending += state.pending_batches()
            obs_runtime.set_gauge("ingest.server.queue_depth", pending)

    def __repr__(self) -> str:
        host, port = self.address
        return f"IngestServer({host}:{port}, {len(self.sessions())} sessions)"
