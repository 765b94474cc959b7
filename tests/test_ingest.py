"""The ingest service: protocol, daemon, client, incremental parity.

Covers the wire-level failure modes (truncated frames, bad version
bytes, oversized batches), the flow-control contract (backpressure
nacks, idempotent redelivery, zero loss through END), durability on
mid-stream disconnects, the chaos behaviour under ``ingest.*`` fault
sites, and the acceptance-critical property that the rolling analysis
``ingest tail`` runs seals a trace whose summaries are byte-identical
to a one-shot analysis of the same records.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

from helpers import GOLDEN_DIR, dispatch, gui_sample, listener_iv, make_trace
from repro.cli import main
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.errors import TraceFormatError
from repro.core.store.facade import FacadeTrace
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults import runtime as faults_runtime
from repro.ingest import (
    IncrementalSessionAnalyzer,
    IngestServer,
    SessionSpool,
    TraceClient,
)
from repro.ingest import client as client_module
from repro.ingest import protocol
from repro.ingest.client import (
    DEFAULT_RETRY,
    MAX_PENDING_BATCHES,
    IngestClientError,
)
from repro.lila.source import build_store, open_source
from repro.lila.writer import trace_to_lines
from repro.obs import runtime as obs_runtime
from repro.obs.http import HealthServer
from repro.obs.observer import Observer
from repro.warehouse import StudyWarehouse


def sample_lines(offset_ms: float = 0.0, session: str = "s0"):
    """A small, fully-featured trace as LiLa text lines."""
    roots = [
        dispatch(offset_ms + 0, offset_ms + 150,
                 [listener_iv("com.example.A.run", offset_ms + 0,
                              offset_ms + 140)]),
        dispatch(offset_ms + 200, offset_ms + 250,
                 [listener_iv("com.example.B.run", offset_ms + 200,
                              offset_ms + 240)]),
        dispatch(offset_ms + 300, offset_ms + 320),
    ]
    samples = [gui_sample(offset_ms + 50.0), gui_sample(offset_ms + 210.0)]
    trace = make_trace(roots, samples=samples)
    trace.metadata.session_id = session
    return trace_to_lines(trace)


def golden_lines(name: str):
    """A golden trace's lines, split where the trace reader splits."""
    text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    return text.split("\n")[:-1]


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def closed_port() -> int:
    """A local port where no daemon listens."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def bounded(call, timeout_s: float = 10.0):
    """Run ``call`` in a thread; what it raised, or None. Fails, rather
    than hangs, when the call outlasts ``timeout_s``."""
    raised = []

    def run() -> None:
        try:
            call()
        except BaseException as error:  # noqa: BLE001 - returned
            raised.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"still running after {timeout_s} s"
    return raised[0] if raised else None


class RawConnection:
    """A hand-driven protocol connection for wire-level tests."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def hello(self, session="raw", application="RawApp"):
        protocol.write_frame(
            self.wfile, protocol.T_HELLO, 0,
            protocol.encode_hello(session, application),
        )
        return protocol.read_frame(self.rfile)

    def send(self, frame_type, seq, payload=b""):
        protocol.write_frame(self.wfile, frame_type, seq, payload)
        return protocol.read_frame(self.rfile)

    def close(self):
        for closer in (self.rfile, self.wfile, self.sock):
            try:
                closer.close()
            except OSError:
                pass


@pytest.fixture
def server(tmp_path):
    with IngestServer(spool_dir=tmp_path / "spools") as srv:
        yield srv


# ----------------------------------------------------------------------
# Protocol codecs
# ----------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, protocol.T_BATCH, 7, b"payload")
        buffer.seek(0)
        frame = protocol.read_frame(buffer)
        assert (frame.type, frame.seq, frame.payload) == (
            protocol.T_BATCH, 7, b"payload",
        )
        assert protocol.read_frame(buffer) is None  # clean EOF

    def test_truncated_header_raises(self):
        buffer = io.BytesIO(b"\x01\x02")
        with pytest.raises(protocol.ProtocolError, match="truncated frame header"):
            protocol.read_frame(buffer)

    def test_truncated_payload_raises(self):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, protocol.T_BATCH, 1, b"full payload")
        data = buffer.getvalue()[:-4]
        with pytest.raises(protocol.ProtocolError, match="truncated frame"):
            protocol.read_frame(io.BytesIO(data))

    def test_bad_version_byte_raises(self):
        header = struct.pack("!BBII", 99, protocol.T_BATCH, 1, 0)
        with pytest.raises(
            protocol.ProtocolError, match="unsupported protocol version 99"
        ):
            protocol.read_frame(io.BytesIO(header))

    def test_oversized_frame_drained_and_connection_usable(self):
        buffer = io.BytesIO()
        protocol.write_frame(buffer, protocol.T_BATCH, 3, b"x" * 2048)
        protocol.write_frame(buffer, protocol.T_END, 4)
        buffer.seek(0)
        with pytest.raises(protocol.FrameTooLarge) as excinfo:
            protocol.read_frame(buffer, max_payload=1024)
        assert excinfo.value.seq == 3
        follower = protocol.read_frame(buffer, max_payload=1024)
        assert (follower.type, follower.seq) == (protocol.T_END, 4)

    def test_batch_codec_round_trip(self):
        lines = ["#%lila", "M application App", "T AWT-EventQueue-0"]
        assert protocol.decode_batch(protocol.encode_batch(lines)) == lines
        assert protocol.decode_batch(protocol.encode_batch([])) == []

    def test_batch_codec_rejects_damage(self):
        payload = protocol.encode_batch(["a", "b"])
        with pytest.raises(protocol.ProtocolError, match="not valid gzip"):
            protocol.decode_batch(payload[:4] + b"garbage")
        wrong_count = struct.pack("!I", 9) + payload[4:]
        with pytest.raises(protocol.ProtocolError, match="declared 9"):
            protocol.decode_batch(wrong_count)

    def test_hello_and_nack_codecs(self):
        assert protocol.decode_hello(
            protocol.encode_hello("s-1", "App")
        ) == ("s-1", "App", None, "gui")
        assert protocol.decode_hello(
            protocol.encode_hello("s-1", "App", family="io_service")
        ) == ("s-1", "App", None, "io_service")
        with pytest.raises(protocol.ProtocolError, match="non-empty"):
            protocol.decode_hello(protocol.encode_hello(""))
        with pytest.raises(protocol.ProtocolError, match="malformed HELLO"):
            protocol.decode_hello(b"[]")
        assert protocol.decode_nack(
            protocol.encode_nack(250, "backpressure: full")
        ) == (250, "backpressure: full")


# ----------------------------------------------------------------------
# Daemon wire behaviour
# ----------------------------------------------------------------------


class TestServerWire:
    @pytest.mark.parametrize("kind", ("ingest", "health"))
    def test_idle_stop_wakes_the_serve_loop(self, tmp_path, kind):
        """``stop()`` returns without waiting for the accept loop's
        ``select`` to time out (a 50 ms poll for the daemon, 100 ms for
        its health surface)."""
        took = []
        for _ in range(3):
            if kind == "ingest":
                srv = IngestServer(spool_dir=tmp_path / "spools").start()
            else:
                srv = HealthServer(stats_fn=dict).start()
            time.sleep(0.02)  # let the loop block in its select
            start = time.perf_counter()
            srv.stop()
            took.append(time.perf_counter() - start)
        assert min(took) < 0.010, took

    @staticmethod
    def _stop_in_thread(srv) -> threading.Thread:
        stopper = threading.Thread(target=srv.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=1.0)
        return stopper

    @pytest.mark.parametrize("kind", ("ingest", "health"))
    def test_stop_of_a_server_never_started_returns(self, tmp_path, kind):
        if kind == "ingest":
            srv = IngestServer(spool_dir=tmp_path / "spools")
        else:
            srv = HealthServer(stats_fn=dict)
        listener = srv._server.socket
        assert listener.fileno() != -1
        assert not self._stop_in_thread(srv).is_alive()
        assert listener.fileno() == -1
        assert srv._server._wake_read.fileno() == -1
        assert srv._server._wake_write.fileno() == -1

    @pytest.mark.parametrize("kind", ("ingest", "health"))
    def test_stop_right_after_start_leaves_no_serve_thread(
        self, tmp_path, kind
    ):
        for _ in range(5):
            if kind == "ingest":
                srv = IngestServer(spool_dir=tmp_path / "spools").start()
                serving = srv._serve_thread
            else:
                srv = HealthServer(stats_fn=dict).start()
                serving = srv._thread
            assert not self._stop_in_thread(srv).is_alive()
            serving.join(timeout=1.0)
            assert not serving.is_alive()
            assert srv._server.socket.fileno() == -1

    def test_shutdown_waits_for_a_serve_thread_not_yet_in_its_loop(
        self, tmp_path
    ):
        """A ``shutdown()`` that comes before the serve thread reaches
        its loop waits for that loop to run and return."""
        server = IngestServer(spool_dir=tmp_path / "spools")._server
        release = threading.Event()
        serve_forever = server.serve_forever

        def held(poll_interval: float) -> None:
            release.wait(timeout=10.0)
            serve_forever(poll_interval=poll_interval)

        server.serve_forever = held
        try:
            serving = server.serve_in_thread("held-serve", 0.05)
            stopper = threading.Thread(target=server.shutdown, daemon=True)
            stopper.start()
            stopper.join(timeout=0.3)
            assert stopper.is_alive(), "shutdown() returned before the loop ran"
            release.set()
            stopper.join(timeout=5.0)
            assert not stopper.is_alive()
            serving.join(timeout=5.0)
            assert not serving.is_alive()
        finally:
            release.set()
            server.server_close()

    @pytest.mark.parametrize("kind", ("ingest", "health"))
    def test_a_port_in_use_fails_with_os_error(self, tmp_path, kind):
        taken = socket.socket()
        try:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(OSError):
                if kind == "ingest":
                    IngestServer(spool_dir=tmp_path / "spools", port=port)
                else:
                    HealthServer(stats_fn=dict, port=port)
        finally:
            taken.close()

    def test_bad_version_byte_answered_with_error(self, server):
        conn = RawConnection(server.address)
        try:
            conn.wfile.write(struct.pack("!BBII", 9, protocol.T_HELLO, 0, 0))
            conn.wfile.flush()
            reply = protocol.read_frame(conn.rfile)
            assert reply is not None and reply.type == protocol.T_ERROR
            assert b"unsupported protocol version" in reply.payload
        finally:
            conn.close()

    def test_truncated_frame_answered_with_error(self, server):
        conn = RawConnection(server.address)
        try:
            assert conn.hello().type == protocol.T_ACK
            conn.wfile.write(b"\x01\x02\x03")  # half a header, then EOF
            conn.wfile.flush()
            conn.sock.shutdown(socket.SHUT_WR)
            reply = protocol.read_frame(conn.rfile)
            assert reply is not None and reply.type == protocol.T_ERROR
            assert b"truncated" in reply.payload
        finally:
            conn.close()

    @pytest.mark.parametrize("family", ("", 3), ids=("empty", "number"))
    def test_hello_with_a_bad_family_answered_with_error(self, server, family):
        conn = RawConnection(server.address)
        try:
            payload = json.dumps({"family": family, "session": "fam"})
            reply = conn.send(protocol.T_HELLO, 0, payload.encode("utf-8"))
            assert reply.type == protocol.T_ERROR
            assert b"'family'" in reply.payload
        finally:
            conn.close()
        assert server.sessions() == []

    def test_first_frame_must_be_hello(self, server):
        conn = RawConnection(server.address)
        try:
            reply = conn.send(protocol.T_BATCH, 1, protocol.encode_batch(["x"]))
            assert reply.type == protocol.T_ERROR
            assert b"HELLO" in reply.payload
        finally:
            conn.close()

    def test_oversized_batch_nacked_connection_survives(self, tmp_path):
        with IngestServer(
            spool_dir=tmp_path / "spools", max_payload=1024
        ) as srv:
            conn = RawConnection(srv.address)
            try:
                assert conn.hello(session="big").type == protocol.T_ACK
                reply = conn.send(protocol.T_BATCH, 1, b"z" * 4096)
                assert reply.type == protocol.T_NACK
                _, reason = protocol.decode_nack(reply.payload)
                assert reason.startswith("oversized")
                # The same connection still accepts a well-sized batch.
                lines = sample_lines(session="big")
                reply = conn.send(
                    protocol.T_BATCH, 2, protocol.encode_batch(lines)
                )
                assert reply.type == protocol.T_ACK
                assert conn.send(protocol.T_END, 3).type == protocol.T_ACK
                state = srv.sessions()[0]
                assert state.records_flushed == len(lines)
            finally:
                conn.close()

    def test_duplicate_seq_acked_but_spooled_once(self, server):
        lines = sample_lines(session="dup")
        conn = RawConnection(server.address)
        try:
            assert conn.hello(session="dup").type == protocol.T_ACK
            payload = protocol.encode_batch(lines)
            assert conn.send(protocol.T_BATCH, 1, payload).type == protocol.T_ACK
            # Redelivery of an accepted seq: acked again, not re-spooled.
            assert conn.send(protocol.T_BATCH, 1, payload).type == protocol.T_ACK
            assert conn.send(protocol.T_END, 2).type == protocol.T_ACK
        finally:
            conn.close()
        state = server.sessions()[0]
        assert state.records_flushed == len(lines)
        assert state.spool.path.read_text().splitlines() == lines

    def test_undecodable_batch_nacked_permanently(self, server):
        conn = RawConnection(server.address)
        try:
            assert conn.hello(session="bad").type == protocol.T_ACK
            reply = conn.send(protocol.T_BATCH, 1, b"\x00\x00\x00\x02junk")
            assert reply.type == protocol.T_NACK
            _, reason = protocol.decode_nack(reply.payload)
            assert reason.startswith("bad-batch")
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Durability and flow control
# ----------------------------------------------------------------------


class TestBackpressureSleep:
    """A nacked batch waits out the server's hint once, then backs off."""

    @staticmethod
    def sleeps_when_nacked(tmp_path, monkeypatch, hint_ms, nacks=2):
        """Replay a session whose first batch is nacked ``nacks`` times;
        return the sleeps of its sender thread."""
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            if threading.current_thread().name == "ingest-client-bp":
                sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        plan = FaultPlan(seed=3, rules=(
            FaultRule(kind="task_error", site="ingest.frame",
                      at=("bp/1",), times=nacks),
        ))
        lines = sample_lines(session="bp")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(
                spool_dir=tmp_path / "spools", retry_after_ms=hint_ms
            ) as srv:
                with TraceClient(
                    srv.address, session="bp", batch_records=len(lines)
                ) as client:
                    client.extend(lines)
                assert srv.sessions()[0].spool.path.read_text(
                ).splitlines() == lines
        assert client.nacks_received == nacks
        assert client.dropped_records == 0
        return sleeps

    @pytest.mark.parametrize("hint_ms", (7, 40))
    def test_first_nack_sleeps_the_hint_then_the_backoff_applies(
        self, tmp_path, monkeypatch, hint_ms
    ):
        sleeps = self.sleeps_when_nacked(tmp_path, monkeypatch, hint_ms)
        backoff = DEFAULT_RETRY.delay_for(1, token="bp/1")
        assert 0.007 < backoff < 0.040  # one hint below it, one above
        assert sleeps == [hint_ms / 1000.0, max(hint_ms / 1000.0, backoff)]

    def test_each_backpressure_sleep_is_observed(
        self, tmp_path, monkeypatch, capsys
    ):
        observer = Observer()
        with obs_runtime.installed(observer):
            sleeps = self.sleeps_when_nacked(
                tmp_path, monkeypatch, hint_ms=7, nacks=1
            )
        assert sleeps == [0.007]
        hist = observer.metrics.histogram("ingest.client.backoff_ms")
        assert hist.count == 1
        assert hist.total == pytest.approx(7.0)
        # `obs report` lists it next to the send-to-ack latency.
        bundle = observer.save(tmp_path / "obs")
        capsys.readouterr()
        assert main(["obs", "report", str(bundle)]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out
                 .splitlines() if line.startswith("  ingest.client.")]
        assert "ingest.client.backoff_ms" in names
        at = names.index("ingest.client.backoff_ms")
        assert names[at + 1] == "ingest.client.flush_ms"


class TestDurability:
    def test_mid_stream_disconnect_leaves_spool_readable(self, server):
        lines = sample_lines(session="gone")
        conn = RawConnection(server.address)
        assert conn.hello(session="gone", application="App").type == protocol.T_ACK
        reply = conn.send(
            protocol.T_BATCH, 1, protocol.encode_batch(lines)
        )
        assert reply.type == protocol.T_ACK
        conn.close()  # vanish without END
        state = server.sessions()[0]
        assert wait_until(lambda: state.records_flushed == len(lines))
        store = build_store(open_source(state.spool.path))
        assert store.metadata.session_id == "gone"
        assert state.spool.path.read_text().splitlines() == lines

    def test_client_round_trip_zero_loss(self, server):
        lines = sample_lines(session="c0")
        with TraceClient(
            server.address, session="c0", application="App", batch_records=5
        ) as client:
            client.extend(lines)
        assert client.records_sent == len(lines)
        assert client.dropped_records == 0
        state = server.sessions()[0]
        assert state.ended
        assert state.spool.path.read_text().splitlines() == lines

    def test_concurrent_sessions_zero_loss(self, tmp_path):
        import threading

        with IngestServer(
            spool_dir=tmp_path / "spools", queue_limit=2
        ) as srv:
            per_session = {}

            def ship(index: int) -> None:
                session = f"s{index}"
                lines = sample_lines(session=session)
                per_session[session] = lines
                with TraceClient(
                    srv.address, session=session, batch_records=3
                ) as client:
                    client.extend(lines)

            threads = [
                threading.Thread(target=ship, args=(i,)) for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            states = {s.session: s for s in srv.sessions()}
            assert len(states) == 12
            for session, lines in per_session.items():
                assert states[session].ended
                spooled = states[session].spool.path.read_text().splitlines()
                assert spooled == lines

    def test_damaged_record_spools_verbatim(self, server):
        """The daemon does not parse what it spools: a damaged record is
        acked and spooled as sent, for the reader to report."""
        lines = sample_lines(session="dmg")
        lines.insert(len(lines) - 1, "Z bogus record")
        with TraceClient(server.address, session="dmg") as client:
            client.extend(lines)
        state = server.sessions()[0]
        assert state.ended
        assert client.records_sent == len(lines)
        assert state.spool.path.read_text().splitlines() == lines

    def test_close_raises_when_its_wait_runs_out(self):
        """Against a port where no daemon listens, close() names the
        records never acked, and the sender stops retrying."""
        port = closed_port()
        lines = golden_lines("CrosswordSage-session-0.lila")
        assert len(lines) == 1187
        client = TraceClient(("127.0.0.1", port), session="nowhere")
        client.extend(lines)
        started = time.monotonic()
        with pytest.raises(IngestClientError) as info:
            client.close(timeout_s=0.5)
        assert time.monotonic() - started < 2.0
        assert str(info.value) == (
            "1187 record(s) not acked by the daemon at "
            f"127.0.0.1:{port} before the close wait ran out"
        )
        assert wait_until(lambda: not any(
            thread.name == "ingest-client-nowhere"
            for thread in threading.enumerate()
        ))
        assert client.records_sent == 0
        assert client.dropped_records == 0

    def test_refused_batch_is_dropped_and_counted(self, tmp_path):
        """A batch the daemon refuses for good is dropped and counted;
        every other batch is spooled in order, and END is acked."""
        lines = golden_lines("CrosswordSage-session-0.lila")
        batches = [lines[at:at + 64] for at in range(0, len(lines), 64)]
        kept = [
            batch for batch in batches
            if len(protocol.encode_batch(batch)) <= 600
        ]
        assert len(batches) - len(kept) == 2
        with IngestServer(
            spool_dir=tmp_path / "spools", max_payload=600
        ) as srv:
            client = TraceClient(srv.address, session="big", batch_records=64)
            assert bounded(lambda: (client.extend(lines), client.close())) is None
            state = srv.sessions()[0]
            assert state.ended
            spooled = state.spool.path.read_text().splitlines()
        assert (client.dropped_batches, client.dropped_records) == (2, 128)
        assert client.nacks_received == 2
        assert spooled == [line for batch in kept for line in batch]
        assert client.records_sent == len(spooled) == 1059

    def test_extend_raises_when_no_slot_frees(self):
        """Against a port where no daemon listens, a seal that waits for
        a queue slot gives up after the send wait, and every later call
        raises the same error."""
        port = closed_port()
        client = TraceClient(
            ("127.0.0.1", port), session="full", batch_records=1,
            timeout_s=0.25,
        )
        started = time.monotonic()
        error = bounded(lambda: client.extend(f"line {i}" for i in range(100)))
        assert time.monotonic() - started < 2.0
        message = (
            f"{MAX_PENDING_BATCHES + 1} record(s) not acked by the daemon "
            f"at 127.0.0.1:{port} before the send wait ran out"
        )
        assert isinstance(error, IngestClientError)
        assert str(error) == message
        again = bounded(client.close)
        assert isinstance(again, IngestClientError) and str(again) == message
        assert wait_until(lambda: not any(
            thread.name == "ingest-client-full"
            for thread in threading.enumerate()
        ))
        assert client.records_sent == 0

    def test_end_refused_raises(self, tmp_path):
        """A daemon that cannot flush the session answers END with an
        ERROR, and close() raises it."""
        plan = FaultPlan(seed=2, rules=(
            FaultRule(kind="task_error", site="ingest.flush",
                      probability=1.0, times=None),
        ))
        lines = sample_lines(session="unflushed")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(spool_dir=tmp_path / "spools") as srv:
                client = TraceClient(srv.address, session="unflushed")
                client.extend(lines)
                error = bounded(client.close)
        assert isinstance(error, IngestClientError)
        assert str(error) == (
            "ingest client failed: daemon error on END: "
            "final flush did not complete"
        )
        assert client.records_sent == len(lines)


# ----------------------------------------------------------------------
# Chaos: the ingest.* fault sites
# ----------------------------------------------------------------------


class TestIngestChaos:
    def test_transient_frame_fault_recovers_on_redelivery(self, tmp_path):
        # times=1 (the transient default): the first delivery of seq 1
        # is nacked, the client's redelivery is accepted. Zero loss.
        plan = FaultPlan(seed=11, rules=(
            FaultRule(kind="task_error", site="ingest.frame",
                      at=("chaos/1", "chaos/3")),
        ))
        lines = sample_lines(session="chaos")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(spool_dir=tmp_path / "spools") as srv:
                with TraceClient(
                    srv.address, session="chaos", batch_records=5
                ) as client:
                    client.extend(lines)
                state = srv.sessions()[0]
                assert state.ended
                spooled = state.spool.path.read_text().splitlines()
        assert spooled == lines
        assert client.nacks_received >= 2
        assert client.records_sent == len(lines)
        assert client.dropped_records == 0

    def test_transient_flush_fault_retried_next_cycle(self, tmp_path):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(kind="task_error", site="ingest.flush",
                      probability=1.0),  # times=1: first flush fails
        ))
        lines = sample_lines(session="fl")
        with faults_runtime.installed(FaultInjector(plan)):
            with IngestServer(spool_dir=tmp_path / "spools") as srv:
                with TraceClient(
                    srv.address, session="fl", batch_records=50
                ) as client:
                    client.extend(lines)
                state = srv.sessions()[0]
                assert state.flush_attempts >= 1  # the injected failure
                assert state.ended                # ...and full recovery
                assert state.spool.path.read_text().splitlines() == lines
        assert client.dropped_records == 0


# ----------------------------------------------------------------------
# Incremental analysis parity
# ----------------------------------------------------------------------


class TestIncrementalParity:
    def test_rolling_summary_advances_per_episode(self):
        analyzer = IncrementalSessionAnalyzer(config=AnalysisConfig())
        lines = sample_lines(session="inc")
        seen = []
        for line in lines:
            for _episode in analyzer.push_line(line):
                seen.append(analyzer.rolling_summary()["episodes"])
        assert seen == [1, 2, 3]
        summary = analyzer.rolling_summary()
        assert summary["perceptible_episodes"] == 1
        assert summary["distinct_patterns"] == 2
        assert summary["covered_episodes"] == 2
        assert summary["unstructured_episodes"] == 1

    @pytest.mark.parametrize("batch", [1, 3, 1000])
    def test_batching_does_not_change_the_rolling_analysis(self, batch):
        """Roots that close before the metadata names the dispatch
        thread are never episodes, however the lines were batched."""
        lines = sample_lines(session="late")
        gui_meta = next(
            line for line in lines if line.startswith("M gui_thread ")
        )
        lines.remove(gui_meta)
        # Announced once the first of the three roots has closed.
        lines.insert(lines.index("C 150000000") + 1, gui_meta)
        analyzer = IncrementalSessionAnalyzer(config=AnalysisConfig())
        for start in range(0, len(lines), batch):
            analyzer.push_lines(lines[start:start + batch])
        assert analyzer.rolling_summary()["episodes"] == 2
        assert analyzer.lines_fed == len(lines)

    @pytest.mark.parametrize(
        "config",
        [
            AnalysisConfig(),
            AnalysisConfig(
                all_dispatch_threads=True,
                include_gc_in_patterns=True,
                perceptible_threshold_ms=30,
            ),
        ],
        ids=["default", "all-threads-gc-30ms"],
    )
    @pytest.mark.parametrize(
        "golden", sorted(GOLDEN_DIR.glob("*.lila")), ids=lambda path: path.stem
    )
    def test_rolling_summary_matches_the_batch_analysis(self, golden, config):
        """Every family's episodes split live as the batch path splits
        them, the request and stage roots of io_service and
        async_pipeline sessions included."""
        lines = golden_lines(golden.name)
        analyzer = IncrementalSessionAnalyzer(config=config)
        for start in range(0, len(lines), 7):
            analyzer.push_lines(lines[start:start + 7])
        batch = LagAlyzer.load([golden], config=config)
        table = batch.pattern_table()
        rolling = analyzer.rolling_summary()
        assert {
            name: rolling[name]
            for name in (
                "episodes", "perceptible_episodes", "distinct_patterns",
                "covered_episodes", "unstructured_episodes", "longest_lag_ms",
            )
        } == {
            "episodes": len(batch.episodes),
            "perceptible_episodes": len(batch.perceptible_episodes()),
            "distinct_patterns": table.distinct_count,
            "covered_episodes": table.covered_episodes,
            "unstructured_episodes": table.excluded_episodes,
            "longest_lag_ms": max(
                episode.duration_ms for episode in batch.episodes
            ),
        }

    def test_summaries_byte_identical_to_one_shot(self, tmp_path):
        lines = sample_lines(session="parity")
        config = AnalysisConfig()

        analyzer = IncrementalSessionAnalyzer(config=config)
        analyzer.push_lines(lines)
        incremental = LagAlyzer(
            [analyzer.finalize()], config=config
        ).summaries()

        path = tmp_path / "parity.lila"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        one_shot = LagAlyzer(
            [FacadeTrace(build_store(open_source(path)))], config=config
        ).summaries()

        assert pickle.dumps(incremental) == pickle.dumps(one_shot)


# ----------------------------------------------------------------------
# Spool
# ----------------------------------------------------------------------


class TestSpool:
    def test_hostile_session_id_cannot_escape_directory(self, tmp_path):
        spool = SessionSpool(tmp_path, "../../etc/passwd", "Evil App")
        assert spool.path.parent == tmp_path
        assert spool.path.name == "Evil_App-etc_passwd.lila"
        assert "/" not in spool.path.name and ".." not in spool.path.name

    def test_append_is_durable_and_counted(self, tmp_path):
        spool = SessionSpool(tmp_path, "s1", "App")
        with spool:
            assert spool.append(["#%lila", "M application App"]) == 2
            assert spool.append([]) == 0
        assert spool.lines_written == 2
        assert spool.path.read_text() == "#%lila\nM application App\n"


# ----------------------------------------------------------------------
# The ingest command line
# ----------------------------------------------------------------------


#: Characters ``str.splitlines`` breaks at that a symbol may hold and
#: the trace reader keeps inside a line.
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestIngestCli:
    @pytest.fixture(params=NOT_LINE_ENDS, ids=lambda char: f"U+{ord(char):04X}")
    def odd_symbol_trace(self, request, tmp_path):
        """The CrosswordSage golden trace with ``<char>x`` appended to its
        first listener symbol; it still parses."""
        lines = (GOLDEN_DIR / "CrosswordSage-session-0.lila").read_text(
            encoding="utf-8"
        ).split("\n")
        first = next(
            index for index, line in enumerate(lines)
            if line.startswith("O ") and line.split(" ")[2] == "listener"
        )
        lines[first] += request.param + "x"
        path = tmp_path / "CrosswordSage-odd.lila"
        path.write_text("\n".join(lines), encoding="utf-8")
        build_store(open_source(path))
        return path

    def test_replay_and_tail_split_lines_as_the_reader_does(
        self, odd_symbol_trace, tmp_path, capsys
    ):
        warehouse = tmp_path / "study.sqlite"
        with IngestServer(
            spool_dir=tmp_path / "spools", study_warehouse=warehouse,
            run_id="odd",
        ) as server:
            host, port = server.address
            assert main([
                "ingest", "replay", str(odd_symbol_trace),
                "--address", f"{host}:{port}",
            ]) == 0
            spool = server.sessions()[0].spool.path
        assert spool.read_bytes() == odd_symbol_trace.read_bytes()
        [row] = StudyWarehouse(warehouse).aggregate(run_ids=["odd"])
        assert (row.application, row.sessions) == ("CrosswordSage", 1)
        capsys.readouterr()
        assert main(["ingest", "tail", str(spool)]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["lines"] == spool.read_text(encoding="utf-8").count("\n")

    #: What the trace reader raises for :meth:`undecodable_trace`.
    UNDECODABLE = "line 11: byte 0xff is not UTF-8 (invalid start byte)"

    @pytest.fixture()
    def undecodable_trace(self, tmp_path) -> Path:
        """The CrosswordSage golden trace with ``\\xff\\xfe`` inserted
        into its first ``T`` line (line 11)."""
        data = (GOLDEN_DIR / "CrosswordSage-session-0.lila").read_bytes()
        lines = data.split(b"\n")
        first = next(
            index for index, line in enumerate(lines)
            if line.startswith(b"T ")
        )
        lines[first] = lines[first][:2] + b"\xff\xfe" + lines[first][2:]
        path = tmp_path / "CrosswordSage-undecodable.lila"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(TraceFormatError) as info:
            build_store(open_source(path))
        assert str(info.value) == self.UNDECODABLE
        return path

    def test_tail_reports_a_byte_that_is_not_utf8(
        self, undecodable_trace, capsys
    ):
        """A spool byte that is not UTF-8 is one ``error:`` line and exit
        1, with the message the trace reader raises for it."""
        assert main(["ingest", "tail", str(undecodable_trace)]) == 1
        assert capsys.readouterr() == ("", f"error: {self.UNDECODABLE}\n")

    def test_replay_reports_a_byte_that_is_not_utf8(
        self, undecodable_trace, capsys
    ):
        """The same damage in a replayed trace is one ``error:`` line and
        exit 1, raised while reading: the closed port is never tried."""
        port = closed_port()
        code = main([
            "ingest", "replay", str(undecodable_trace),
            "--address", f"127.0.0.1:{port}",
        ])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {undecodable_trace}: ")
        assert line.endswith(self.UNDECODABLE)

    def test_replay_announces_each_trace_family(self, tmp_path):
        """Each replayed session's HELLO carries the family its trace
        declares in ``M x.family``, gui when it declares none."""
        families = {
            "OrderApi-session-0": "io_service",
            "IndexBuilder-session-0": "async_pipeline",
            "CrosswordSage-session-0": "gui",
        }
        with IngestServer(spool_dir=tmp_path / "spools") as server:
            host, port = server.address
            assert main([
                "ingest", "replay",
                *(str(GOLDEN_DIR / f"{name}.lila") for name in families),
                "--address", f"{host}:{port}",
            ]) == 0
            rows = server.session_summaries()
        assert {row["application"]: row["family"] for row in rows} == families

    def test_replay_to_a_closed_port_fails(self, monkeypatch, capsys):
        """Records no daemon acked are one ``error:`` line and exit 1."""
        monkeypatch.setattr(
            client_module, "TraceClient",
            partial(client_module.TraceClient, timeout_s=0.25),
        )
        port = closed_port()
        trace = GOLDEN_DIR / "CrosswordSage-session-0.lila"
        started = time.monotonic()
        code = main([
            "ingest", "replay", str(trace), "--address", f"127.0.0.1:{port}",
        ])
        assert time.monotonic() - started < 5.0
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: {trace}: 1187 record(s) not acked by the daemon at "
            f"127.0.0.1:{port} before the close wait ran out"
        )

    def test_replay_to_a_closed_port_fails_at_the_send_wait(
        self, monkeypatch, capsys
    ):
        """A replay whose batches outnumber the queue's slots fails at
        the send wait: one ``error:`` line and exit 1."""
        monkeypatch.setattr(
            client_module, "TraceClient",
            partial(client_module.TraceClient, timeout_s=0.25),
        )
        port = closed_port()
        trace = GOLDEN_DIR / "CrosswordSage-session-0.lila"
        assert -(-len(golden_lines(trace.name)) // 8) > MAX_PENDING_BATCHES
        codes = []
        started = time.monotonic()
        assert bounded(lambda: codes.append(main([
            "ingest", "replay", str(trace), "--batch-records", "8",
            "--address", f"127.0.0.1:{port}",
        ]))) is None
        assert time.monotonic() - started < 5.0
        assert codes == [1]
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: {trace}: {(MAX_PENDING_BATCHES + 1) * 8} record(s) not "
            f"acked by the daemon at 127.0.0.1:{port} before the send wait "
            "ran out"
        )

    @pytest.mark.parametrize(
        "threshold, perceptible", [(None, 4), (150.0, 0)],
        ids=["threshold-omitted", "threshold-150"],
    )
    def test_serve_stops_gracefully_on_sigterm(
        self, tmp_path, threshold, perceptible
    ):
        """The daemon compacts its spools under ``--threshold`` (100 ms
        when omitted) and files the run under that config."""
        import sqlite3

        from repro.engine.cache import config_fingerprint

        trace = GOLDEN_DIR / "OrderApi-session-0.lila"
        records = len(trace.read_text(encoding="utf-8").splitlines())
        warehouse = tmp_path / "fleet.sqlite"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(protocol.__file__).parents[2]), env.get("PYTHONPATH", "")]
        )
        flags = [] if threshold is None else ["--threshold", str(threshold)]
        daemon = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "ingest", "serve",
             "--port", "0", "--spool-dir", str(tmp_path / "spools"),
             "--study-warehouse", str(warehouse), "--run-id", "term",
             *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = daemon.stdout.readline()
            assert "listening on" in banner, banner + daemon.stderr.read()
            address = banner.split("listening on ")[1].split(" ")[0]
            assert main([
                "ingest", "replay", str(trace), "--address", address,
            ]) == 0
            daemon.send_signal(signal.SIGTERM)
            out, err = daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert daemon.returncode == 0, err
        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["records_flushed"] == records
        assert stats["ended_sessions"] == 1
        store = StudyWarehouse(warehouse)
        [row] = store.aggregate(run_ids=["term"])
        assert (row.application, row.sessions) == ("OrderApi", 1)
        assert row.perceptible_episodes == perceptible
        config = AnalysisConfig(perceptible_threshold_ms=threshold or 100.0)
        connection = sqlite3.connect(str(warehouse))
        try:
            [(stored,)] = connection.execute(
                "SELECT config_fingerprint FROM sessions WHERE run_id = 'term'"
            ).fetchall()
        finally:
            connection.close()
        assert stored == config_fingerprint(config)
        [run] = store.runs()
        assert run.config_fingerprint == config_fingerprint(config)
        assert run.threshold_ms == config.perceptible_threshold_ms
