"""Cross-process trace propagation over the ingest wire.

Covers the protocol-minor-1 wire format (context blocks in HELLO and
BATCH frames, byte-compatibility with minor 0 when absent), the
deterministic seed-derived sampling decision, and the acceptance
property end to end: with an observer installed, the daemon's
``ingest.server.frame`` / ``ingest.server.flush`` spans parent under
the client's ``ingest.client.send`` spans so ``Observer.absorb``
renders one send→ack→flush tree — under a serial session and under
concurrent sessions alike.
"""

from __future__ import annotations

import gzip
import json
import struct
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ingest import IngestServer, TraceClient, protocol
from repro.ingest.protocol import ProtocolError
from repro.obs import Observer, TraceContext
from repro.obs import runtime as obs_runtime
from repro.obs.context import (
    carrier_span,
    hash_fraction,
    sample_decision,
    trace_id_for,
)


def record_lines(count: int = 8, offset: int = 0):
    """Spool-able record lines (the daemon stores them verbatim)."""
    return [f"record-{offset + i}" for i in range(count)]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestBatchWireFormat:
    def test_no_context_is_byte_identical_to_minor_0(self):
        lines = record_lines(3)
        payload = protocol.encode_batch(lines)
        legacy = struct.pack("!I", len(lines)) + gzip.compress(
            "\n".join(lines).encode("utf-8"), mtime=0
        )
        assert payload == legacy
        # High bit clear: a minor-0 receiver reads the count unchanged.
        (count,) = struct.unpack("!I", payload[:4])
        assert count == len(lines)

    def test_context_roundtrip(self):
        lines = record_lines(5)
        context = TraceContext.mint("s-ctx", seed=7)
        payload = protocol.encode_batch(lines, context=context.to_dict())
        decoded_lines, raw = protocol.decode_batch_context(payload)
        assert decoded_lines == lines
        assert TraceContext.from_dict(raw) == context

    def test_decode_batch_drops_context(self):
        lines = record_lines(4)
        context = TraceContext.mint("s-drop")
        payload = protocol.encode_batch(lines, context=context.to_dict())
        assert protocol.decode_batch(payload) == lines

    def test_truncated_context_block_raises(self):
        context = TraceContext.mint("s-trunc")
        payload = protocol.encode_batch(
            record_lines(2), context=context.to_dict()
        )
        # Chop inside the context blob: the frame is structurally
        # damaged (payload, not telemetry) and must be rejected.
        with pytest.raises(ProtocolError, match="context block truncated"):
            protocol.decode_batch_context(payload[:7])

    def test_malformed_context_json_degrades_to_none(self):
        lines = record_lines(2)
        blob = b"{not json"
        payload = (
            struct.pack("!I", len(lines) | 0x80000000)
            + struct.pack("!H", len(blob))
            + blob
            + gzip.compress("\n".join(lines).encode("utf-8"), mtime=0)
        )
        decoded_lines, raw = protocol.decode_batch_context(payload)
        assert decoded_lines == lines
        assert raw is None

    def test_hello_context_roundtrip(self):
        context = TraceContext.mint("s-hello")
        payload = protocol.encode_hello(
            "s-hello", "App", context=context.to_dict()
        )
        session, application, raw, family = protocol.decode_hello(payload)
        assert (session, application, family) == ("s-hello", "App", "gui")
        assert TraceContext.from_dict(raw) == context

    def test_hello_without_context(self):
        payload = protocol.encode_hello("s0", "App")
        assert b"trace" not in payload
        assert protocol.decode_hello(payload) == ("s0", "App", None, "gui")


# ----------------------------------------------------------------------
# Deterministic sampling and context identity
# ----------------------------------------------------------------------


class TestSampling:
    def test_hash_fraction_is_deterministic_and_uniform_ish(self):
        a = hash_fraction(42, "obs.sample", "s0")
        assert a == hash_fraction(42, "obs.sample", "s0")
        assert 0.0 <= a < 1.0
        assert a != hash_fraction(43, "obs.sample", "s0")

    def test_rate_edges(self):
        assert sample_decision(0, "any", 1.0) is True
        assert sample_decision(0, "any", 0.0) is False

    def test_partial_rate_matches_hash(self):
        for key in ("s0", "s1", "s2", "s3"):
            expected = hash_fraction(5, "obs.sample", key) < 0.5
            assert sample_decision(5, key, 0.5) is expected

    def test_trace_id_is_stable_per_key_and_seed(self):
        assert trace_id_for("s0", 1) == trace_id_for("s0", 1)
        assert trace_id_for("s0", 1) != trace_id_for("s0", 2)
        assert trace_id_for("s0", 1) != trace_id_for("s1", 1)
        assert len(trace_id_for("s0")) == 16

    def test_mint_and_child_share_trace_id(self):
        root = TraceContext.mint("s0", seed=3)
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.sampled is root.sampled

    def test_from_dict_rejects_malformed(self):
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({}) is None
        assert TraceContext.from_dict({"trace_id": "t"}) is None
        assert TraceContext.from_dict(
            {"trace_id": "", "span_id": "s"}
        ) is None
        assert TraceContext.from_dict(
            {"trace_id": 5, "span_id": "s"}
        ) is None

    def test_carrier_span_is_noop_without_observer(self):
        context = TraceContext.mint("s0")
        with carrier_span("x", context) as span:
            assert span is None

    def test_carrier_span_adopts_the_propagated_id(self):
        obs = Observer()
        context = TraceContext.mint("s0", seed=9)
        with obs_runtime.installed(obs):
            with carrier_span("ingest.client.send", context, seq=1):
                pass
        (span,) = obs.spans()
        assert span.span_id == context.span_id
        assert span.attrs["trace_id"] == context.trace_id


# ----------------------------------------------------------------------
# End to end: one send→ack→flush tree per batch
# ----------------------------------------------------------------------


def _run_sessions(tmp_path, n_sessions, workers, **client_kwargs):
    """Replay ``n_sessions`` through a live daemon; the observer's spans."""
    obs = Observer()
    with obs_runtime.installed(obs):
        server = IngestServer(spool_dir=tmp_path / "spools")
        server.start()
        try:
            def one(index: int):
                client = TraceClient(
                    server.address,
                    session=f"s{index}",
                    application="App",
                    batch_records=4,
                    **client_kwargs,
                )
                with client:
                    client.extend(record_lines(12, offset=index * 100))
                return client

            if workers == 0:
                clients = [one(i) for i in range(n_sessions)]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    clients = list(pool.map(one, range(n_sessions)))
        finally:
            server.stop()
        stats = server.stats()
    return obs.spans(), clients, stats


class TestSpanTreeParity:
    @pytest.mark.parametrize(
        ("n_sessions", "workers"), [(1, 0), (2, 2)],
        ids=["serial", "concurrent"],
    )
    def test_server_spans_parent_under_client_sends(
        self, tmp_path, n_sessions, workers
    ):
        spans, clients, stats = _run_sessions(
            tmp_path, n_sessions, workers
        )
        sends = [s for s in spans if s.name == "ingest.client.send"]
        frames = [s for s in spans if s.name == "ingest.server.frame"]
        flushes = [s for s in spans if s.name == "ingest.server.flush"]
        assert sends and frames and flushes
        send_ids = {s.span_id for s in sends}
        # The acceptance property: every daemon-side span attaches to
        # the client send span that caused it — one tree per batch.
        for span in frames + flushes:
            assert span.parent_id in send_ids, span.name
        # And every span of a session carries that session's trace id.
        for client in clients:
            trace_id = client.trace_context.trace_id
            session_spans = [
                s for s in spans
                if s.attrs.get("session") == client.session
            ]
            assert session_spans
            for span in session_spans:
                assert span.attrs["trace_id"] == trace_id
        assert stats["records_flushed"] == 12 * n_sessions

    def test_trace_ids_are_deterministic_across_runs(self, tmp_path):
        spans_a, clients_a, _ = _run_sessions(tmp_path / "a", 1, 0)
        spans_b, clients_b, _ = _run_sessions(tmp_path / "b", 1, 0)
        assert (
            clients_a[0].trace_context.trace_id
            == clients_b[0].trace_context.trace_id
        )

    def test_sampling_off_sends_no_context(self, tmp_path):
        spans, clients, stats = _run_sessions(
            tmp_path, 1, 0, sample_rate=0.0
        )
        assert not [s for s in spans if s.name.startswith("ingest.")]
        assert stats["records_flushed"] == 12  # ingest unaffected

    def test_propagate_off_sends_no_context(self, tmp_path):
        spans, clients, stats = _run_sessions(
            tmp_path, 1, 0, propagate=False
        )
        assert not [s for s in spans if s.name.startswith("ingest.")]
        assert stats["records_flushed"] == 12

    def test_unpropagated_traffic_still_flushes(self, tmp_path):
        # No observer installed at all: the old wire format, end to end.
        server = IngestServer(spool_dir=tmp_path / "spools")
        server.start()
        try:
            with TraceClient(
                server.address, session="legacy", application="App"
            ) as client:
                client.extend(record_lines(6))
        finally:
            server.stop()
        assert server.stats()["records_flushed"] == 6
        (row,) = server.session_summaries()
        assert row["trace_id"] is None
