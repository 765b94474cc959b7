"""Cross-layer integration: ingest daemon -> spools -> study warehouse.

The fleet-study loop end to end: clients stream sessions to an
:class:`IngestServer` started with a study warehouse, the daemon flushes
spools and compacts them on shutdown, and the warehouse then answers
"which app regressed?" — with the zero-loss pin that every session's
warehouse ``records`` equals the daemon's ``records_flushed`` equals
the spool's line count.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from helpers import dispatch, gui_sample, listener_iv, make_trace
from repro.ingest import IngestServer, TraceClient
from repro.lila.writer import trace_to_lines
from repro.warehouse import store as warehouse_store
from repro.warehouse.store import StudyWarehouse


def session_lines(
    session: str,
    application: str,
    lag_ms: float = 150.0,
    episodes: int = 3,
):
    """LiLa lines for one session of ``episodes`` identical episodes."""
    roots = []
    samples = []
    for index in range(episodes):
        start = index * 1000.0
        roots.append(
            dispatch(start, start + lag_ms, [
                listener_iv(
                    "com.example.Handler.run", start, start + lag_ms * 0.9
                ),
            ])
        )
        samples.append(gui_sample(start + lag_ms / 2))
    trace = make_trace(roots, samples=samples, application=application)
    trace.metadata.session_id = session
    return trace_to_lines(trace)


def stream(address, session: str, application: str, lines) -> int:
    with TraceClient(
        address, session=session, application=application, batch_records=16
    ) as client:
        client.extend(lines)
    assert client.dropped_records == 0
    return client.records_sent


class TestServeToWarehouse:
    def test_three_sessions_compact_with_zero_loss(self, tmp_path):
        warehouse_path = tmp_path / "wh.sqlite"
        sent = {}
        with IngestServer(
            spool_dir=tmp_path / "spools",
            study_warehouse=warehouse_path,
            run_id="serve-run",
        ) as server:
            for session, app in (
                ("s0", "JMol"), ("s1", "JMol"), ("s2", "Euclide"),
            ):
                lines = session_lines(session, app)
                if session == "s2":
                    # Comments and blank lines are spooled lines too.
                    lines[1:1] = ["# replayed by hand", ""]
                sent[session] = stream(server.address, session, app, lines)
            # Spool flushing is asynchronous; wait for the daemon to
            # absorb everything it acked before shutdown compacts.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                states = {s.session: s for s in server.sessions()}
                if len(states) == 3 and all(
                    states[k].records_flushed == sent[k] for k in sent
                ):
                    break
                time.sleep(0.01)
            states = {s.session: s for s in server.sessions()}
            flushed = {k: states[k].records_flushed for k in states}
            spool_counts = {
                k: len(
                    states[k].spool.path.read_text(
                        encoding="utf-8"
                    ).splitlines()
                )
                for k in states
            }
        # stop() has run: spools are closed and compacted.
        assert flushed == sent == spool_counts

        wh = StudyWarehouse(warehouse_path)
        runs = wh.runs()
        assert [run.run_id for run in runs] == ["serve-run"]
        assert runs[0].source == "spool"
        assert runs[0].sessions == 3

        import sqlite3

        connection = sqlite3.connect(str(warehouse_path))
        try:
            rows = dict(
                connection.execute(
                    "SELECT session_id, records FROM sessions"
                )
            )
        finally:
            connection.close()
        # The zero-loss pin: warehouse records == records_flushed ==
        # spool line count, per session.
        assert rows == sent

        aggregates = {agg.application: agg for agg in wh.aggregate()}
        assert aggregates["JMol"].sessions == 2
        assert aggregates["Euclide"].sessions == 1
        assert aggregates["JMol"].perceptible_episodes == 6  # 3 per session

    def test_warehouse_answers_which_app_regressed(self, tmp_path):
        """Two daemon runs, then a regression diff: the app whose lag
        crossed the perceptibility threshold is named; the steady app
        is not."""
        warehouse_path = tmp_path / "wh.sqlite"

        def serve(run_id: str, lag_by_app) -> None:
            with IngestServer(
                spool_dir=tmp_path / f"spools-{run_id}",
                study_warehouse=warehouse_path,
                run_id=run_id,
            ) as server:
                for index, (app, lag_ms) in enumerate(lag_by_app.items()):
                    session = f"{run_id}-s{index}"
                    stream(
                        server.address, session, app,
                        session_lines(session, app, lag_ms=lag_ms),
                    )
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and any(
                    state.pending_batches() for state in server.sessions()
                ):
                    time.sleep(0.01)

        # Before: both apps below the 100 ms threshold. After: Worsened
        # jumps past it, Steady stays put.
        serve("before", {"Steady": 50.0, "Worsened": 50.0})
        serve("after", {"Steady": 50.0, "Worsened": 400.0})

        report = StudyWarehouse(warehouse_path).regression(
            ["before"], ["after"], metric="perceptible_rate",
        )
        verdicts = {
            entry.application: entry.regressed for entry in report.entries
        }
        assert verdicts == {"Steady": False, "Worsened": True}
        assert [e.application for e in report.regressions] == ["Worsened"]
        assert report.regressed

    def test_recompaction_is_a_dedup_noop(self, tmp_path):
        warehouse_path = tmp_path / "wh.sqlite"
        with IngestServer(
            spool_dir=tmp_path / "spools",
            study_warehouse=warehouse_path,
            run_id="run",
        ) as server:
            stream(server.address, "s0", "JMol", session_lines("s0", "JMol"))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                state.pending_batches() for state in server.sessions()
            ):
                time.sleep(0.01)
            first = server.compact_spools()
            assert first == {"ingested": 1, "skipped": 0, "failed": 0}
            second = server.compact_spools()
            assert second == {"ingested": 0, "skipped": 1, "failed": 0}

    def test_compaction_opens_one_warehouse_connection(
        self, tmp_path, monkeypatch
    ):
        warehouse_path = tmp_path / "wh.sqlite"
        with IngestServer(
            spool_dir=tmp_path / "spools",
            study_warehouse=warehouse_path,
            run_id="run",
        ) as server:
            for session in ("s0", "s1", "s2"):
                stream(
                    server.address, session, "JMol",
                    session_lines(session, "JMol"),
                )
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                state.pending_batches() for state in server.sessions()
            ):
                time.sleep(0.01)
            opened = []
            real_connect = sqlite3.connect

            def counting(*args, **kwargs) -> sqlite3.Connection:
                opened.append(args[0])
                return real_connect(*args, **kwargs)

            monkeypatch.setattr(warehouse_store.sqlite3, "connect", counting)
            counts = server.compact_spools()
            monkeypatch.undo()
            assert counts == {"ingested": 3, "skipped": 0, "failed": 0}
            assert opened == [str(warehouse_path)]
            server.study_warehouse = None
        assert [
            agg.sessions for agg in StudyWarehouse(warehouse_path).aggregate()
        ] == [3]

    @staticmethod
    def _good_and_bad_spools(server):
        """Stream sessions ``good`` and ``bad``; their spools, flushed."""
        for session in ("good", "bad"):
            stream(
                server.address, session, "JMol",
                session_lines(session, "JMol"),
            )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            state.pending_batches() for state in server.sessions()
        ):
            time.sleep(0.01)
        return {s.session: s.spool.path for s in server.sessions()}

    def test_one_damaged_spool_never_loses_the_rest(self, tmp_path):
        warehouse_path = tmp_path / "wh.sqlite"
        with IngestServer(
            spool_dir=tmp_path / "spools",
            study_warehouse=warehouse_path,
            run_id="run",
        ) as server:
            spools = self._good_and_bad_spools(server)
            spools["bad"].write_text(
                "#%lila 1\nthis is not a lila record\n", encoding="utf-8"
            )
            with pytest.warns(RuntimeWarning, match="spool compaction failed"):
                counts = server.compact_spools()
            assert counts["ingested"] == 1
            assert counts["failed"] == 1
            # Detach so shutdown does not re-compact what we just pinned.
            server.study_warehouse = None
        wh = StudyWarehouse(warehouse_path)
        assert [
            agg.sessions for agg in wh.aggregate(apps=["JMol"])
        ] == [1]

    def test_a_spool_byte_that_is_not_utf8_fails_typed(self, tmp_path):
        with IngestServer(
            spool_dir=tmp_path / "spools",
            study_warehouse=tmp_path / "wh.sqlite",
            run_id="run",
        ) as server:
            spools = self._good_and_bad_spools(server)
            lines = spools["bad"].read_bytes().split(b"\n")
            lines[3] += b"\xff"
            spools["bad"].write_bytes(b"\n".join(lines))
            with pytest.warns(
                RuntimeWarning,
                match=r"session 'bad': line 4: byte 0xff is not UTF-8",
            ):
                counts = server.compact_spools()
            assert counts == {"ingested": 1, "skipped": 0, "failed": 1}
            server.study_warehouse = None
