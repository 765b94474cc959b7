"""The operational telemetry layer: warehouse, publisher, SLO, health.

Covers the SQLite warehouse contract (additive merges, multi-run
percentile queries, retention, one connection per call, the one-step
schema chain, refusal of a study warehouse file), the publisher's best-effort loss
semantics (a failed flush is counted and retried whole — never fatal,
never corrupting ingest), declarative SLO policies, the live health
endpoints, and the ``obs query`` / ``obs slo check`` / ``obs top`` CLI
exit-code contract.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults import runtime as faults_runtime
from repro.ingest import IngestServer, TraceClient
from repro.obs import (
    DEFAULT_INGEST_SLO,
    HealthServer,
    Observer,
    SloPolicy,
    SloThreshold,
    TelemetryPublisher,
    Warehouse,
)
from repro.obs import runtime as obs_runtime
from repro.obs.publisher import FLUSHES, LOST_FLUSHES, snapshot_delta
from repro.obs.slo import SloError, ingest_stats_for_slo
from repro.obs.warehouse import (
    WarehouseError,
    estimate_percentile,
)

from helpers import schema_names


def http_get(url: str, timeout_s: float = 5.0):
    """``(status, body bytes)`` — error statuses return, not raise."""
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as reply:
            return reply.status, reply.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


HIST = {"buckets": [1.0, 10.0, 100.0], "counts": [5, 3, 0, 0],
        "sum": 20.0, "count": 8}


# ----------------------------------------------------------------------
# Warehouse
# ----------------------------------------------------------------------


class TestWarehouse:
    def test_schema_created_on_first_touch(self, tmp_path):
        wh = Warehouse(tmp_path / "deep" / "dir" / "metrics.db")
        assert wh.schema_version() == 1
        assert wh.path.is_file()

    def test_counters_add_within_a_bucket(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {"counters": {"c": 2}}, ts=1000)
        wh.record_delta("r1", {"counters": {"c": 3}}, ts=1010)
        assert wh.totals() == {"c": 5.0}
        assert wh.series("c", bucket="minute") == [(960, 5.0)]

    def test_gauges_keep_the_max(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {"gauges": {"g": 7}}, ts=1000)
        wh.record_delta("r1", {"gauges": {"g": 3}}, ts=1010)
        assert wh.series("g", bucket="minute") == [(960, 7.0)]

    def test_series_sums_counters_across_runs(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {"counters": {"c": 1}}, ts=1000)
        wh.record_delta("r2", {"counters": {"c": 4}}, ts=1010)
        assert wh.series("c", bucket="minute") == [(960, 5.0)]
        assert wh.series("c", run_id="r2") == [(960, 4.0)]
        assert wh.series("c", since_ts=2000) == []

    def test_percentile_series_merges_runs_per_day(self, tmp_path):
        # The acceptance query: p99 send-to-ack per day across runs.
        wh = Warehouse(tmp_path / "m.db")
        day = 86400
        wh.record_delta("r1", {"histograms": {"flush_ms": HIST}}, ts=day)
        wh.record_delta("r2", {"histograms": {"flush_ms": dict(
            HIST, counts=[0, 0, 4, 0], sum=300.0, count=4,
        )}}, ts=day + 3600)
        rows = wh.percentile_series("flush_ms", q=0.99, bucket="day")
        assert rows == [(day, 100.0, 12)]
        # The median of the merged day sits in the second cell.
        rows = wh.percentile_series("flush_ms", q=0.5, bucket="day")
        assert rows == [(day, 10.0, 12)]

    def test_percentile_q_validated(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        with pytest.raises(WarehouseError, match="outside"):
            wh.percentile_series("x", q=1.5)

    def test_span_rollups_aggregate(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {"spans": {
            "flush": {"count": 2, "total_ms": 10.0, "max_ms": 8.0},
        }}, ts=1000)
        wh.record_delta("r1", {"spans": {
            "flush": {"count": 1, "total_ms": 20.0, "max_ms": 20.0},
        }}, ts=1001)
        (row,) = wh.span_summary()
        assert row == {"name": "flush", "count": 3, "total_ms": 30.0,
                       "mean_ms": 10.0, "max_ms": 20.0}

    def test_runs_and_names_catalog(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {"counters": {"c": 1}, "gauges": {"g": 2},
                               "histograms": {"h": HIST},
                               "spans": {"s": {"count": 1}}},
                        ts=1000, host="box")
        wh.record_delta("r1", {"counters": {"c": 1}}, ts=1100)
        (run,) = wh.runs()
        assert run["run_id"] == "r1"
        assert run["host"] == "box"
        assert run["flushes"] == 2
        assert wh.metric_names() == {
            "counters": ["c"], "gauges": ["g"],
            "histograms": ["h"], "spans": ["s"],
        }

    def test_queries_on_missing_file_are_empty(self, tmp_path):
        wh = Warehouse(tmp_path / "never.db")
        assert wh.runs() == []
        assert wh.totals() == {}
        assert wh.series("c") == []
        assert wh.percentile_series("h") == []
        assert wh.span_summary() == []
        assert wh.prune(10) == 0
        assert wh.compact() == 0
        assert not wh.path.exists()  # reads never create the file

    def test_unknown_bucket_raises(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        with pytest.raises(WarehouseError, match="unknown bucket"):
            wh.series("c", bucket="fortnight")
        with pytest.raises(WarehouseError, match="unknown bucket"):
            wh.series("c", bucket=0)

    def test_prune_drops_old_buckets_and_orphan_runs(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("old", {"counters": {"c": 1},
                                "histograms": {"h": HIST}}, ts=1000)
        wh.record_delta("new", {"counters": {"c": 2}}, ts=90000)
        removed = wh.prune(max_age_s=3600, now=90060)
        assert removed == 2
        assert wh.totals() == {"c": 2.0}
        assert [run["run_id"] for run in wh.runs()] == ["new"]

    def test_compact_rebuckets_preserving_totals(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db", bucket_s=60)
        for i in range(10):
            wh.record_delta("r1", {
                "counters": {"c": 1},
                "gauges": {"g": i},
                "histograms": {"h": HIST},
                "spans": {"s": {"count": 1, "total_ms": 2.0,
                                "max_ms": 2.0}},
            }, ts=1000 + i * 60)
        eliminated = wh.compact(older_than_s=0, coarse_s=3600, now=10000)
        assert eliminated > 0
        assert wh.totals() == {"c": 10.0}
        assert wh.series("g", bucket="hour") == [(0, 9.0)]
        ((_, estimate, count),) = wh.percentile_series("h", bucket="hour")
        assert count == 80
        (row,) = wh.span_summary()
        assert row["count"] == 10 and row["total_ms"] == 20.0

    def test_one_connection_per_public_call(self, tmp_path, monkeypatch):
        wh = Warehouse(tmp_path / "m.db")
        opened: list = []
        real_connect = sqlite3.connect

        def counting(*args, **kwargs) -> sqlite3.Connection:
            opened.append(args[0])
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting)
        wh.record_delta("r1", {"counters": {"c": 1}, "gauges": {"g": 2},
                               "histograms": {"h": HIST}}, ts=1000)
        assert opened == [str(wh.path)]
        opened.clear()
        assert wh.metric_names()["histograms"] == ["h"]
        assert opened == [str(wh.path)]

    def test_v1_file_opens_without_migration(self, tmp_path):
        """A file as the store wrote it before the chain existed: the
        schema script run whole, ``schema_version`` 1 set beside it."""
        path = tmp_path / "v1.db"
        connection = sqlite3.connect(str(path))
        connection.executescript(Warehouse.MIGRATIONS[0])
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', '1')"
        )
        connection.commit()
        connection.close()
        names = schema_names(path)
        wh = Warehouse(path)
        assert wh.schema_version() == 1
        wh.record_delta("r1", {"counters": {"c": 3}}, ts=1000)
        assert wh.totals() == {"c": 3.0}
        assert schema_names(path) == names

    def test_study_file_refused_untouched(self, tmp_path):
        from repro.warehouse import StudyWarehouse

        path = tmp_path / "study.sqlite"
        StudyWarehouse(path).record_run("run")
        names = schema_names(path)
        wh = Warehouse(path)
        for call in (
            wh.schema_version,
            wh.runs,
            lambda: wh.record_delta("r1", {"counters": {"c": 1}}, ts=1000),
        ):
            with pytest.raises(WarehouseError, match="'schema_version'"):
                call()
        assert schema_names(path) == names

    def test_pickles_as_path_and_bucket(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db", bucket_s=30)
        wh.record_delta("r1", {"counters": {"c": 1}}, ts=1000)
        assert wh.__reduce__() == (Warehouse, (wh.path, 30))
        clone = pickle.loads(pickle.dumps(wh))
        assert (clone.path, clone.bucket_s) == (wh.path, 30)
        assert clone.totals() == {"c": 1.0}

    def test_file_deleted_mid_run_is_recreated(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {"counters": {"c": 1}}, ts=1000)
        wh.path.unlink()
        wh.record_delta("r1", {"counters": {"c": 2}}, ts=1060)
        assert wh.totals() == {"c": 2.0}  # fresh file, no stale handle

    def test_racing_first_opens_all_succeed(self, tmp_path):
        """Four writers released together onto one fresh file: the WAL
        switch of the losers waits instead of failing 'database is
        locked'."""
        errors = []
        for trial in range(100):
            path = tmp_path / f"race-{trial}.db"
            barrier = threading.Barrier(4)

            def write(index, path=path, barrier=barrier):
                barrier.wait(timeout=30)
                try:
                    Warehouse(path).record_delta(
                        f"r{index}", {"counters": {"c": 1}}, ts=1000
                    )
                except sqlite3.Error as error:
                    errors.append(repr(error))

            threads = [
                threading.Thread(target=write, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert Warehouse(path).totals() == {"c": 4.0}
        assert errors == []


class TestEstimatePercentile:
    def test_upper_bound_semantics(self):
        assert estimate_percentile([1, 10, 100], [5, 3, 0, 0], 0.5) == 1.0
        assert estimate_percentile([1, 10, 100], [5, 3, 0, 0], 0.99) == 10.0

    def test_overflow_mass_reports_largest_finite_bound(self):
        assert estimate_percentile([1, 10], [0, 0, 4], 0.99) == 10.0

    def test_empty_histogram(self):
        assert estimate_percentile([1, 10], [0, 0, 0], 0.99) == 0.0
        assert estimate_percentile([], [], 0.99) == 0.0


# ----------------------------------------------------------------------
# snapshot_delta / TelemetryPublisher
# ----------------------------------------------------------------------


class TestSnapshotDelta:
    def test_counters_subtract(self):
        delta = snapshot_delta(
            {"counters": {"a": 5, "b": 2}},
            {"counters": {"a": 3, "b": 2}},
        )
        assert delta["counters"] == {"a": 2}  # unchanged "b" omitted

    def test_gauges_report_current_value(self):
        delta = snapshot_delta({"gauges": {"g": 1}}, {"gauges": {"g": 9}})
        assert delta["gauges"] == {"g": 1}

    def test_histogram_cells_subtract(self):
        current = {"histograms": {"h": {
            "buckets": [1, 10], "counts": [4, 2, 0], "sum": 9.0,
            "count": 6,
        }}}
        previous = {"histograms": {"h": {
            "buckets": [1, 10], "counts": [1, 2, 0], "sum": 4.0,
            "count": 3,
        }}}
        delta = snapshot_delta(current, previous)
        assert delta["histograms"]["h"] == {
            "buckets": [1, 10], "counts": [3, 0, 0], "sum": 5.0,
            "count": 3,
        }

    def test_histogram_with_no_new_observations_is_omitted(self):
        state = {"histograms": {"h": {
            "buckets": [1], "counts": [2, 0], "sum": 1.0, "count": 2,
        }}}
        assert snapshot_delta(state, state)["histograms"] == {}


class TestTelemetryPublisher:
    def test_publish_once_writes_the_delta(self, tmp_path):
        obs = Observer()
        obs.metrics.inc("work.done", 3)
        obs.metrics.observe("latency_ms", 5.0)
        with obs.span("op"):
            pass
        wh = Warehouse(tmp_path / "m.db")
        publisher = TelemetryPublisher(obs, wh, "run-a", host="box")
        assert publisher.publish_once() is True
        assert publisher.flushes == 1
        assert wh.totals("run-a")["work.done"] == 3.0
        assert [r["name"] for r in wh.span_summary()] == ["op"]
        assert wh.percentile_series("latency_ms", bucket="day")

    def test_second_flush_publishes_only_the_delta(self, tmp_path):
        obs = Observer()
        wh = Warehouse(tmp_path / "m.db")
        publisher = TelemetryPublisher(obs, wh, "run-a")
        obs.metrics.inc("c", 2)
        publisher.publish_once()
        obs.metrics.inc("c", 1)
        publisher.publish_once()
        # Totals are exact, not doubled: flushes carry increments.
        assert wh.totals()["c"] == 3.0

    def test_nothing_to_say_is_a_successful_flush(self, tmp_path):
        obs = Observer()
        publisher = TelemetryPublisher(
            obs, Warehouse(tmp_path / "m.db"), "run-a"
        )
        assert publisher.publish_once() is True
        assert publisher.flushes == 0
        assert not publisher.warehouse.path.exists()

    def test_lost_flush_is_counted_and_retried_whole(self, tmp_path):
        obs = Observer()
        obs.metrics.inc("c", 5)
        wh = Warehouse(tmp_path / "m.db")
        publisher = TelemetryPublisher(obs, wh, "run-a")
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="task_error", site="obs.publish",
                      probability=1.0),  # transient: first attempt only
        ))
        with faults_runtime.installed(FaultInjector(plan)):
            assert publisher.publish_once() is False
            assert publisher.lost_flushes == 1
            assert wh.totals() == {}  # nothing partial hit the file
            # Retry succeeds and carries the *whole* original delta.
            assert publisher.publish_once() is True
        # The success bump itself rides in the *next* delta.
        assert publisher.publish_once() is True
        totals = wh.totals()
        assert totals["c"] == 5.0
        assert totals[LOST_FLUSHES] == 1.0
        assert totals[FLUSHES] == 1.0

    def test_stop_flushes_once_more(self, tmp_path):
        obs = Observer()
        wh = Warehouse(tmp_path / "m.db")
        publisher = TelemetryPublisher(obs, wh, "run-a",
                                       interval_s=3600.0)
        publisher.start()
        obs.metrics.inc("c", 4)
        publisher.stop()
        assert wh.totals()["c"] == 4.0


# ----------------------------------------------------------------------
# SLO policies
# ----------------------------------------------------------------------


class TestSlo:
    def test_threshold_validation(self):
        with pytest.raises(SloError, match="op must be"):
            SloThreshold("x", "<", 1)
        with pytest.raises(SloError, match="non-empty"):
            SloThreshold("", "<=", 1)
        with pytest.raises(SloError, match="unknown field"):
            SloThreshold.from_dict({"stat": "x", "limit": 1, "oops": 2})
        with pytest.raises(SloError, match="'stat' and 'limit'"):
            SloThreshold.from_dict({"stat": "x"})

    def test_evaluate_missing_stats_count_as_zero(self):
        policy = SloPolicy("p", (
            SloThreshold("errors", "<=", 0),
            SloThreshold("throughput", ">=", 10),
        ))
        report = policy.evaluate({})
        assert not report.healthy
        (violation,) = report.violations
        assert violation["stat"] == "throughput"
        assert any(line.startswith("[FAIL]") for line in report.lines())

    def test_json_roundtrip(self, tmp_path):
        policy = SloPolicy("mine", (
            SloThreshold("q", "<=", 8, "queue bounded"),
        ))
        path = policy.save(tmp_path / "slo.json")
        assert SloPolicy.load(path) == policy

    def test_load_errors_are_slo_errors(self, tmp_path):
        with pytest.raises(SloError, match="cannot read"):
            SloPolicy.load(tmp_path / "none.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        with pytest.raises(SloError, match="not valid JSON"):
            SloPolicy.load(bad)

    def test_default_ingest_policy_tracks_server_stats(self):
        stats = ingest_stats_for_slo(
            {"records_accepted": 100, "records_flushed": 90,
             "pending_batches": 2, "sessions": 1, "nacks_sent": 0},
            telemetry_lost=0,
        )
        assert stats["spool_lag_records"] == 10.0
        assert DEFAULT_INGEST_SLO.evaluate(stats).healthy
        assert not DEFAULT_INGEST_SLO.evaluate(
            dict(stats, telemetry_lost_flushes=1)
        ).healthy
        assert [t.stat for t in DEFAULT_INGEST_SLO.thresholds] == [
            "pending_batches", "spool_lag_records", "telemetry_lost_flushes",
        ]

    def test_a_rule_on_a_stat_the_daemon_drops_passes(self, tmp_path):
        """A policy file that still bounds ``analyzer_errors`` loads, and
        its rule reads the stat the daemon no longer reports as 0."""
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"name": "old", "thresholds": [
            {"stat": "analyzer_errors", "op": "<=", "limit": 0},
        ]}), encoding="utf-8")
        policy = SloPolicy.load(path)
        with IngestServer(spool_dir=tmp_path / "spools") as server:
            stats = server.health_stats()
        assert "analyzer_errors" not in stats
        report = policy.evaluate(stats)
        assert report.healthy
        assert [r["value"] for r in report.results] == [0.0]


# ----------------------------------------------------------------------
# HealthServer
# ----------------------------------------------------------------------


class TestHealthServer:
    @pytest.fixture()
    def live(self):
        state = {"stats": {"pending_batches": 0}}
        server = HealthServer(
            stats_fn=lambda: state["stats"],
            metrics_fn=lambda: "# HELP x\nlagalyzer_x 1\n",
            sessions_fn=lambda: [{"session": "s0"}],
        )
        with server:
            yield server, state

    def test_healthz_flips_with_the_stats(self, live):
        server, state = live
        host, port = server.address
        status, body = http_get(f"http://{host}:{port}/healthz")
        assert status == 200
        report = json.loads(body)
        assert report["healthy"] is True
        assert report["stats"] == {"pending_batches": 0}
        state["stats"] = {"pending_batches": 5000}
        status, body = http_get(f"http://{host}:{port}/healthz")
        assert status == 503
        assert json.loads(body)["healthy"] is False

    def test_metrics_and_sessions_endpoints(self, live):
        server, _ = live
        host, port = server.address
        status, body = http_get(f"http://{host}:{port}/metrics")
        assert status == 200
        assert b"lagalyzer_x 1" in body
        status, body = http_get(f"http://{host}:{port}/sessions")
        assert status == 200
        assert json.loads(body) == [{"session": "s0"}]

    def test_root_lists_endpoints_and_404_elsewhere(self, live):
        server, _ = live
        host, port = server.address
        status, body = http_get(f"http://{host}:{port}/")
        assert status == 200
        assert "/healthz" in json.loads(body)["endpoints"]
        status, _ = http_get(f"http://{host}:{port}/nope")
        assert status == 404

    def test_probe_exception_is_a_500_not_a_crash(self):
        def broken():
            raise RuntimeError("stats backend down")

        server = HealthServer(stats_fn=broken)
        with server:
            host, port = server.address
            status, body = http_get(f"http://{host}:{port}/healthz")
            assert status == 500
            assert "stats backend down" in json.loads(body)["error"]
            # The server survives and keeps answering.
            status, _ = http_get(f"http://{host}:{port}/")
            assert status == 200

    def test_healthz_callable_directly(self):
        server = HealthServer(stats_fn=lambda: {"pending_batches": 1})
        try:
            status, report = server.healthz()
        finally:
            server.stop()  # never started: closes its sockets at once
        assert status == 200 and report["healthy"] is True


# ----------------------------------------------------------------------
# Chaos: telemetry loss never blocks or corrupts ingest
# ----------------------------------------------------------------------


class TestPublisherChaos:
    def test_publish_faults_never_block_ingest(self, tmp_path):
        obs = Observer()
        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="task_error", site="obs.publish",
                      probability=1.0, times=None),  # every flush fails
        ))
        lines = [f"r{i}" for i in range(50)]
        with obs_runtime.installed(obs), \
                faults_runtime.installed(FaultInjector(plan)):
            server = IngestServer(
                spool_dir=tmp_path / "spools",
                health_port=0,
                warehouse=tmp_path / "m.db",
                publish_interval_s=0.05,
                run_id="chaos-run",
            )
            server.start()
            try:
                with TraceClient(
                    server.address, session="s0", application="App",
                    batch_records=8,
                ) as client:
                    client.extend(lines)
                # Drive one flush deterministically (the interval timer
                # may not have fired yet on a fast run).
                assert server.publisher.publish_once() is False
                host, port = server.health.address
                status, body = http_get(f"http://{host}:{port}/healthz")
                lost = server.publisher.lost_flushes
            finally:
                server.stop()
            stats = server.stats()
        # Ingest is whole: every record accepted and spooled.
        assert stats["records_flushed"] == len(lines)
        assert lost >= 1
        # Telemetry loss is *visible* — the SLO flags it on /healthz...
        assert status == 503
        report = json.loads(body)
        assert any(r["stat"] == "telemetry_lost_flushes"
                   for r in report["results"] if not r["ok"])
        # ...and nothing partial ever reached the warehouse.
        assert Warehouse(tmp_path / "m.db").totals("chaos-run") == {}

    def test_warehouse_deletion_mid_run_degrades_gracefully(
        self, tmp_path
    ):
        obs = Observer()
        wh_path = tmp_path / "m.db"
        with obs_runtime.installed(obs):
            server = IngestServer(
                spool_dir=tmp_path / "spools",
                warehouse=wh_path,
                publish_interval_s=3600.0,  # flushes driven by hand
                run_id="del-run",
            )
            server.start()
            try:
                with TraceClient(
                    server.address, session="s0", application="App"
                ) as client:
                    client.extend([f"r{i}" for i in range(10)])
                assert server.publisher.publish_once() is True
                wh_path.unlink()
                obs.metrics.inc("after.deletion", 1)
                # The short-lived-connection design recreates the file.
                assert server.publisher.publish_once() is True
            finally:
                server.stop()
        totals = Warehouse(wh_path).totals("del-run")
        assert totals.get("after.deletion") == 1.0
        assert server.stats()["records_flushed"] == 10


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------


class TestWarehouseCli:
    @pytest.fixture()
    def warehouse_path(self, tmp_path):
        wh = Warehouse(tmp_path / "m.db")
        wh.record_delta("r1", {
            "counters": {"c": 3},
            "histograms": {"flush_ms": HIST},
            "spans": {"s": {"count": 1, "total_ms": 1.0, "max_ms": 1.0}},
        }, ts=86400)
        return wh.path

    def test_query_missing_warehouse_is_exit_2(self, tmp_path, capsys):
        assert main(["obs", "query", str(tmp_path / "none.db")]) == 2
        err = capsys.readouterr().err
        assert "no metrics warehouse" in err
        assert "--warehouse" in err

    def test_query_runs_overview(self, warehouse_path, capsys):
        assert main(["obs", "query", str(warehouse_path)]) == 0
        out = capsys.readouterr().out
        assert '"run_id": "r1"' in out
        assert "1 run(s)" in out

    def test_query_series_and_names(self, warehouse_path, capsys):
        assert main(["obs", "query", str(warehouse_path),
                     "--series", "c", "--bucket", "day"]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row == {"bucket_ts": 86400, "name": "c", "value": 3.0}
        assert main(["obs", "query", str(warehouse_path), "--names"]) == 0
        assert "flush_ms" in capsys.readouterr().out

    def test_query_percentile(self, warehouse_path, capsys):
        assert main(["obs", "query", str(warehouse_path),
                     "--percentile", "flush_ms", "--bucket", "day",
                     "--q", "0.99"]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["estimate_ms"] == 10.0
        assert row["count"] == 8

    def test_query_unknown_name_is_exit_2_with_hint(
        self, warehouse_path, capsys
    ):
        assert main(["obs", "query", str(warehouse_path),
                     "--series", "nope"]) == 2
        assert "--names" in capsys.readouterr().err

    @pytest.fixture(params=["study-file", "future-version"])
    def unusable_path(self, request, tmp_path):
        path = tmp_path / "unusable.db"
        if request.param == "study-file":
            from repro.warehouse import StudyWarehouse

            StudyWarehouse(path).record_run("run")
        else:
            connection = sqlite3.connect(str(path))
            connection.executescript(Warehouse.MIGRATIONS[0])
            connection.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', '99')"
            )
            connection.commit()
            connection.close()
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [(), ("--names",), ("--totals",), ("--series", "c")],
        ids=["runs", "names", "totals", "series"],
    )
    def test_unusable_warehouse_is_exit_2(self, unusable_path, capsys, argv):
        names = schema_names(unusable_path)
        assert main(["obs", "query", unusable_path, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {unusable_path}: ")
        assert schema_names(unusable_path) == names

    @pytest.mark.parametrize(
        "argv",
        [
            ("--series", "c", "--bucket", "fortnight"),
            ("--percentile", "flush_ms", "--q", "1.5"),
        ],
        ids=["unknown-bucket", "q-out-of-range"],
    )
    def test_bad_query_stays_exit_1(self, warehouse_path, capsys, argv):
        assert main(["obs", "query", str(warehouse_path), *argv]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_slo_check_stats_file(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"pending_batches": 1}),
                         encoding="utf-8")
        assert main(["obs", "slo", "check", "--stats", str(stats)]) == 0
        assert "healthy" in capsys.readouterr().out
        stats.write_text(json.dumps({"telemetry_lost_flushes": 1}),
                         encoding="utf-8")
        assert main(["obs", "slo", "check", "--stats", str(stats)]) == 1
        assert "UNHEALTHY" in capsys.readouterr().out

    def test_slo_check_missing_inputs_are_exit_2(self, tmp_path, capsys):
        assert main(["obs", "slo", "check",
                     "--stats", str(tmp_path / "none.json")]) == 2
        assert main(["obs", "slo", "check",
                     "--policy", str(tmp_path / "none.json"),
                     "--stats", str(tmp_path / "none.json")]) == 2

    def test_slo_check_unreachable_url_is_exit_2(self, capsys):
        assert main(["obs", "slo", "check",
                     "--url", "http://127.0.0.1:9",
                     "--timeout", "0.2"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_top_against_a_live_daemon(self, tmp_path, capsys):
        server = IngestServer(
            spool_dir=tmp_path / "spools", health_port=0
        )
        server.start()
        try:
            with TraceClient(
                server.address, session="s0", application="App"
            ) as client:
                client.extend(["r0", "r1"])
            host, port = server.health.address
            code = main(["obs", "top", "--once",
                         "--url", f"http://{host}:{port}"])
        finally:
            server.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "[healthy]" in out
        assert "s0" in out

    def test_top_unreachable_is_exit_2(self, capsys):
        assert main(["obs", "top", "--once",
                     "--url", "http://127.0.0.1:9",
                     "--timeout", "0.2"]) == 2
