"""Cause-diff acceptance: migration, injected-cause attribution, CLI.

The headline acceptance pin of the workload-family refactor: given two
warehouse runs of the same ``io_service`` study where run B carries one
injected cause (a degraded database, every IO wait stretched), ``repro
study diff A B`` must rank the injected cause first — and must do so
deterministically whether the summaries were computed serially, by a
worker pool, or compacted from engine bundles. Alongside it live the
v2 -> v3 schema migration pins (family column backfill, causes table),
the v3 -> v4 pins (the covering cause index and the query plan it
buys), and the CLI surface of ``study diff``.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.apps.io_service import simulate_service_sessions
from repro.cli import main
from repro.cli.study import EXIT_NO_WAREHOUSE
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.causegraph import DiffReport, diff_cause_totals
from repro.engine.cache import ResultCache, config_fingerprint
from repro.engine.engine import AnalysisEngine
from repro.warehouse import store as warehouse_store
from repro.warehouse.schema import MIGRATIONS, SCHEMA_VERSION
from repro.warehouse.store import INGEST_ANALYSES, StudyWarehouse

#: The slow endpoint's IO call — the label the injected degradation
#: must surface under (``io_scale`` stretches every endpoint's IO wait,
#: and orders.search has by far the largest baseline wait).
INJECTED_LABEL = "iowait:java.sql.Statement.executeQuery"

CONFIG = AnalysisConfig(perceptible_threshold_ms=100.0)
SEED = 20100401
SCALE = 0.05
SESSIONS = 2


def service_traces(io_scale: float) -> list:
    return simulate_service_sessions(
        "OrderApi", count=SESSIONS, seed=SEED, scale=SCALE, io_scale=io_scale
    )


@pytest.fixture(scope="module")
def baseline_traces() -> list:
    return service_traces(1.0)


@pytest.fixture(scope="module")
def degraded_traces() -> list:
    return service_traces(3.0)


def ingest_run(wh: StudyWarehouse, run_id: str, traces: list) -> None:
    wh.record_run(run_id, ts=1000.0)
    for trace in traces:
        wh.ingest_trace(trace, run_id, CONFIG, ts=1000.0)


# ----------------------------------------------------------------------
# Schema: v2 -> v3 migration
# ----------------------------------------------------------------------


class TestMigrationV3:
    def _v2_file(self, tmp_path: Path) -> Path:
        """A version-2 warehouse file with one pre-family session."""
        path = tmp_path / "old.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript(MIGRATIONS[0])
        connection.executescript(MIGRATIONS[1])
        connection.execute(
            "INSERT INTO meta (key, value)"
            " VALUES ('study_schema_version', '2')"
        )
        connection.execute(
            "INSERT INTO runs (run_id, created_ts) VALUES ('r1', 100.0)"
        )
        connection.execute(
            "INSERT INTO sessions (run_id, app, session_id, ingested_ts,"
            " records, traced, perceptible) VALUES ('r1', 'OldApp', 's0',"
            " 100.0, 7, 10.0, 3.0)"
        )
        connection.execute(
            "INSERT INTO patterns (run_id, app, session_id, pattern_key,"
            " count, perceptible) VALUES ('r1', 'OldApp', 's0', 'p', 4, 1)"
        )
        connection.commit()
        connection.close()
        return path

    def test_v2_file_migrates_preserving_rows(self, tmp_path):
        upgraded = StudyWarehouse(self._v2_file(tmp_path))
        assert upgraded.schema_version() == SCHEMA_VERSION
        connection = sqlite3.connect(str(upgraded.path))
        try:
            names = {
                row[0]
                for row in connection.execute("SELECT name FROM sqlite_master")
            }
            rows = connection.execute(
                "SELECT app, records, traced, family FROM sessions"
            ).fetchall()
        finally:
            connection.close()
        # The causes table and its index arrive with v3...
        assert "causes" in names
        assert "idx_causes_run_label" in names
        # ...v2 rows survive, and `family` backfills to gui.
        assert rows == [("OldApp", 7, 10.0, "gui")]
        assert upgraded.aggregate()[0].traced_episodes == 10
        assert upgraded.top_patterns()[0].occurrences == 4

    def test_migrated_file_accepts_family_rows_and_diff(self, tmp_path):
        wh = StudyWarehouse(self._v2_file(tmp_path))
        trace = service_traces(1.0)[0]
        assert wh.ingest_trace(trace, "r2", CONFIG, ts=200.0)
        connection = sqlite3.connect(str(wh.path))
        try:
            family = connection.execute(
                "SELECT family FROM sessions WHERE run_id = 'r2'"
            ).fetchone()[0]
            cause_rows = connection.execute(
                "SELECT COUNT(*) FROM causes WHERE run_id = 'r2'"
            ).fetchone()[0]
        finally:
            connection.close()
        assert family == "io_service"
        assert cause_rows > 0
        # Diffing against the pre-family run degrades to "everything is
        # new in r2" rather than failing.
        report = wh.diff("r1", "r2")
        assert report.total_delta_ns > 0
        assert all(delta.a_total_ns == 0 for delta in report.deltas)


# ----------------------------------------------------------------------
# Schema: v3 -> v4 migration and the covering cause index
# ----------------------------------------------------------------------

#: ``(run, app, session, label, total_ns, episodes, perceptible_ns,
#: perceptible_episodes)`` rows of a hand-built version-3 file.
V3_CAUSE_ROWS = [
    ("A", "OrderApi", "s0", INJECTED_LABEL, 100, 2, 60, 1),
    ("A", "OrderApi", "s1", INJECTED_LABEL, 50, 1, 0, 0),
    ("A", "OrderApi", "s0", "gc:young", 30, 3, 10, 1),
    ("B", "OrderApi", "s0", INJECTED_LABEL, 400, 2, 300, 2),
    ("B", "OrderApi", "s0", "gc:young", 20, 2, 0, 0),
    ("B", "IndexBuilder", "s1", "native:java.util.zip.Deflater", 5, 1, 5, 1),
]

#: The six columns of the v4 ``idx_causes_run_label``.
CAUSE_INDEX_COLUMNS = [
    "run_id", "label", "total_ns", "episodes", "perceptible_ns",
    "perceptible_episodes",
]


def v3_diff(path: Path, perceptible_only: bool) -> DiffReport:
    """The A -> B report computed straight off a file, as v3 code did."""
    if perceptible_only:
        value_cols = "SUM(perceptible_ns), SUM(perceptible_episodes)"
    else:
        value_cols = "SUM(total_ns), SUM(episodes)"
    connection = sqlite3.connect(str(path))
    try:
        totals = [
            {
                label: (ns, episodes)
                for label, ns, episodes in connection.execute(
                    f"SELECT label, {value_cols} FROM causes WHERE run_id = ?"
                    " GROUP BY label ORDER BY label",
                    (run_id,),
                )
            }
            for run_id in ("A", "B")
        ]
    finally:
        connection.close()
    return diff_cause_totals(totals[0], totals[1], "A", "B")


class TestMigrationV4:
    def _v3_file(self, tmp_path: Path) -> Path:
        """A version-3 warehouse file holding two runs' cause rows."""
        path = tmp_path / "v3.sqlite"
        connection = sqlite3.connect(str(path))
        for script in MIGRATIONS[:3]:
            connection.executescript(script)
        connection.execute(
            "INSERT INTO meta (key, value)"
            " VALUES ('study_schema_version', '3')"
        )
        connection.executemany(
            "INSERT INTO causes (run_id, app, session_id, label, total_ns,"
            " episodes, perceptible_ns, perceptible_episodes)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            V3_CAUSE_ROWS,
        )
        connection.commit()
        connection.close()
        return path

    def test_v3_file_migrates_preserving_cause_rows(self, tmp_path):
        wh = StudyWarehouse(self._v3_file(tmp_path))
        assert wh.schema_version() == SCHEMA_VERSION
        connection = sqlite3.connect(str(wh.path))
        try:
            rows = connection.execute(
                "SELECT run_id, app, session_id, label, total_ns, episodes,"
                " perceptible_ns, perceptible_episodes FROM causes"
            ).fetchall()
            columns = [
                row[2]
                for row in connection.execute(
                    "PRAGMA index_info('idx_causes_run_label')"
                )
            ]
        finally:
            connection.close()
        assert sorted(rows) == sorted(V3_CAUSE_ROWS)
        assert columns == CAUSE_INDEX_COLUMNS

    @pytest.mark.parametrize("perceptible_only", (False, True))
    def test_diff_report_survives_the_upgrade(
        self, tmp_path, perceptible_only
    ):
        path = self._v3_file(tmp_path)
        before = v3_diff(path, perceptible_only)
        after = StudyWarehouse(path).diff(
            "A", "B", perceptible_only=perceptible_only
        )
        assert after == before
        assert after.deltas[0].label == INJECTED_LABEL

    def test_cause_totals_read_only_the_covering_index(
        self, tmp_path, monkeypatch
    ):
        """Pin the plan: the run-filtered cause sums come off
        ``idx_causes_run_label`` alone, already grouped in label order —
        a schema edit that narrows the index fails here, not in a bench."""
        wh = StudyWarehouse(self._v3_file(tmp_path))
        statements: list = []
        real_connect = sqlite3.connect

        def tracing(*args, **kwargs) -> sqlite3.Connection:
            connection = real_connect(*args, **kwargs)
            connection.set_trace_callback(statements.append)
            return connection

        monkeypatch.setattr(warehouse_store.sqlite3, "connect", tracing)
        for perceptible_only in (False, True):
            statements.clear()
            assert wh.cause_totals("A", perceptible_only=perceptible_only)
            (sql,) = [s for s in statements if "FROM causes" in s]
            # Older Pythons trace the statement with its placeholders.
            params = ("A",) if "?" in sql else ()
            connection = real_connect(str(wh.path))
            try:
                plan = " / ".join(
                    row[3]
                    for row in connection.execute(
                        "EXPLAIN QUERY PLAN " + sql, params
                    )
                )
            finally:
                connection.close()
            assert "USING COVERING INDEX idx_causes_run_label" in plan, plan
            assert "TEMP B-TREE" not in plan, plan


# ----------------------------------------------------------------------
# The acceptance pin: injected cause ranks first, deterministically
# ----------------------------------------------------------------------


class TestInjectedCauseAttribution:
    def test_diff_ranks_injected_cause_first(
        self, tmp_path, baseline_traces, degraded_traces
    ):
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        ingest_run(wh, "A", baseline_traces)
        ingest_run(wh, "B", degraded_traces)
        report = wh.diff("A", "B")
        assert report.total_delta_ns > 0, "degraded run must be slower"
        assert report.deltas[0].label == INJECTED_LABEL
        assert report.deltas[0].delta_ns > 0
        assert report.regressions(1)[0].label == INJECTED_LABEL
        # The analyzer facade reaches the same report.
        facade = LagAlyzer.diff("A", "B", wh.path)
        assert facade == report

    def test_reverse_diff_ranks_it_as_improvement(
        self, tmp_path, baseline_traces, degraded_traces
    ):
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        ingest_run(wh, "A", baseline_traces)
        ingest_run(wh, "B", degraded_traces)
        report = wh.diff("B", "A")
        assert report.total_delta_ns < 0
        assert report.improvements(1)[0].label == INJECTED_LABEL

    @pytest.mark.parametrize("workers", (0, 2))
    def test_bundle_path_agrees_across_worker_pools(
        self, tmp_path, workers, baseline_traces, degraded_traces
    ):
        """Engine fan-out -> bundle compaction -> diff reproduces the
        direct-ingest report exactly, at every worker count."""
        direct = StudyWarehouse(tmp_path / "direct.sqlite")
        ingest_run(direct, "A", baseline_traces)
        ingest_run(direct, "B", degraded_traces)
        expected = direct.diff("A", "B")

        compacted = StudyWarehouse(tmp_path / f"w{workers}.sqlite")
        for run_id, traces in (("A", baseline_traces), ("B", degraded_traces)):
            cache_dir = tmp_path / f"cache-{workers}-{run_id}"
            engine = AnalysisEngine(workers=workers, cache_dir=cache_dir)
            engine.map_traces(INGEST_ANALYSES, traces, CONFIG)
            compacted.record_run(run_id, ts=1000.0)
            counters = compacted.ingest_bundles(
                ResultCache(cache_dir), run_id,
                config_fingerprint=config_fingerprint(CONFIG), ts=1000.0,
            )
            assert counters["ingested"] == len(traces)
        actual = compacted.diff("A", "B")
        assert actual == expected
        assert actual.deltas[0].label == INJECTED_LABEL


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestStudyDiffCli:
    @pytest.fixture()
    def wh_path(self, tmp_path, baseline_traces, degraded_traces) -> str:
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        ingest_run(wh, "A", baseline_traces)
        ingest_run(wh, "B", degraded_traces)
        return str(wh.path)

    def test_json_output_ranks_injected_cause(self, wh_path, capsys):
        code = main(
            ["study", "diff", "A", "B", "--warehouse", wh_path, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_a"] == "A"
        assert payload["run_b"] == "B"
        assert payload["total_delta_ns"] > 0
        assert payload["deltas"][0]["label"] == INJECTED_LABEL
        assert payload["deltas"][0]["delta_ns"] > 0

    def test_table_output_names_runs_and_cause(self, wh_path, capsys):
        code = main(["study", "diff", "A", "B", "--warehouse", wh_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "A -> B" in out
        assert INJECTED_LABEL in out

    def test_limit_caps_rows(self, wh_path, capsys):
        code = main(
            ["study", "diff", "A", "B", "--warehouse", wh_path,
             "--json", "-n", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["deltas"]) == 1

    def test_missing_warehouse_exit_code(self, tmp_path, capsys):
        code = main(
            ["study", "diff", "A", "B",
             "--warehouse", str(tmp_path / "absent.sqlite")]
        )
        assert code == EXIT_NO_WAREHOUSE
