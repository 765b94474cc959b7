"""Cause-diff acceptance: migration, injected-cause attribution, CLI.

The headline acceptance pin of the workload-family refactor: given two
warehouse runs of the same ``io_service`` study where run B carries one
injected cause (a degraded database, every IO wait stretched), ``repro
study diff A B`` must rank the injected cause first — and must do so
deterministically whether the summaries were computed serially, by a
worker pool, or compacted from engine bundles. Alongside it live the
v2 -> v5 schema migration pins (family column backfill, causes table),
the v3 -> v5 and v4 -> v5 pins (the cause rollup, its backfill, and the
query plan it buys), ``rank_cause_deltas`` held to the v4 ranking on
generated tallies, and the CLI surface of ``study diff``.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.io_service import simulate_service_sessions
from repro.cli import main
from repro.cli.study import EXIT_NO_WAREHOUSE
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.causegraph import CauseDelta, diff_cause_totals, rank_cause_deltas
from repro.core.statistics import SessionStats
from repro.engine.cache import ResultCache, config_fingerprint
from repro.engine.engine import AnalysisEngine
from repro.warehouse import store as warehouse_store
from repro.warehouse.schema import MIGRATIONS, SCHEMA_VERSION
from repro.warehouse.store import INGEST_ANALYSES, StudyWarehouse

from oracle import reference_cause_totals, reference_diff

#: The slow endpoint's IO call — the label the injected degradation
#: must surface under (``io_scale`` stretches every endpoint's IO wait,
#: and orders.search has by far the largest baseline wait).
INJECTED_LABEL = "iowait:java.sql.Statement.executeQuery"

CONFIG = AnalysisConfig(perceptible_threshold_ms=100.0)
STATS = SessionStats(
    application="OrderApi",
    **{name: 1.0 for name in SessionStats._NUMERIC_FIELDS},
)
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

    def test_v2_file_migrates_to_v5_preserving_rows(self, tmp_path):
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
        # The causes table arrives with v3 and its rollup with v5, which
        # drops the v3/v4 run/label index again...
        assert {"causes", "cause_rollup"} <= names
        assert "idx_causes_run_label" not in names
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
# Schema: v3/v4 -> v5 migration and the cause rollup
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

#: The primary key of the v5 ``cause_rollup``, in key order.
ROLLUP_KEY_COLUMNS = ["run_id", "label", "app"]


@pytest.fixture()
def traced(monkeypatch):
    """``(statements, connect)``: every statement the warehouse's
    connections run from here on, and the untraced ``sqlite3.connect``."""
    statements: list = []
    real_connect = sqlite3.connect

    def tracing(*args, **kwargs) -> sqlite3.Connection:
        connection = real_connect(*args, **kwargs)
        connection.set_trace_callback(statements.append)
        return connection

    monkeypatch.setattr(warehouse_store.sqlite3, "connect", tracing)
    return statements, real_connect


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

    def test_v3_file_migrates_to_v5_preserving_cause_rows(self, tmp_path):
        wh = StudyWarehouse(self._v3_file(tmp_path))
        assert wh.schema_version() == SCHEMA_VERSION
        connection = sqlite3.connect(str(wh.path))
        try:
            rows = connection.execute(
                "SELECT run_id, app, session_id, label, total_ns, episodes,"
                " perceptible_ns, perceptible_episodes FROM causes"
            ).fetchall()
            key = sorted(
                (row[5], row[1])
                for row in connection.execute(
                    "PRAGMA table_info('cause_rollup')"
                )
                if row[5]
            )
            without_rowid = connection.execute(
                "SELECT sql FROM sqlite_master WHERE name = 'cause_rollup'"
            ).fetchone()[0].rstrip().endswith("WITHOUT ROWID")
            index = connection.execute(
                "SELECT name FROM sqlite_master"
                " WHERE name = 'idx_causes_run_label'"
            ).fetchone()
            rollup = connection.execute(
                "SELECT run_id, label, app, total_ns, episodes,"
                " perceptible_ns, perceptible_episodes, rows"
                " FROM cause_rollup ORDER BY run_id, label, app"
            ).fetchall()
        finally:
            connection.close()
        assert sorted(rows) == sorted(V3_CAUSE_ROWS)
        assert [name for _position, name in key] == ROLLUP_KEY_COLUMNS
        assert without_rowid
        assert index is None
        # The backfill: one row per (run, label, app), its rows summed.
        assert rollup == [
            ("A", "gc:young", "OrderApi", 30, 3, 10, 1, 1),
            ("A", INJECTED_LABEL, "OrderApi", 150, 3, 60, 1, 2),
            ("B", "gc:young", "OrderApi", 20, 2, 0, 0, 1),
            ("B", INJECTED_LABEL, "OrderApi", 400, 2, 300, 2, 1),
            ("B", "native:java.util.zip.Deflater", "IndexBuilder",
             5, 1, 5, 1, 1),
        ]

    @pytest.mark.parametrize("perceptible_only", (False, True))
    def test_diff_report_survives_the_upgrade(
        self, tmp_path, perceptible_only
    ):
        path = self._v3_file(tmp_path)
        before = reference_diff(
            reference_cause_totals(path, "A", None, perceptible_only),
            reference_cause_totals(path, "B", None, perceptible_only),
            "A", "B",
        )
        after = StudyWarehouse(path).diff(
            "A", "B", perceptible_only=perceptible_only
        )
        assert after == before
        assert after.deltas[0].label == INJECTED_LABEL

    @pytest.mark.parametrize(
        "apps", (None, ["OrderApi"]), ids=("all-apps", "one-app")
    )
    def test_cause_totals_read_the_rollup_by_primary_key(
        self, tmp_path, traced, apps
    ):
        """Pin the plan: a run's cause sums come off ``cause_rollup``'s
        primary key alone, already grouped in label order, with or
        without an ``apps`` filter — a schema edit that loses the key
        order fails here, not in a bench."""
        wh = StudyWarehouse(self._v3_file(tmp_path))
        assert wh.schema_version() == SCHEMA_VERSION
        statements, real_connect = traced
        for perceptible_only in (False, True):
            statements.clear()
            assert wh.cause_totals(
                "A", apps=apps, perceptible_only=perceptible_only
            )
            assert not [s for s in statements if "FROM causes" in s]
            (sql,) = [s for s in statements if "FROM cause_rollup" in s]
            # Older Pythons trace the statement with its placeholders.
            params = ("A",) + tuple(apps or ()) if "?" in sql else ()
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
            assert "SEARCH cause_rollup USING PRIMARY KEY (run_id=?)" in plan, (
                plan
            )
            assert "TEMP B-TREE" not in plan, plan

    def test_diff_reads_only_the_rollup(self, tmp_path, traced):
        wh = StudyWarehouse(self._v3_file(tmp_path))
        assert wh.schema_version() == SCHEMA_VERSION
        statements, _ = traced
        for apps in (None, ["OrderApi"]):
            statements.clear()
            assert wh.diff("A", "B", apps=apps).deltas
            reads = [s for s in statements if "cause" in s]
            assert len(reads) == 2, reads
            assert all("FROM cause_rollup" in s for s in reads), reads


class TestMigrationV5:
    """A v4 file's cause rows backfill the rollup under the v4 query's
    ``typeof`` guard: a non-numeric row is left out of both."""

    #: One v4 row whose ``total_ns`` is not a number.
    TAMPERED = ("A", "OrderApi", "s2", "gc:young", "n/a", 1, 0, 0)

    def _v4_file(self, tmp_path: Path) -> Path:
        path = tmp_path / "v4.sqlite"
        connection = sqlite3.connect(str(path))
        for script in MIGRATIONS[:4]:
            connection.executescript(script)
        connection.execute(
            "INSERT INTO meta (key, value)"
            " VALUES ('study_schema_version', '4')"
        )
        connection.executemany(
            "INSERT INTO causes (run_id, app, session_id, label, total_ns,"
            " episodes, perceptible_ns, perceptible_episodes)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            V3_CAUSE_ROWS + [self.TAMPERED],
        )
        connection.commit()
        connection.close()
        return path

    def test_backfill_equals_the_v4_query(self, tmp_path):
        path = self._v4_file(tmp_path)
        combos = [
            (run_id, apps, perceptible_only)
            for run_id in ("A", "B")
            for apps in (None, ("OrderApi",), ("IndexBuilder", "OrderApi"))
            for perceptible_only in (False, True)
        ]
        before = {combo: reference_cause_totals(path, *combo) for combo in combos}
        diffs = {
            combo[1:]: reference_diff(
                before[("A",) + combo[1:]], before[("B",) + combo[1:]],
                "A", "B",
            )
            for combo in combos
        }
        wh = StudyWarehouse(path)
        assert wh.schema_version() == SCHEMA_VERSION
        for combo, expected in before.items():
            assert wh.cause_totals(*combo) == expected
        for (apps, perceptible_only), expected in diffs.items():
            assert wh.diff("A", "B", apps, perceptible_only) == expected
        # The tampered row stays in `causes`, outside the rollup...
        connection = sqlite3.connect(str(path))
        try:
            kept = connection.execute(
                "SELECT COUNT(*) FROM causes WHERE total_ns = 'n/a'"
            ).fetchone()[0]
            rows = connection.execute(
                "SELECT rows FROM cause_rollup WHERE run_id = 'A'"
                " AND label = 'gc:young' AND app = 'OrderApi'"
            ).fetchone()[0]
        finally:
            connection.close()
        assert (kept, rows) == (1, 1)
        # ...and replacing its session subtracts only what was summed in.
        wh.ingest_session(
            "A", "OrderApi", "s2", STATS,
            trace_digest="new", causes={"gc:young": (7, 1, 0, 0)},
        )
        assert wh.cause_totals("A") == reference_cause_totals(path, "A")
        assert wh.cause_totals("A")["gc:young"] == (37, 4)


# ----------------------------------------------------------------------
# The ranking against the v4 reference
# ----------------------------------------------------------------------

#: Few labels and small values, so labels held by one run, equal
#: deltas and zero deltas all come up often.
RANK_LABELS = ("a", "b", "c", "d", "e")
tallies = st.dictionaries(
    st.sampled_from(RANK_LABELS),
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    max_size=len(RANK_LABELS),
)


class TestRankCauseDeltas:
    @settings(max_examples=200, deadline=None)
    @given(tally_a=tallies, tally_b=tallies)
    # "a" and "c" only in one run each, "b" and "d" tie at +1 and must
    # rank in label order, "e" does not move.
    @example(
        tally_a={"a": (2, 1), "b": (1, 1), "d": (0, 0), "e": (3, 2)},
        tally_b={"b": (2, 1), "c": (1, 1), "d": (1, 1), "e": (3, 2)},
    )
    @example(tally_a={}, tally_b={})
    def test_ranking_equals_the_reference(self, tally_a, tally_b):
        expected = reference_diff(tally_a, tally_b, "A", "B")
        rows = [
            [(label, ns, count) for label, (ns, count) in sorted(tally.items())]
            for tally in (tally_a, tally_b)
        ]
        report = rank_cause_deltas(rows[0], rows[1], "A", "B")
        assert report == expected
        assert diff_cause_totals(tally_a, tally_b, "A", "B") == expected
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        assert all(type(delta) is CauseDelta for delta in copy.deltas)

    def test_delta_fields_construction_and_repr(self):
        assert CauseDelta._fields == (
            "label", "delta_ns", "a_total_ns", "b_total_ns", "a_episodes",
            "b_episodes",
        )
        delta = CauseDelta(
            label="gc:young", delta_ns=-2, a_total_ns=5, b_total_ns=3,
            a_episodes=2, b_episodes=1,
        )
        assert delta == CauseDelta("gc:young", -2, 5, 3, 2, 1)
        assert (delta.label, delta.delta_ns, delta.b_episodes) == (
            "gc:young", -2, 1,
        )
        assert repr(delta) == (
            "CauseDelta(label='gc:young', delta_ns=-2, a_total_ns=5,"
            " b_total_ns=3, a_episodes=2, b_episodes=1)"
        )
        report = diff_cause_totals(
            {"gc:young": (5, 2)}, {"gc:young": (3, 1)}, "A", "B"
        )
        assert report.deltas == (delta,)


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

    def test_table_lists_causes_that_moved(self, wh_path, capsys):
        """B -> A regresses nothing, so the table opens on the injected
        cause's improvement; labels that did not move are left out."""
        code = main(
            ["study", "diff", "B", "A", "--warehouse", wh_path, "-n", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(
            index for index, line in enumerate(lines) if "CAUSE" in line
        )
        rows = [line.split() for line in lines[header + 1:]]
        assert rows and rows[0][-1] == INJECTED_LABEL
        assert float(rows[0][0]) < 0
        assert all(row[0] != "+0.0" for row in rows), rows

    def test_table_says_when_no_cause_moved(self, wh_path, capsys):
        code = main(["study", "diff", "A", "A", "--warehouse", wh_path])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "no cause moved between A and A"

    def test_missing_warehouse_exit_code(self, tmp_path, capsys):
        code = main(
            ["study", "diff", "A", "B",
             "--warehouse", str(tmp_path / "absent.sqlite")]
        )
        assert code == EXIT_NO_WAREHOUSE
