"""The ``repro study query`` CLI: golden output, exit codes, fuzzing.

Exit-code contract under test: 0 on success, 1 when ``regressions``
finds a regression, 2 when the warehouse file is missing or unusable
(a newer schema, or the telemetry warehouse's file). The fuzz
tests drive hostile application / run identifiers through every query
path to pin the parameterized-SQL guarantee: identifiers are data,
never syntax.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.statistics import SessionStats
from repro.engine.cache import ResultCache, config_fingerprint
from repro.engine.engine import AnalysisEngine
from repro.obs.warehouse import Warehouse
from repro.warehouse.schema import MIGRATIONS
from repro.warehouse.store import INGEST_ANALYSES, StudyWarehouse

GOLDEN_DIR = Path(__file__).parent / "golden"
TRACE_PATHS = [
    GOLDEN_DIR / f"CrosswordSage-session-{index}.lila" for index in range(3)
]


def make_stats(app: str = "TestApp", **overrides: float) -> SessionStats:
    values = dict(
        e2e_s=60.0,
        in_episode_pct=10.0,
        below_filter=5.0,
        traced=10.0,
        perceptible=2.0,
        long_per_min=0.5,
        distinct_patterns=3.0,
        covered_episodes=8.0,
        singleton_pct=20.0,
        mean_descendants=4.0,
        mean_depth=2.0,
    )
    values.update(overrides)
    return SessionStats(application=app, **values)


@pytest.fixture()
def seeded_path(tmp_path: Path) -> str:
    """A warehouse with two runs, two apps, and a known regression."""
    wh = StudyWarehouse(tmp_path / "wh.sqlite")
    wh.record_run("base", label="before", source="bundles", ts=1000.0)
    wh.record_run("cand", label="after", source="bundles", ts=2000.0)
    wh.ingest_session(
        "base", "Alpha", "s0",
        make_stats("Alpha", traced=100.0, perceptible=5.0, long_per_min=1.0),
        pattern_counts={"d(l)": (10, 4), "d(p)": (20, 0)},
        trace_digest="a0", ts=1000.0,
    )
    wh.ingest_session(
        "base", "Beta", "s0",
        make_stats("Beta", traced=50.0, perceptible=10.0, long_per_min=3.0),
        pattern_counts={"d(l)": (8, 4)},
        trace_digest="b0", ts=1060.0,
    )
    wh.ingest_session(
        "cand", "Alpha", "s1",
        make_stats("Alpha", traced=100.0, perceptible=30.0, long_per_min=5.0),
        pattern_counts={"d(l)": (12, 9)},
        trace_digest="a1", ts=5000.0,
    )
    return str(wh.path)


def run_query(capsys, *argv: str):
    code = main(["study", "query", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# Exit-code contract
# ----------------------------------------------------------------------


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("runs",),
            ("aggregate",),
            ("top",),
            ("series",),
            ("regressions", "--baseline", "a", "--candidate", "b"),
        ],
        ids=["runs", "aggregate", "top", "series", "regressions"],
    )
    def test_missing_warehouse_exits_2(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "absent.sqlite")
        code, out, err = run_query(capsys, *argv, "--warehouse", missing)
        assert code == 2
        assert out == ""
        assert "no study warehouse at" in err

    @pytest.fixture(params=["future-schema", "telemetry-file"])
    def unusable_path(self, request, tmp_path: Path) -> str:
        path = tmp_path / "unusable.sqlite"
        if request.param == "telemetry-file":
            Warehouse(path).record_delta(
                "run", {"counters": {"c": 1}}, ts=60.0
            )
        else:
            connection = sqlite3.connect(str(path))
            connection.executescript(MIGRATIONS[0])
            connection.execute(
                "INSERT INTO meta (key, value)"
                " VALUES ('study_schema_version', '99')"
            )
            connection.commit()
            connection.close()
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ("query", "runs"),
            ("query", "aggregate"),
            ("query", "top"),
            ("query", "series"),
            ("query", "regressions", "--baseline", "a", "--candidate", "b"),
            ("diff", "a", "b"),
        ],
        ids=["runs", "aggregate", "top", "series", "regressions", "diff"],
    )
    def test_unusable_warehouse_exits_2(self, unusable_path, capsys, argv):
        code = main(["study", *argv, "--warehouse", unusable_path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {unusable_path}: ")

    def test_success_exits_0(self, seeded_path, capsys):
        for argv in (("runs",), ("aggregate",), ("top",), ("series",)):
            code, _, _ = run_query(capsys, *argv, "--warehouse", seeded_path)
            assert code == 0

    def test_regression_found_exits_1(self, seeded_path, capsys):
        code, out, _ = run_query(
            capsys, "regressions", "--warehouse", seeded_path,
            "--baseline", "base", "--candidate", "cand",
        )
        assert code == 1
        assert "1 application(s) regressed" in out

    def test_no_regression_exits_0(self, seeded_path, capsys):
        # Same runs on both sides: every delta is zero.
        code, out, _ = run_query(
            capsys, "regressions", "--warehouse", seeded_path,
            "--baseline", "base", "--candidate", "base",
        )
        assert code == 0
        assert "no regressions" in out

    def test_min_delta_suppresses_regression(self, seeded_path, capsys):
        code, out, _ = run_query(
            capsys, "regressions", "--warehouse", seeded_path,
            "--baseline", "base", "--candidate", "cand",
            "--min-delta", "0.9",
        )
        assert code == 0
        assert "no regressions" in out

    def test_query_without_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "query"])
        assert excinfo.value.code == 2

    def test_bad_bucket_is_usage_error(self, seeded_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "study", "query", "series", "--warehouse", seeded_path,
                "--bucket", "fortnight",
            ])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Golden output per subcommand
# ----------------------------------------------------------------------


class TestGoldenOutput:
    def test_runs_table(self, seeded_path, capsys):
        _, out, _ = run_query(capsys, "runs", "--warehouse", seeded_path)
        lines = out.splitlines()
        assert lines[0].split() == ["RUN", "SOURCE", "SESSIONS", "LABEL"]
        assert lines[1].split() == ["base", "bundles", "2", "before"]
        assert lines[2].split() == ["cand", "bundles", "1", "after"]

    def test_runs_json(self, seeded_path, capsys):
        _, out, _ = run_query(
            capsys, "runs", "--warehouse", seeded_path, "--json"
        )
        records = json.loads(out)
        assert [r["run_id"] for r in records] == ["base", "cand"]
        assert records[0]["sessions"] == 2

    def test_aggregate_table(self, seeded_path, capsys):
        _, out, _ = run_query(capsys, "aggregate", "--warehouse", seeded_path)
        lines = out.splitlines()
        assert lines[0].split() == [
            "APP", "SESSIONS", "TRACED", "PERCEPT", "RATE", "LONG/MIN",
        ]
        assert lines[1].split() == [
            "Alpha", "2", "200", "35", "0.175", "3.00",
        ]
        assert lines[2].split() == ["Beta", "1", "50", "10", "0.200", "3.00"]

    def test_aggregate_filters_and_json(self, seeded_path, capsys):
        _, out, _ = run_query(
            capsys, "aggregate", "--warehouse", seeded_path,
            "--apps", "Beta", "--json",
        )
        rows = json.loads(out)
        assert [row["application"] for row in rows] == ["Beta"]
        _, out, _ = run_query(
            capsys, "aggregate", "--warehouse", seeded_path,
            "--runs", "cand", "--json",
        )
        rows = json.loads(out)
        assert [(row["application"], row["sessions"]) for row in rows] == [
            ("Alpha", 1)
        ]
        _, out, _ = run_query(
            capsys, "aggregate", "--warehouse", seeded_path,
            "--since", "4000", "--json",
        )
        assert [row["application"] for row in json.loads(out)] == ["Alpha"]

    def test_top_table_and_limit(self, seeded_path, capsys):
        _, out, _ = run_query(capsys, "top", "--warehouse", seeded_path)
        lines = out.splitlines()
        assert lines[0].split() == [
            "APP", "OCCUR", "PERCEPT", "SESSIONS", "PATTERN",
        ]
        # Ranked by perceptible episodes: Alpha d(l) 13, Beta d(l) 4, ...
        assert lines[1].split() == ["Alpha", "22", "13", "2", "d(l)"]
        assert lines[2].split() == ["Beta", "8", "4", "1", "d(l)"]
        _, out, _ = run_query(
            capsys, "top", "--warehouse", seeded_path, "-n", "1", "--json"
        )
        assert len(json.loads(out)) == 1

    def test_top_occurrence_metric(self, seeded_path, capsys):
        _, out, _ = run_query(
            capsys, "top", "--warehouse", seeded_path,
            "--analyses", "occurrences", "--json",
        )
        rows = json.loads(out)
        assert (rows[0]["application"], rows[0]["pattern_key"]) == (
            "Alpha", "d(l)",
        )
        assert rows[0]["occurrences"] == 22

    def test_series_table(self, seeded_path, capsys):
        _, out, _ = run_query(
            capsys, "series", "--warehouse", seeded_path,
            "--metric", "perceptible",
        )
        lines = out.splitlines()
        assert lines[0].split() == ["APP", "BUCKET", "SESSIONS", "VALUE"]
        assert lines[1].split() == ["Alpha", "0", "1", "5.0000"]
        assert lines[2].split() == ["Alpha", "3600", "1", "30.0000"]
        assert lines[3].split() == ["Beta", "0", "1", "10.0000"]

    def test_regressions_table(self, seeded_path, capsys):
        code, out, _ = run_query(
            capsys, "regressions", "--warehouse", seeded_path,
            "--baseline", "base", "--candidate", "cand",
        )
        assert code == 1
        lines = out.splitlines()
        assert "perceptible_rate: baseline base vs candidate cand" in lines[0]
        assert lines[1].split() == [
            "APP", "BASELINE", "CANDIDATE", "DELTA", "VERDICT",
        ]
        assert lines[2].split() == [
            "Alpha", "0.0500", "0.3000", "+0.2500", "REGRESSED",
        ]
        assert lines[3].split() == ["Beta", "0.2000", "0.0000", "-0.2000", "ok"]

    def test_regressions_json_carries_exit_semantics(
        self, seeded_path, capsys
    ):
        code, out, _ = run_query(
            capsys, "regressions", "--warehouse", seeded_path,
            "--baseline", "base", "--candidate", "cand", "--json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["metric"] == "perceptible_rate"
        entries = {e["application"]: e for e in report["entries"]}
        assert entries["Alpha"]["regressed"]
        assert not entries["Beta"]["regressed"]

    def test_empty_warehouse_prints_placeholders(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        StudyWarehouse(path).schema_version()  # create an empty file
        _, out, _ = run_query(capsys, "runs", "--warehouse", path)
        assert out == "no runs recorded\n"
        _, out, _ = run_query(capsys, "aggregate", "--warehouse", path)
        assert out == "no sessions match\n"
        _, out, _ = run_query(capsys, "top", "--warehouse", path)
        assert out == "no patterns match\n"


# ----------------------------------------------------------------------
# Hostile identifiers: parameterized SQL end to end
# ----------------------------------------------------------------------


HOSTILE_IDENTIFIERS = [
    "app'; DROP TABLE sessions; --",
    'app" OR "1"="1',
    "../../etc/passwd",
    "Robert'); DELETE FROM patterns;--",
    "名前 アプリ",
    "app\\with\\backslashes",
]


class TestHostileIdentifiers:
    @pytest.mark.parametrize("hostile", HOSTILE_IDENTIFIERS)
    def test_query_filters_treat_identifiers_as_data(
        self, tmp_path, capsys, hostile
    ):
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        wh.ingest_session(
            hostile, hostile, "s0", make_stats(hostile, traced=7.0),
            pattern_counts={hostile: (3, 2)}, trace_digest="d", ts=100.0,
        )
        wh.ingest_session(
            "clean-run", "CleanApp", "s0", make_stats("CleanApp"),
            trace_digest="e", ts=100.0,
        )
        path = str(wh.path)
        code, out, _ = run_query(
            capsys, "aggregate", "--warehouse", path,
            "--apps", hostile, "--json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["application"] for row in rows] == [hostile]
        assert rows[0]["traced_episodes"] == 7
        code, out, _ = run_query(
            capsys, "top", "--warehouse", path,
            "--apps", hostile, "--runs", hostile, "--json",
        )
        assert code == 0
        assert json.loads(out)[0]["pattern_key"] == hostile
        code, out, _ = run_query(
            capsys, "regressions", "--warehouse", path,
            "--baseline", hostile, "--candidate", "clean-run", "--json",
        )
        assert code in (0, 1)
        # Nothing was dropped or deleted by the hostile strings.
        connection = sqlite3.connect(path)
        try:
            assert connection.execute(
                "SELECT COUNT(*) FROM sessions"
            ).fetchone()[0] == 2
            assert connection.execute(
                "SELECT COUNT(*) FROM patterns"
            ).fetchone()[0] == 1
        finally:
            connection.close()


# ----------------------------------------------------------------------
# End to end: study --warehouse, then query — the acceptance pin
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_study_builds_queryable_warehouse(self, tmp_path, capsys):
        warehouse = tmp_path / "wh.sqlite"
        code = main([
            "study", "--apps", "CrosswordSage", "--sessions", "1",
            "--scale", "0.05", "--workers", "1",
            "-o", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
            "--warehouse", str(warehouse),
            "--warehouse-run-id", "cli-run",
        ])
        assert code == 0
        capsys.readouterr()
        code, out, _ = run_query(
            capsys, "runs", "--warehouse", str(warehouse), "--json"
        )
        assert code == 0
        records = json.loads(out)
        assert [r["run_id"] for r in records] == ["cli-run"]
        assert records[0]["sessions"] == 1
        assert records[0]["source"] == "bundles"

    def test_top_query_matches_recomputed_summaries(self, tmp_path, capsys):
        """`study query top --analyses perceptible_lag` over a warehouse
        compacted from the golden corpus returns values identical to
        recomputing via ``LagAlyzer.summaries()`` — the ISSUE's
        acceptance pin, through the real CLI."""
        analyzer = LagAlyzer.load(
            TRACE_PATHS,
            config=AnalysisConfig(perceptible_threshold_ms=100.0),
        )
        engine = AnalysisEngine(workers=1, cache_dir=tmp_path / "cache")
        engine.map_traces(INGEST_ANALYSES, analyzer.traces, analyzer.config)
        warehouse = StudyWarehouse(tmp_path / "wh.sqlite")
        warehouse.ingest_bundles(
            ResultCache(tmp_path / "cache"), "golden",
            config_fingerprint=config_fingerprint(analyzer.config),
        )

        code, out, _ = run_query(
            capsys, "top", "--warehouse", str(warehouse.path),
            "--analyses", "perceptible_lag", "-n", "100000", "--json",
        )
        assert code == 0
        rows = json.loads(out)

        # Recompute through the exact pass summaries() reduces.
        from repro.core.plan import build_plan

        plan = build_plan(INGEST_ANALYSES)
        merged: dict = {}
        for trace in analyzer.traces:
            partial = plan.execute(trace, analyzer.config)["occurrence"]
            for key, (count, perceptible) in partial.counts.items():
                prev_count, prev_perceptible = merged.get(key, (0, 0))
                merged[key] = (
                    prev_count + count, prev_perceptible + perceptible
                )
        assert {
            row["pattern_key"]: (row["occurrences"], row["perceptible"])
            for row in rows
        } == merged
        perceptibles = [row["perceptible"] for row in rows]
        assert perceptibles == sorted(perceptibles, reverse=True)
