"""The study warehouse: migrations, parity, queries, retention, chaos.

The warehouse's core promise is *parity by construction*: rows compacted
from engine bundles or ingested directly from traces are value-identical
to what ``LagAlyzer.summaries()`` computes from the same traces. The
golden-corpus tests here pin that promise, the query tests pin the
aggregate / top-N / series / regression semantics, and the chaos tests
pin the degrade-never-kill contract (fault-injected writes, mid-run
file deletion, corrupt-row quarantine).

``WAREHOUSE_WORKERS`` selects the engine fan-out used by the parity
tests (default serial); CI runs the suite at 0 (one worker per CPU)
and 2.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import threading
from pathlib import Path

import pytest

from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.plan import build_plan
from repro.core.statistics import SessionStats
from repro.engine.cache import (
    ResultCache,
    bundle_envelope,
    bundle_parts,
    config_fingerprint,
)
from repro.engine.engine import AnalysisEngine
from repro.faults import runtime as faults_runtime
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.warehouse import Warehouse
from repro.sqlitedb import ensure_schema, stored_version
from repro.study.runner import StudyConfig, run_study
from repro.warehouse import store as warehouse_store
from repro.warehouse.schema import (
    MIGRATIONS,
    SCHEMA_VERSION,
    StudyWarehouseError,
)
from repro.warehouse.store import INGEST_ANALYSES, StudyWarehouse
from repro.warehouse.types import RegressionReport

from helpers import schema_names

WORKERS = int(os.environ.get("WAREHOUSE_WORKERS", "1"))

GOLDEN_DIR = Path(__file__).parent / "golden"
TRACE_PATHS = [
    GOLDEN_DIR / f"CrosswordSage-session-{index}.lila" for index in range(3)
]
APPLICATION = "CrosswordSage"
THRESHOLD_MS = 100.0


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


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
def wh(tmp_path: Path) -> StudyWarehouse:
    return StudyWarehouse(tmp_path / "study.sqlite")


@pytest.fixture(scope="module")
def golden() -> LagAlyzer:
    return LagAlyzer.load(
        TRACE_PATHS,
        config=AnalysisConfig(perceptible_threshold_ms=THRESHOLD_MS),
    )


@pytest.fixture()
def cache(tmp_path: Path, golden: LagAlyzer) -> ResultCache:
    """A result cache holding one ingest bundle per golden trace."""
    engine = AnalysisEngine(workers=1, cache_dir=tmp_path / "cache")
    engine.map_traces(INGEST_ANALYSES, golden.traces, golden.config)
    return ResultCache(tmp_path / "cache")


def golden_partials(analyzer: LagAlyzer) -> list:
    """Per-trace (statistics, occurrence) partials via the fused plan —
    literally the pass ``LagAlyzer.summaries`` reduces."""
    plan = build_plan(INGEST_ANALYSES)
    return [plan.execute(trace, analyzer.config) for trace in analyzer.traces]


def merged_pattern_counts(partials: list) -> dict:
    merged: dict = {}
    for per_trace in partials:
        for key, (count, perceptible) in per_trace["occurrence"].counts.items():
            prev_count, prev_perceptible = merged.get(key, (0, 0))
            merged[key] = (prev_count + count, prev_perceptible + perceptible)
    return merged


def session_rows(wh: StudyWarehouse) -> list:
    columns = (
        "run_id", "app", "session_id", "trace_digest", "records",
        "excluded_episodes",
    ) + SessionStats._NUMERIC_FIELDS
    connection = sqlite3.connect(str(wh.path))
    try:
        return [
            dict(zip(columns, row))
            for row in connection.execute(
                "SELECT " + ", ".join(columns)
                + " FROM sessions ORDER BY run_id, app, session_id"
            )
        ]
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Schema and migrations
# ----------------------------------------------------------------------


class TestSchema:
    def test_fresh_file_is_current_version(self, wh):
        assert wh.schema_version() == SCHEMA_VERSION
        connection = sqlite3.connect(str(wh.path))
        try:
            assert stored_version(
                connection, StudyWarehouse.VERSION_KEY, StudyWarehouseError
            ) == SCHEMA_VERSION
        finally:
            connection.close()

    def test_migration_chain_covers_every_version(self):
        assert len(MIGRATIONS) == SCHEMA_VERSION

    #: sha256 of each shipped step's SQL. A shipped step never changes:
    #: files already migrated past it would not run it again.
    SHIPPED_STEPS = (
        "9aa57a144ad7693ab0c16323424202042ac723002c471a4276199a95eba2d18b",
        "4c040d02513c99aa89f074af1214d7fa2a49dedea4ea1f151539e1797ae17b2f",
        "f71f829baf0ecc4e8ebaeece0c49a6909d074fbd2c1ae7d5dbf343abf7e22c8b",
        "e9b97eb1baab9450b226129c1603b19b80987ba30b79f89aa5e41e66208d03be",
        "af55ce332f8e29e54f378de6f4ee84065ff4cc408379022421c6ff21c9f62fa3",
        "f0764bfa3c0ae36a8d34f7dd259033a78c6022fba87d4007a48f52d60a14ffdd",
        "371072e0541e4ba5be55dbd55c4cfec3994432c1c838bb5374c26b42f41a9944",
        "6a95b4f6c869a108c54452108f9e30a9b61b90041bc5923947793cf1a6f9c494",
    )

    def test_shipped_steps_are_frozen(self):
        assert tuple(
            hashlib.sha256(step.encode("utf-8")).hexdigest()
            for step in MIGRATIONS
        ) == self.SHIPPED_STEPS

    def test_v1_file_migrates_preserving_rows(self, tmp_path):
        path = tmp_path / "old.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript(MIGRATIONS[0])
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('study_schema_version', '1')"
        )
        connection.execute(
            "INSERT INTO runs (run_id, created_ts) VALUES ('r1', 100.0)"
        )
        connection.execute(
            "INSERT INTO sessions (run_id, app, session_id, ingested_ts,"
            " traced, perceptible) VALUES ('r1', 'OldApp', 's0', 100.0,"
            " 10.0, 3.0)"
        )
        connection.execute(
            "INSERT INTO patterns (run_id, app, session_id, pattern_key,"
            " count, perceptible) VALUES ('r1', 'OldApp', 's0', 'p', 4, 1)"
        )
        connection.commit()
        connection.close()

        upgraded = StudyWarehouse(path)
        assert upgraded.schema_version() == SCHEMA_VERSION
        # v1 rows survive, and the v2 `records` column backfills to 0.
        rows = session_rows(upgraded)
        assert [row["app"] for row in rows] == ["OldApp"]
        assert rows[0]["records"] == 0
        assert rows[0]["traced"] == 10.0
        aggs = upgraded.aggregate()
        assert aggs[0].traced_episodes == 10
        assert upgraded.top_patterns()[0].occurrences == 4

    def test_migration_reports_start_version(self, tmp_path):
        path = tmp_path / "old.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript(MIGRATIONS[0])
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('study_schema_version', '1')"
        )
        connection.commit()
        # A crash between migration steps leaves a valid lower-version
        # file; the next open resumes the walk from there.
        walk = (MIGRATIONS, StudyWarehouse.VERSION_KEY, StudyWarehouseError)
        assert ensure_schema(connection, *walk) == 1
        assert stored_version(connection, *walk[1:]) == SCHEMA_VERSION
        assert ensure_schema(connection, *walk) == SCHEMA_VERSION
        connection.close()

    def test_v6_keeps_a_pattern_rollup_by_trigger_not_index(self, wh):
        wh.schema_version()
        connection = sqlite3.connect(str(wh.path))
        try:
            names = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master"
                )
            }
            key = [
                row[1]
                for row in sorted(
                    connection.execute("PRAGMA table_info('pattern_rollup')"),
                    key=lambda row: row[5],
                )
                if row[5]
            ]
            sql = connection.execute(
                "SELECT sql FROM sqlite_master WHERE name = 'pattern_rollup'"
            ).fetchone()[0]
            triggers = sorted(
                (row[0], row[1])
                for row in connection.execute(
                    "SELECT tbl_name, name FROM sqlite_master"
                    " WHERE type = 'trigger'"
                )
            )
        finally:
            connection.close()
        assert "quarantine" in names
        assert key == ["run_id", "app", "pattern_key"]
        assert sql.rstrip().endswith("WITHOUT ROWID")
        assert triggers == [
            ("causes", f"cause_rollup_{event}")
            for event in ("delete", "insert", "update")
        ] + [
            ("patterns", f"pattern_rollup_{event}")
            for event in ("delete", "insert", "update")
        ]
        # The rollup's key serves top_patterns; nothing reads the
        # v2 app/key index any more.
        assert "idx_patterns_app_key" not in names

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        connection = sqlite3.connect(str(path))
        connection.executescript(MIGRATIONS[0])
        connection.execute(
            "INSERT INTO meta (key, value)"
            " VALUES ('study_schema_version', '99')"
        )
        connection.commit()
        connection.close()
        with pytest.raises(StudyWarehouseError, match="newer"):
            StudyWarehouse(path).schema_version()

    def test_telemetry_file_refused_untouched(self, tmp_path):
        path = tmp_path / "telemetry.sqlite"
        Warehouse(path).record_delta("run", {"counters": {"c": 1}}, ts=60.0)
        names = schema_names(path)
        wh = StudyWarehouse(path)
        for call in (
            wh.schema_version,
            wh.aggregate,
            lambda: wh.ingest_session("r", "App", "s0", make_stats()),
        ):
            with pytest.raises(StudyWarehouseError, match="study_schema_version"):
                call()
        assert schema_names(path) == names
        assert "sessions" not in names


# ----------------------------------------------------------------------
# Ingest semantics
# ----------------------------------------------------------------------


class TestIngest:
    def test_session_roundtrip(self, wh):
        stats = make_stats(traced=12.0, perceptible=3.0, e2e_s=61.5)
        assert wh.ingest_session(
            "r1", "TestApp", "s0", stats,
            pattern_counts={"p/a": (5, 2), "p/b": (3, 0)},
            excluded=1, trace_digest="d0", records=42, ts=1000.0,
        )
        row = session_rows(wh)[0]
        assert row["records"] == 42
        assert row["excluded_episodes"] == 1
        assert row["trace_digest"] == "d0"
        for name in SessionStats._NUMERIC_FIELDS:
            assert row[name] == getattr(stats, name)
        top = wh.top_patterns()
        assert [(p.pattern_key, p.occurrences, p.perceptible) for p in top] == [
            ("p/a", 5, 2), ("p/b", 3, 0),
        ]

    def test_same_digest_dedups(self, wh):
        stats = make_stats()
        assert wh.ingest_session("r1", "A", "s0", stats, trace_digest="d")
        assert not wh.ingest_session("r1", "A", "s0", stats, trace_digest="d")
        assert len(session_rows(wh)) == 1

    def test_dedup_records_a_bundle_key_only_where_none_is(self, wh):
        def keys() -> list:
            return [row[0] for row in wh._rows(
                "SELECT bundle_key FROM sessions ORDER BY app"
            )]

        for app in ("A", "B"):
            wh.ingest_session(
                "r1", app, "s0", make_stats(), pattern_counts={"k": (2, 1)},
                trace_digest="d", config_fingerprint="c",
            )
        assert keys() == ["", ""]
        before = wh._rows("SELECT * FROM patterns ORDER BY app")
        # A dedup records its key on a row that has none under its config,
        # and never replaces a recorded key.
        assert not wh.ingest_session(
            "r1", "A", "s0", make_stats(traced=99.0), trace_digest="d",
            config_fingerprint="c", bundle_key="k1",
        )
        assert not wh.ingest_session(
            "r1", "A", "s0", make_stats(), trace_digest="d",
            config_fingerprint="c", bundle_key="k2",
        )
        assert not wh.ingest_session(
            "r1", "B", "s0", make_stats(), trace_digest="d",
            config_fingerprint="other", bundle_key="k3",
        )
        assert keys() == ["k1", ""]
        assert wh._rows("SELECT * FROM patterns ORDER BY app") == before
        assert [row["traced"] for row in session_rows(wh)] == [10.0, 10.0]
        # A write from any other source stores no key.
        assert wh.ingest_session(
            "r1", "A", "s0", make_stats(), trace_digest="d2",
            config_fingerprint="c",
        )
        assert keys() == ["", ""]

    def test_new_digest_replaces_session_and_patterns(self, wh):
        wh.ingest_session(
            "r1", "A", "s0", make_stats(traced=5.0),
            pattern_counts={"old": (9, 9)}, trace_digest="d1",
        )
        assert wh.ingest_session(
            "r1", "A", "s0", make_stats(traced=7.0),
            pattern_counts={"new": (2, 1)}, trace_digest="d2",
        )
        rows = session_rows(wh)
        assert len(rows) == 1
        assert rows[0]["traced"] == 7.0
        assert [p.pattern_key for p in wh.top_patterns()] == ["new"]

    def test_ingest_creates_run_row_implicitly(self, wh):
        wh.ingest_session("r-implicit", "A", "s0", make_stats(), ts=500.0)
        runs = wh.runs()
        assert [run.run_id for run in runs] == ["r-implicit"]
        assert runs[0].sessions == 1

    def test_record_run_upsert_keeps_nonempty_fields(self, wh):
        wh.record_run("r1", label="seed=1", threshold_ms=100.0, ts=10.0)
        wh.record_run("r1", source="spool", ts=20.0)
        run = wh.runs()[0]
        assert run.label == "seed=1"
        assert run.source == "spool"
        assert run.threshold_ms == 100.0

    def test_hostile_identifiers_round_trip(self, wh):
        # Identifiers come straight off the wire; parameterized SQL
        # must treat them as opaque values, never syntax.
        hostile = [
            "app'; DROP TABLE sessions; --",
            '"double" OR 1=1',
            "../../../etc/passwd",
            "名前 app",
        ]
        for index, app in enumerate(hostile):
            assert wh.ingest_session(
                f"run' --{index}", app, f"s'{index}", make_stats(app=app),
                pattern_counts={"k\"'": (1, 1)},
            )
        aggs = wh.aggregate()
        assert sorted(agg.application for agg in aggs) == sorted(hostile)
        # The table survived the attempted injection.
        assert len(session_rows(wh)) == len(hostile)
        assert wh.aggregate(apps=[hostile[0]])[0].sessions == 1


# ----------------------------------------------------------------------
# Parity with LagAlyzer.summaries over the golden corpus
# ----------------------------------------------------------------------


class TestGoldenParity:
    def test_ingest_trace_rows_match_summaries(self, wh, golden):
        for trace in golden.traces:
            assert wh.ingest_trace(trace, "golden", golden.config)
        summary = golden.summaries(INGEST_ANALYSES)["statistics"]
        rows = session_rows(wh)
        assert len(rows) == len(summary.rows)
        by_session = {row["session_id"]: row for row in rows}
        for trace, stats in zip(golden.traces, summary.rows):
            row = by_session[trace.metadata.session_id]
            for name in SessionStats._NUMERIC_FIELDS:
                assert row[name] == getattr(stats, name), name

    def test_pattern_totals_match_merged_partials(self, wh, golden):
        for trace in golden.traces:
            wh.ingest_trace(trace, "golden", golden.config)
        merged = merged_pattern_counts(golden_partials(golden))
        top = wh.top_patterns(n=10_000)
        assert {
            p.pattern_key: (p.occurrences, p.perceptible) for p in top
        } == merged

    def test_aggregate_matches_summaries_totals(self, wh, golden):
        for trace in golden.traces:
            wh.ingest_trace(trace, "golden", golden.config)
        summary = golden.summaries(INGEST_ANALYSES)["statistics"]
        agg = wh.aggregate()[0]
        assert agg.application == APPLICATION
        assert agg.sessions == len(summary.rows)
        assert agg.traced_episodes == int(
            sum(row.traced for row in summary.rows)
        )
        assert agg.perceptible_episodes == int(
            sum(row.perceptible for row in summary.rows)
        )
        assert agg.total_e2e_s == pytest.approx(
            sum(row.e2e_s for row in summary.rows)
        )
        assert agg.mean_long_per_min == pytest.approx(
            summary.mean.long_per_min
        )
        assert agg.perceptible_rate == pytest.approx(
            sum(row.perceptible for row in summary.rows)
            / sum(row.traced for row in summary.rows)
        )

    def test_threshold_variant_changes_fingerprint_not_parity(
        self, wh, golden
    ):
        strict = AnalysisConfig(perceptible_threshold_ms=150.0)
        analyzer = LagAlyzer.from_traces(golden.traces, config=strict)
        for trace in analyzer.traces:
            wh.ingest_trace(trace, "strict", strict)
        summary = analyzer.summaries(INGEST_ANALYSES)["statistics"]
        agg = wh.aggregate()[0]
        assert agg.perceptible_episodes == int(
            sum(row.perceptible for row in summary.rows)
        )
        assert config_fingerprint(strict) != config_fingerprint(golden.config)
        fingerprints = {
            row["run_id"] for row in session_rows(wh)
        }
        assert fingerprints == {"strict"}

    def test_bundle_compaction_equals_direct_ingest(
        self, tmp_path, golden
    ):
        fingerprint = config_fingerprint(golden.config)
        engine = AnalysisEngine(workers=WORKERS, cache_dir=tmp_path / "cache")
        engine.map_traces(INGEST_ANALYSES, golden.traces, golden.config)

        compacted = StudyWarehouse(tmp_path / "compacted.sqlite")
        counters = compacted.ingest_bundles(
            ResultCache(tmp_path / "cache"), "golden",
            config_fingerprint=fingerprint,
        )
        assert counters == {
            "ingested": len(golden.traces), "skipped": 0, "ineligible": 0,
        }

        direct = StudyWarehouse(tmp_path / "direct.sqlite")
        for trace in golden.traces:
            direct.ingest_trace(trace, "golden", golden.config)

        assert [a.as_dict() for a in compacted.aggregate()] == [
            a.as_dict() for a in direct.aggregate()
        ]
        assert [p.as_dict() for p in compacted.top_patterns(n=10_000)] == [
            p.as_dict() for p in direct.top_patterns(n=10_000)
        ]
        # Re-sweeping the same cache is a pure dedup no-op.
        again = compacted.ingest_bundles(
            ResultCache(tmp_path / "cache"), "golden",
            config_fingerprint=fingerprint,
        )
        assert again == {
            "ingested": 0, "skipped": len(golden.traces), "ineligible": 0,
        }

    def test_bundle_filters_narrow_the_sweep(self, tmp_path, golden):
        engine = AnalysisEngine(workers=1, cache_dir=tmp_path / "cache")
        engine.map_traces(INGEST_ANALYSES, golden.traces, golden.config)
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        wrong_fp = wh.ingest_bundles(
            ResultCache(tmp_path / "cache"), "r",
            config_fingerprint="not-a-real-fingerprint",
        )
        assert wrong_fp["ingested"] == 0
        assert wrong_fp["ineligible"] == len(golden.traces)
        wrong_app = wh.ingest_bundles(
            ResultCache(tmp_path / "cache"), "r",
            applications=["SomeOtherApp"],
        )
        assert wrong_app["ingested"] == 0

    def test_worker_counts_agree_exactly(self, tmp_path, golden):
        """The acceptance pin: regression diffs (and everything under
        them) reproduce identically across worker counts."""
        stores = {}
        for label, workers in (("serial", 1), ("pooled", WORKERS)):
            cache_dir = tmp_path / f"cache-{label}"
            engine = AnalysisEngine(workers=workers, cache_dir=cache_dir)
            engine.map_traces(INGEST_ANALYSES, golden.traces, golden.config)
            store = StudyWarehouse(tmp_path / f"{label}.sqlite")
            store.record_run("golden", ts=1000.0)
            store.ingest_bundles(
                ResultCache(cache_dir), "golden",
                config_fingerprint=config_fingerprint(golden.config),
                ts=1000.0,
            )
            stores[label] = store
        serial, pooled = stores["serial"], stores["pooled"]
        assert session_rows(serial) == session_rows(pooled)
        assert [p.as_dict() for p in serial.top_patterns(n=10_000)] == [
            p.as_dict() for p in pooled.top_patterns(n=10_000)
        ]
        diff_serial = serial.regression(["golden"], ["golden"])
        diff_pooled = pooled.regression(["golden"], ["golden"])
        assert diff_serial.as_dict() == diff_pooled.as_dict()


# ----------------------------------------------------------------------
# iter_bundles — the compaction surface the warehouse consumes
# ----------------------------------------------------------------------


class TestIterBundles:
    def test_order_is_deterministic_ascending(self, cache):
        first = [record.key for record in cache.iter_bundles()]
        second = [record.key for record in cache.iter_bundles()]
        assert first == second == sorted(first)
        assert len(first) == len(TRACE_PATHS)

    def test_meta_carries_provenance(self, cache, golden):
        fingerprint = config_fingerprint(golden.config)
        sessions = set()
        for record in cache.iter_bundles():
            meta = record.meta
            assert meta["application"] == APPLICATION
            assert meta["config_fingerprint"] == fingerprint
            assert meta["threshold_ms"] == THRESHOLD_MS
            assert meta["analyses"] == sorted(INGEST_ANALYSES)
            assert meta["trace_digest"]
            assert meta["plan_fingerprint"]
            assert set(record.partials) == set(INGEST_ANALYSES)
            sessions.add(meta["session_id"])
        assert sessions == {
            trace.metadata.session_id for trace in golden.traces
        }

    def test_corrupt_entry_skipped_and_discarded(self, cache):
        path = sorted((cache.root / "bundles").rglob("*.pkl"))[0]
        path.write_bytes(b"not a cache entry")
        keys = [record.key for record in cache.iter_bundles()]
        assert len(keys) == len(TRACE_PATHS) - 1
        assert path.stem not in keys
        assert not path.exists()  # corrupt entries are reclaimed

    def test_bundle_parts_accepts_legacy_raw_bundles(self):
        legacy = {"statistics": make_stats()}
        meta, partials = bundle_parts(legacy)
        assert meta is None
        assert partials is legacy
        meta, partials = bundle_parts(
            bundle_envelope({"statistics": 1}, {"application": "A"})
        )
        assert meta == {"application": "A"}
        assert partials == {"statistics": 1}
        assert bundle_parts("garbage") == (None, None)


# ----------------------------------------------------------------------
# Warm re-compaction: bundles a run already holds stay unopened
# ----------------------------------------------------------------------

#: Two applications, so an application filter can exclude a stored row.
MIXED_PATHS = (TRACE_PATHS[:2], [GOLDEN_DIR / "IndexBuilder-session-0.lila"])


class ReadEveryBundle:
    """The cache, swept as before rows recorded bundle keys: every entry
    is opened, whatever ``skip`` would accept. The counters and rows of
    a sweep that skips must equal this sweep's."""

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache

    def iter_bundles(self, skip=None):
        return self.cache.iter_bundles()


def warehouse_state(wh: StudyWarehouse) -> list:
    return [
        wh._rows(f"SELECT * FROM {table} ORDER BY {order}")
        for table, order in (
            ("sessions", "run_id, app, session_id"),
            ("patterns", "run_id, app, session_id, pattern_key"),
            ("causes", "run_id, app, session_id, label"),
            ("pattern_rollup", "run_id, app, pattern_key"),
            ("cause_rollup", "run_id, label, app"),
        )
    ]


class TestWarmRecompaction:
    @pytest.fixture()
    def mixed(self, tmp_path) -> ResultCache:
        """A cache holding one ingest bundle of each of three traces of
        two applications."""
        engine = AnalysisEngine(workers=1, cache_dir=tmp_path / "cache")
        for paths in MIXED_PATHS:
            analyzer = LagAlyzer.load(
                paths,
                config=AnalysisConfig(perceptible_threshold_ms=THRESHOLD_MS),
            )
            engine.map_traces(INGEST_ANALYSES, analyzer.traces, analyzer.config)
        return ResultCache(tmp_path / "cache")

    @pytest.fixture()
    def opened(self, monkeypatch) -> list:
        """The key of every cache entry read, in reading order."""
        keys: list = []
        real_read = ResultCache._read

        def counting(cache, path, key):
            keys.append(key)
            return real_read(cache, path, key)

        monkeypatch.setattr(ResultCache, "_read", counting)
        return keys

    @staticmethod
    def compacted(tmp_path, cache) -> StudyWarehouse:
        wh = StudyWarehouse(tmp_path / "study.sqlite")
        assert wh.ingest_bundles(cache, "r", ts=1000.0)["ingested"] == 3
        return wh

    @staticmethod
    def sweep(tmp_path, wh, cache, opened, **filters) -> tuple:
        """``(counters, keys opened)`` of one sweep of ``cache`` into
        ``wh``, after checking its counters and resulting rows against
        the same sweep, every bundle read, into a copy of ``wh``."""
        index = len(list(tmp_path.glob("reference-*.sqlite")))
        reference = StudyWarehouse(tmp_path / f"reference-{index}.sqlite")
        source = sqlite3.connect(str(wh.path))
        target = sqlite3.connect(str(reference.path))
        try:
            source.backup(target)
        finally:
            source.close()
            target.close()
        want = reference.ingest_bundles(
            ReadEveryBundle(cache), "r", ts=1000.0, **filters
        )
        opened.clear()
        got = wh.ingest_bundles(cache, "r", ts=1000.0, **filters)
        assert got == want
        assert warehouse_state(wh) == warehouse_state(reference)
        return got, list(opened)

    def test_second_sweep_opens_no_bundle(self, tmp_path, mixed, opened):
        wh = self.compacted(tmp_path, mixed)
        assert len(opened) == 3
        assert self.sweep(tmp_path, wh, mixed, opened) == (
            {"ingested": 0, "skipped": 3, "ineligible": 0}, [],
        )

    @pytest.mark.parametrize(
        "filters, counters",
        (
            ({"applications": ["CrosswordSage"]},
             {"ingested": 0, "skipped": 2, "ineligible": 1}),
            ({"config_fingerprint": "not-a-real-fingerprint"},
             {"ingested": 0, "skipped": 0, "ineligible": 3}),
            ({"config_fingerprint": config_fingerprint(
                AnalysisConfig(perceptible_threshold_ms=THRESHOLD_MS))},
             {"ingested": 0, "skipped": 3, "ineligible": 0}),
        ),
        ids=("application-excluded", "fingerprint-mismatch", "fingerprint-match"),
    )
    def test_filters_count_a_held_bundle_as_reading_it_would(
        self, tmp_path, mixed, opened, filters, counters
    ):
        wh = self.compacted(tmp_path, mixed)
        assert self.sweep(tmp_path, wh, mixed, opened, **filters) == (
            counters, [],
        )

    def test_a_deleted_bundle_counts_nothing(self, tmp_path, mixed, opened):
        wh = self.compacted(tmp_path, mixed)
        sorted((mixed.root / "bundles").rglob("*.pkl"))[0].unlink()
        assert self.sweep(tmp_path, wh, mixed, opened) == (
            {"ingested": 0, "skipped": 2, "ineligible": 0}, [],
        )

    @pytest.mark.parametrize("source", ("trace", "spool"))
    def test_a_row_replaced_from_another_source_is_read_again(
        self, tmp_path, mixed, opened, source
    ):
        wh = self.compacted(tmp_path, mixed)
        ((session_id, key),) = wh._rows(
            "SELECT session_id, bundle_key FROM sessions"
            " WHERE app = 'CrosswordSage' ORDER BY session_id LIMIT 1"
        )
        config = AnalysisConfig(perceptible_threshold_ms=THRESHOLD_MS)
        other = TRACE_PATHS[2]
        if source == "trace":
            replaced = wh.ingest_trace(
                LagAlyzer.load([other], config=config).traces[0], "r", config,
                session_id=session_id,
            )
        else:
            replaced = wh.ingest_spool(other, "r", config, session_id=session_id)
        assert replaced
        assert wh._rows(
            "SELECT bundle_key FROM sessions"
            " WHERE app = 'CrosswordSage' AND session_id = ?", (session_id,)
        ) == [("",)]
        assert self.sweep(tmp_path, wh, mixed, opened) == (
            {"ingested": 1, "skipped": 2, "ineligible": 0}, [key],
        )
        assert self.sweep(tmp_path, wh, mixed, opened)[1] == []

    @pytest.mark.parametrize("extra_key", ("0" * 64, "f" * 64))
    def test_two_bundles_of_one_session_replace_it_in_key_order(
        self, tmp_path, mixed, opened, extra_key
    ):
        """A second bundle of a session, of another digest, replaces its
        row and the first replaces it back on every sweep: a key the
        sweep has since written over no longer vouches for the row."""
        first = next(mixed.iter_bundles())
        meta = dict(first.meta, trace_digest="another-digest")
        mixed.put_bundle(extra_key, bundle_envelope(first.partials, meta))
        wh = StudyWarehouse(tmp_path / "study.sqlite")
        assert wh.ingest_bundles(mixed, "r", ts=1000.0)["ingested"] == 4
        counters, keys = self.sweep(tmp_path, wh, mixed, opened)
        assert counters == {"ingested": 2, "skipped": 2, "ineligible": 0}
        assert sorted(keys) == sorted((first.key, extra_key))

    def test_a_v7_file_learns_its_keys_on_its_first_sweep(
        self, tmp_path, mixed, opened
    ):
        current = self.compacted(tmp_path, mixed)
        path = tmp_path / "v7.sqlite"
        connection = sqlite3.connect(str(path))
        try:
            for script in MIGRATIONS[:7]:
                connection.executescript(script)
            connection.execute(
                "INSERT INTO meta (key, value)"
                " VALUES ('study_schema_version', '7')"
            )
            # The rows as the v7 write path left them: no bundle key.
            connection.execute("ATTACH DATABASE ? AS v8", (str(current.path),))
            columns = [
                row[1] for row in connection.execute(
                    "PRAGMA v8.table_info(sessions)"
                ) if row[1] != "bundle_key"
            ]
            for table, names in (
                ("runs", "*"), ("sessions", ", ".join(columns)),
                ("patterns", "*"), ("causes", "*"),
            ):
                into = "" if names == "*" else f" ({names})"
                connection.execute(
                    f"INSERT INTO main.{table}{into} SELECT {names}"
                    f" FROM v8.{table}"
                )
            connection.commit()
        finally:
            connection.close()
        v7 = StudyWarehouse(path)
        assert v7.schema_version() == SCHEMA_VERSION
        held = "SELECT app, session_id, bundle_key FROM sessions ORDER BY app, session_id"
        assert {key for _, _, key in v7._rows(held)} == {""}
        counters, keys = self.sweep(tmp_path, v7, mixed, opened)
        assert counters == {"ingested": 0, "skipped": 3, "ineligible": 0}
        assert len(keys) == 3
        assert v7._rows(held) == current._rows(held)
        assert self.sweep(tmp_path, v7, mixed, opened)[1] == []


# ----------------------------------------------------------------------
# Query semantics
# ----------------------------------------------------------------------


class TestQueries:
    @pytest.fixture()
    def seeded(self, wh) -> StudyWarehouse:
        wh.record_run("base", ts=1000.0)
        wh.record_run("cand", ts=2000.0)
        wh.ingest_session(
            "base", "Alpha", "s0",
            make_stats("Alpha", traced=100.0, perceptible=5.0,
                       e2e_s=60.0, long_per_min=1.0),
            pattern_counts={"p/hot": (10, 4), "p/cold": (20, 0)},
            trace_digest="a0", ts=1000.0,
        )
        wh.ingest_session(
            "base", "Beta", "s0",
            make_stats("Beta", traced=50.0, perceptible=10.0,
                       e2e_s=30.0, long_per_min=3.0),
            pattern_counts={"p/hot": (8, 4), "p/beta": (1, 1)},
            trace_digest="b0", ts=1060.0,
        )
        wh.ingest_session(
            "cand", "Alpha", "s1",
            make_stats("Alpha", traced=100.0, perceptible=30.0,
                       e2e_s=60.0, long_per_min=5.0),
            pattern_counts={"p/hot": (12, 9)},
            trace_digest="a1", ts=5000.0,
        )
        return wh

    def test_aggregate_groups_by_app(self, seeded):
        aggs = seeded.aggregate()
        assert [agg.application for agg in aggs] == ["Alpha", "Beta"]
        alpha = aggs[0]
        assert alpha.sessions == 2
        assert alpha.traced_episodes == 200
        assert alpha.perceptible_episodes == 35
        assert alpha.total_e2e_s == pytest.approx(120.0)
        assert alpha.mean_long_per_min == pytest.approx(3.0)
        assert alpha.perceptible_rate == pytest.approx(35 / 200)

    def test_aggregate_filters(self, seeded):
        assert [
            agg.application for agg in seeded.aggregate(apps=["Beta"])
        ] == ["Beta"]
        base_only = seeded.aggregate(run_ids=["base"])
        assert [agg.sessions for agg in base_only] == [1, 1]
        assert [
            agg.application for agg in seeded.aggregate(since_ts=4000.0)
        ] == ["Alpha"]
        assert seeded.aggregate(apps=["Nope"]) == []

    def test_top_patterns_perceptible_ranking(self, seeded):
        top = seeded.top_patterns(n=2, metric="perceptible_lag")
        assert [(p.application, p.pattern_key) for p in top] == [
            ("Alpha", "p/hot"), ("Beta", "p/hot"),
        ]
        assert top[0].perceptible == 13
        assert top[0].occurrences == 22
        assert top[0].sessions == 2

    def test_top_patterns_occurrence_ranking(self, seeded):
        top = seeded.top_patterns(metric="occurrences")
        assert (top[0].application, top[0].pattern_key) == ("Alpha", "p/hot")
        assert (top[1].application, top[1].pattern_key) == ("Alpha", "p/cold")

    def test_top_patterns_tie_break_is_lexicographic(self, wh):
        for app in ("B", "A"):
            wh.ingest_session(
                "r", app, "s", make_stats(app),
                pattern_counts={"k": (3, 1)}, trace_digest=app,
            )
        top = wh.top_patterns()
        assert [p.application for p in top] == ["A", "B"]

    def test_top_patterns_counts_sessions_whose_ids_contain_slashes(self, wh):
        # Run "r/x" session "s" and run "r" session "x/s" are distinct
        # sessions, though both read "r/x/s" once joined with a slash.
        for run_id, session_id in (("r/x", "s"), ("r", "x/s")):
            wh.ingest_session(
                run_id, "App", session_id, make_stats("App"),
                pattern_counts={"k": (1, 0)}, trace_digest=run_id,
            )
        (top,) = wh.top_patterns()
        assert (top.pattern_key, top.occurrences, top.sessions) == ("k", 2, 2)

    def test_top_patterns_unknown_metric_raises(self, seeded):
        with pytest.raises(StudyWarehouseError, match="unknown pattern metric"):
            seeded.top_patterns(metric="vibes")

    def test_series_buckets_by_ingest_time(self, seeded):
        points = seeded.series(metric="perceptible", bucket="hour")
        assert [
            (p.application, p.bucket_ts, p.sessions, p.value) for p in points
        ] == [
            ("Alpha", 0.0, 1, 5.0),
            ("Alpha", 3600.0, 1, 30.0),
            ("Beta", 0.0, 1, 10.0),
        ]
        by_minute = seeded.series(metric="perceptible", bucket="minute")
        assert len(by_minute) == 3
        assert by_minute[0].bucket_ts == 960.0

    def test_series_rate_metric(self, seeded):
        points = seeded.series(metric="perceptible_rate", bucket="day")
        assert points[0].value == pytest.approx(35 / 200)

    def test_series_rejects_unknown_inputs(self, seeded):
        with pytest.raises(StudyWarehouseError, match="unknown bucket"):
            seeded.series(bucket="fortnight")
        with pytest.raises(StudyWarehouseError, match="unknown metric"):
            seeded.series(metric="vibes")

    def test_regression_flags_worsened_app(self, seeded):
        report = seeded.regression(["base"], ["cand"])
        assert isinstance(report, RegressionReport)
        entries = {entry.application: entry for entry in report.entries}
        alpha = entries["Alpha"]
        assert alpha.baseline_value == pytest.approx(0.05)
        assert alpha.candidate_value == pytest.approx(0.30)
        assert alpha.regressed
        # Beta only exists in the baseline: candidate side reads 0.
        beta = entries["Beta"]
        assert beta.candidate_sessions == 0
        assert not beta.regressed
        assert report.regressed
        assert [e.application for e in report.regressions] == ["Alpha"]

    def test_regression_min_delta_is_strict(self, seeded):
        report = seeded.regression(["base"], ["cand"], min_delta=0.25)
        assert not report.entries[0].regressed  # delta == min_delta
        assert not report.regressed
        report = seeded.regression(["base"], ["cand"], min_delta=0.2499)
        assert report.regressed

    def test_regression_missing_warehouse_is_empty(self, tmp_path):
        report = StudyWarehouse(tmp_path / "nope.sqlite").regression(
            ["a"], ["b"]
        )
        assert report.entries == []
        assert not report.regressed

    def test_queries_on_missing_file_return_empty(self, tmp_path):
        wh = StudyWarehouse(tmp_path / "absent.sqlite")
        assert wh.runs() == []
        assert wh.aggregate() == []
        assert wh.top_patterns() == []
        assert wh.series() == []
        assert wh.prune(max_age_s=1.0) == 0
        assert wh.quarantine_corrupt() == 0
        assert wh.quarantined() == []
        assert not wh.path.exists()  # queries never create the file


# ----------------------------------------------------------------------
# Work budgets: SQLite VM steps, which repeat exactly where wall time
# does not
# ----------------------------------------------------------------------


class TestWorkBudget:
    """``top_patterns`` reads ``pattern_rollup``, one row per (run, app,
    pattern key), instead of summing every session's ``patterns`` rows
    (:func:`oracle.reference_top_patterns`, the v5 statement). On a file
    where sessions repeat their application's patterns, as a study's
    do, that must halve the VM steps at least. A run holds one rollup
    row per (app, pattern key), so a one-run ``top_patterns`` must also
    take under half the steps of the v6 statement that sums the rollup
    with a ``GROUP BY`` (:func:`oracle.reference_rollup_top_patterns`).
    The budgets are relative: step counts depend on the SQLite build."""

    #: Steps per progress-handler call.
    GRANULARITY = 100

    @pytest.fixture(scope="class")
    def study_file(self, tmp_path_factory) -> Path:
        """2 runs x 3 apps x 12 sessions, each session 20 of its app's
        30 pattern keys (1,440 pattern rows, 180 rollup rows)."""
        import random

        rng = random.Random(7)
        wh = StudyWarehouse(tmp_path_factory.mktemp("budget") / "wh.sqlite")
        for run_id in ("r0", "r1"):
            for app in ("AppA", "AppB", "AppC"):
                for index in range(12):
                    keys = rng.sample(range(30), 20)
                    counts = {}
                    for key in keys:
                        count = rng.randint(1, 9)
                        counts[f"d(l{key})"] = (count, rng.randint(0, count))
                    wh.ingest_session(
                        run_id, app, f"s{index}", make_stats(app),
                        pattern_counts=counts,
                        trace_digest=f"{run_id}/{app}/{index}",
                    )
        return wh.path

    @pytest.fixture()
    def steps(self, monkeypatch):
        """``steps(call)``: ``call()``'s answer and the VM steps of every
        connection it opened, to the nearest :attr:`GRANULARITY`."""
        real_connect = sqlite3.connect
        ticks = [0]

        def tick() -> int:
            ticks[0] += 1
            return 0

        def counting(*args, **kwargs) -> sqlite3.Connection:
            connection = real_connect(*args, **kwargs)
            connection.set_progress_handler(tick, self.GRANULARITY)
            return connection

        monkeypatch.setattr(sqlite3, "connect", counting)

        def measure(call):
            ticks[0] = 0
            answer = call()
            return answer, ticks[0] * self.GRANULARITY

        return measure

    @pytest.mark.parametrize("metric", ("perceptible_lag", "occurrences"))
    @pytest.mark.parametrize(
        "run_ids", (None, ("r1",)), ids=("unfiltered", "run-filtered")
    )
    def test_top_patterns_takes_under_half_the_reference_steps(
        self, study_file, steps, metric, run_ids
    ):
        from oracle import reference_top_patterns

        wh = StudyWarehouse(study_file)
        wh.schema_version()
        answer, used = steps(lambda: wh.top_patterns(10, metric, None, run_ids))
        expected, budget = steps(
            lambda: reference_top_patterns(study_file, 10, metric, None, run_ids)
        )
        assert answer == expected
        assert len(answer) == 10
        assert 2 * used < budget, (used, budget)

    @pytest.mark.parametrize("metric", ("perceptible_lag", "occurrences"))
    def test_one_run_takes_under_half_the_rollup_group_by_steps(
        self, study_file, steps, metric
    ):
        from oracle import reference_rollup_top_patterns

        wh = StudyWarehouse(study_file)
        wh.schema_version()
        answer, used = steps(lambda: wh.top_patterns(10, metric, None, ["r1"]))
        expected, budget = steps(
            lambda: reference_rollup_top_patterns(
                study_file, 10, metric, None, ["r1"]
            )
        )
        assert answer == expected
        assert len(answer) == 10
        assert 2 * used < budget, (used, budget)

    def test_run_filtered_plan_searches_the_rollup_key(self, study_file):
        wh = StudyWarehouse(study_file)
        wh.schema_version()
        statements: list = []
        real_connect = sqlite3.connect

        def tracing(*args, **kwargs) -> sqlite3.Connection:
            connection = real_connect(*args, **kwargs)
            connection.set_trace_callback(statements.append)
            return connection

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sqlite3, "connect", tracing)
            assert wh.top_patterns(10, run_ids=["r1"])
        (sql,) = [s for s in statements if "pattern_rollup" in s]
        assert "FROM patterns" not in " ".join(statements)
        # Older Pythons trace the statement with its placeholders.
        params = ("r1", 10) if "?" in sql else ()
        connection = real_connect(str(study_file))
        try:
            plan = [
                row[3]
                for row in connection.execute("EXPLAIN QUERY PLAN " + sql, params)
            ]
        finally:
            connection.close()
        assert plan == [
            "SEARCH pattern_rollup USING PRIMARY KEY (run_id=?)",
            "USE TEMP B-TREE FOR ORDER BY",
        ]


# ----------------------------------------------------------------------
# Connections: one per public call, nested calls reuse it
# ----------------------------------------------------------------------


class TestConnections:
    @pytest.fixture()
    def connects(self, monkeypatch) -> list:
        """Every connection the store opens, in opening order."""
        opened: list = []
        real_connect = sqlite3.connect

        def counting(*args, **kwargs) -> sqlite3.Connection:
            opened.append(args[0])
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(warehouse_store.sqlite3, "connect", counting)
        return opened

    def test_diff_and_regression_open_one_connection(self, wh, connects):
        for run_id, ns in (("a", 5), ("b", 9)):
            wh.ingest_session(
                run_id, "App", "s0", make_stats(),
                causes={"gc:young": (ns, 1, 0, 0)}, trace_digest=run_id,
            )
        connects.clear()
        assert wh.diff("a", "b").deltas[0].delta_ns == 4
        assert len(connects) == 1
        connects.clear()
        assert len(wh.regression(["a"], ["b"]).entries) == 1
        assert len(connects) == 1

    def test_lone_ingest_session_opens_one_connection(self, wh, connects):
        assert wh.ingest_session("r", "App", "s0", make_stats())
        assert connects == [str(wh.path)]

    def test_ingest_bundles_shares_one_connection(self, wh, cache, connects):
        counters = wh.ingest_bundles(cache, "r")
        assert counters["ingested"] == len(TRACE_PATHS) >= 3
        assert len(connects) == 1
        assert len(session_rows(wh)) == len(TRACE_PATHS)

    def test_ingest_bundles_with_nothing_eligible_creates_no_file(
        self, wh, cache, connects
    ):
        counters = wh.ingest_bundles(cache, "r", applications=["Nope"])
        assert counters["ineligible"] == len(TRACE_PATHS)
        assert connects == []
        assert not wh.path.exists()

    def test_pickles_as_its_path(self, wh):
        wh.ingest_session("r", "App", "s0", make_stats())
        clone = pickle.loads(pickle.dumps(wh))
        assert clone.path == wh.path
        assert [agg.sessions for agg in clone.aggregate()] == [1]


# ----------------------------------------------------------------------
# Retention: prune
# ----------------------------------------------------------------------


class TestRetention:
    def seed_runs(self, wh) -> None:
        for run, ts in (("old", 100.0), ("mid", 1000.0), ("new", 2000.0)):
            wh.record_run(run, ts=ts)
            wh.ingest_session(
                run, "App", f"s-{run}", make_stats(),
                pattern_counts={"k": (2, 1)}, trace_digest=run, ts=ts,
            )

    def test_prune_by_age_cascades(self, wh):
        self.seed_runs(wh)
        assert wh.prune(max_age_s=1500.0, now=2100.0) == 1
        assert [run.run_id for run in wh.runs()] == ["mid", "new"]
        assert len(session_rows(wh)) == 2
        assert sum(p.occurrences for p in wh.top_patterns()) == 4

    def test_prune_keep_newest_n(self, wh):
        self.seed_runs(wh)
        assert wh.prune(keep_runs=1) == 2
        assert [run.run_id for run in wh.runs()] == ["new"]

    def test_prune_without_criteria_is_noop(self, wh):
        self.seed_runs(wh)
        assert wh.prune() == 0
        assert len(wh.runs()) == 3


# ----------------------------------------------------------------------
# Chaos: faults, deletion, corruption — degrade, never kill
# ----------------------------------------------------------------------


def _always(kind: str) -> FaultPlan:
    return FaultPlan(seed=7, rules=(FaultRule(kind=kind, probability=1.0),))


class TestChaos:
    def test_write_fault_raises_at_the_site(self, wh):
        with faults_runtime.installed(
            FaultInjector(_always("warehouse_write_error"))
        ):
            with pytest.raises(OSError, match="injected warehouse write"):
                wh.ingest_session("r", "App", "s0", make_stats())
        # Nothing half-written: the fault fires before any SQL runs.
        assert wh.aggregate() == []

    def test_write_fault_is_keyed_per_session(self, tmp_path):
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(
                    kind="warehouse_write_error",
                    at=("App/s0",),
                    probability=1.0,
                ),
            ),
        )
        with faults_runtime.installed(FaultInjector(plan)):
            with pytest.raises(OSError):
                wh.ingest_session("r", "App", "s0", make_stats())
            assert wh.ingest_session("r", "App", "s1", make_stats())
        assert [row["session_id"] for row in session_rows(wh)] == ["s1"]

    def test_study_survives_warehouse_write_faults(self, tmp_path):
        config = StudyConfig(
            applications=("CrosswordSage",), sessions=1, scale=0.05
        )
        with pytest.warns(RuntimeWarning, match="study results are unaffected"):
            result = run_study(
                config,
                workers=1,
                cache_dir=tmp_path / "cache",
                warehouse=tmp_path / "wh.sqlite",
                faults=_always("warehouse_write_error"),
            )
        # The study itself is whole; only the warehouse byproduct is short.
        assert list(result.apps) == ["CrosswordSage"]
        assert StudyWarehouse(tmp_path / "wh.sqlite").aggregate() == []

    def test_study_compacts_into_warehouse(self, tmp_path):
        config = StudyConfig(
            applications=("CrosswordSage",), sessions=2, scale=0.05
        )
        result = run_study(
            config,
            workers=WORKERS,
            cache_dir=tmp_path / "cache",
            warehouse=tmp_path / "wh.sqlite",
            warehouse_run_id="pinned-run",
        )
        wh = StudyWarehouse(tmp_path / "wh.sqlite")
        runs = wh.runs()
        assert [run.run_id for run in runs] == ["pinned-run"]
        assert runs[0].source == "bundles"
        assert runs[0].sessions == config.sessions
        agg = wh.aggregate()[0]
        stats = result.apps["CrosswordSage"].session_stats
        assert agg.traced_episodes == int(sum(row.traced for row in stats))
        assert agg.perceptible_episodes == int(
            sum(row.perceptible for row in stats)
        )

    def test_study_without_cache_warns_and_skips(self, tmp_path):
        config = StudyConfig(
            applications=("CrosswordSage",), sessions=1, scale=0.05
        )
        with pytest.warns(RuntimeWarning, match="needs use_cache=True"):
            run_study(
                config,
                workers=1,
                use_cache=False,
                cache_dir=tmp_path / "cache",
                warehouse=tmp_path / "wh.sqlite",
            )
        assert not (tmp_path / "wh.sqlite").exists()

    def test_mid_run_deletion_recreates_on_next_write(self, wh):
        wh.ingest_session("r", "App", "s0", make_stats(), trace_digest="a")
        wh.path.unlink()
        assert wh.ingest_session("r", "App", "s1", make_stats(),
                                 trace_digest="b")
        assert [row["session_id"] for row in session_rows(wh)] == ["s1"]

    def test_corrupt_session_rows_guarded_then_quarantined(self, wh):
        for app in ("Good", "Bad"):
            wh.ingest_session(
                "r", app, "s0", make_stats(traced=10.0),
                pattern_counts={f"k/{app}": (2, 1)}, trace_digest=app,
                causes={f"gc:{app}": (5, 1, 5, 1)},
            )
        connection = sqlite3.connect(str(wh.path))
        connection.execute(
            "UPDATE sessions SET traced = 'garbage' WHERE app = 'Bad'"
        )
        connection.commit()
        connection.close()
        # The guard keeps the tampered row out of every aggregate...
        assert [agg.application for agg in wh.aggregate()] == ["Good"]
        assert [p.application for p in wh.series()] == ["Good"]
        # ...and the sweep moves it aside, preserving the payload.
        assert wh.quarantine_corrupt(now=123.0) == 1
        assert wh.quarantined() == [("sessions", "non-numeric stats")]
        assert [row["app"] for row in session_rows(wh)] == ["Good"]
        # The swept session's pattern and cause rows leave with it.
        assert [p.application for p in wh.top_patterns()] == ["Good"]
        assert wh.cause_totals("r") == {"gc:Good": (5, 1)}
        connection = sqlite3.connect(str(wh.path))
        try:
            left = [
                connection.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE app = 'Bad'"
                ).fetchone()[0]
                for table in ("patterns", "causes", "cause_rollup")
            ]
        finally:
            connection.close()
        assert left == [0, 0, 0]

    def test_corrupt_pattern_rows_guarded_then_quarantined(self, wh):
        wh.ingest_session(
            "r", "App", "s0", make_stats(),
            pattern_counts={"good": (3, 1), "bad": (2, 2)}, trace_digest="d",
        )
        connection = sqlite3.connect(str(wh.path))
        connection.execute(
            "UPDATE patterns SET count = 'x' WHERE pattern_key = 'bad'"
        )
        connection.commit()
        connection.close()
        assert [p.pattern_key for p in wh.top_patterns()] == ["good"]
        assert wh.quarantine_corrupt() == 1
        assert wh.quarantined() == [("patterns", "non-numeric counts")]

    @pytest.mark.parametrize(
        "column", ("total_ns", "episodes", "perceptible_ns", "perceptible_episodes")
    )
    def test_corrupt_cause_rows_guarded_then_quarantined(self, wh, column):
        for run_id, session, causes in (
            ("a", "s0", {"gc:young": (5, 1, 5, 1), "io:disk": (3, 1, 0, 0)}),
            ("a", "s1", {"gc:young": (3, 1, 3, 1)}),
            ("b", "s0", {"gc:young": (8, 2, 8, 2), "io:disk": (1, 1, 0, 0)}),
        ):
            wh.ingest_session(
                run_id, "App", session, make_stats(),
                trace_digest=run_id + session, causes=causes,
            )
        connection = sqlite3.connect(str(wh.path))
        with connection:
            connection.execute(
                f"UPDATE causes SET {column} = 'x'"
                " WHERE run_id = 'a' AND session_id = 's0' AND label = 'gc:young'"
            )
        connection.close()
        # The rollup's guard already leaves the tampered row out of
        # both tallies...
        totals = wh.cause_totals("a")
        perceptible = wh.cause_totals("a", perceptible_only=True)
        report = wh.diff("a", "b")
        assert totals == {"gc:young": (3, 1), "io:disk": (3, 1)}
        assert perceptible == {"gc:young": (3, 1), "io:disk": (0, 0)}
        # ...and the sweep moves it aside without changing an answer.
        assert wh.quarantine_corrupt() == 1
        assert wh.quarantined() == [("causes", "non-numeric totals")]
        assert wh.cause_totals("a") == totals
        assert wh.cause_totals("a", perceptible_only=True) == perceptible
        assert wh.diff("a", "b") == report
        connection = sqlite3.connect(str(wh.path))
        try:
            labels = connection.execute(
                "SELECT run_id, session_id, label FROM causes"
                " ORDER BY run_id, session_id, label"
            ).fetchall()
        finally:
            connection.close()
        assert labels == [
            ("a", "s0", "io:disk"), ("a", "s1", "gc:young"),
            ("b", "s0", "gc:young"), ("b", "s0", "io:disk"),
        ]
        assert wh.quarantine_corrupt() == 0

    def test_quarantine_on_clean_warehouse_sweeps_nothing(self, wh):
        wh.ingest_session("r", "App", "s0", make_stats())
        assert wh.quarantine_corrupt() == 0
        assert wh.quarantined() == []


# ----------------------------------------------------------------------
# Property-based round trips (hypothesis)
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

session_values = st.tuples(
    st.integers(min_value=0, max_value=500),  # traced
    st.integers(min_value=0, max_value=500),  # perceptible (clamped below)
    st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),  # e2e_s
)

pattern_maps = st.dictionaries(
    st.sampled_from(["d", "d(l)", "d(p)", "d(l(d))", "d(p,l)"]),
    st.tuples(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=50),
    ).map(lambda pair: (pair[0], min(pair[0], pair[1]))),
    max_size=5,
)


class TestProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(sessions=st.lists(session_values, min_size=1, max_size=8))
    def test_aggregate_equals_python_sums(self, tmp_path, sessions):
        wh = StudyWarehouse(
            tmp_path / f"prop-{abs(hash(tuple(sessions)))}.sqlite"
        )
        for index, (traced, perceptible, e2e_s) in enumerate(sessions):
            perceptible = min(traced, perceptible)
            wh.ingest_session(
                "r", "App", f"s{index}",
                make_stats(
                    "App",
                    traced=float(traced),
                    perceptible=float(perceptible),
                    e2e_s=e2e_s,
                ),
                trace_digest=f"d{index}",
                ts=float(index),
            )
        agg = wh.aggregate()[0]
        assert agg.sessions == len(sessions)
        assert agg.traced_episodes == sum(t for t, _, _ in sessions)
        assert agg.perceptible_episodes == sum(
            min(t, p) for t, p, _ in sessions
        )
        assert agg.total_e2e_s == pytest.approx(
            sum(e for _, _, e in sessions)
        )
        total_traced = sum(t for t, _, _ in sessions)
        expected_rate = (
            agg.perceptible_episodes / total_traced if total_traced else 0.0
        )
        assert agg.perceptible_rate == pytest.approx(expected_rate)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(per_session=st.lists(pattern_maps, min_size=1, max_size=6))
    def test_top_patterns_equal_python_merge(self, tmp_path, per_session):
        wh = StudyWarehouse(
            tmp_path / f"prop-{abs(hash(str(per_session)))}.sqlite"
        )
        merged: dict = {}
        for index, counts in enumerate(per_session):
            wh.ingest_session(
                "r", "App", f"s{index}", make_stats(),
                pattern_counts=counts, trace_digest=f"d{index}",
            )
            for key, (count, perceptible) in counts.items():
                prev_count, prev_perceptible = merged.get(key, (0, 0))
                merged[key] = (
                    prev_count + count, prev_perceptible + perceptible
                )
        top = wh.top_patterns(n=1000)
        assert {
            p.pattern_key: (p.occurrences, p.perceptible) for p in top
        } == merged
        # Ranking is by perceptible count, non-increasing.
        perceptibles = [p.perceptible for p in top]
        assert perceptibles == sorted(perceptibles, reverse=True)


# ----------------------------------------------------------------------
# Concurrency: parallel writers, readers during maintenance
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_two_writers_interleave_without_loss(self, wh):
        errors: list = []

        def write(prefix: str) -> None:
            try:
                for index in range(12):
                    wh.ingest_session(
                        "r", f"App-{prefix}", f"s{index}", make_stats(),
                        pattern_counts={f"k{index}": (1, 0)},
                        trace_digest=f"{prefix}{index}",
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(prefix,))
            for prefix in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        aggs = wh.aggregate()
        assert [(agg.application, agg.sessions) for agg in aggs] == [
            ("App-a", 12), ("App-b", 12),
        ]

    def test_reader_survives_concurrent_maintenance(self, wh):
        wh.record_run("old", ts=10.0)
        for index in range(20):
            wh.ingest_session(
                "old", "App", f"s{index}", make_stats(),
                pattern_counts={"k": (1, 1)}, trace_digest=str(index),
                ts=10.0,
            )
        connection = sqlite3.connect(str(wh.path))
        with connection:
            connection.execute(
                "UPDATE sessions SET traced = 'x' WHERE session_id = 's0'"
            )
        connection.close()
        errors: list = []
        stop = threading.Event()

        def read() -> None:
            try:
                while not stop.is_set():
                    wh.aggregate()
                    wh.top_patterns()
                    wh.runs()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            assert wh.quarantine_corrupt() == 1
            wh.prune(max_age_s=10_000.0, now=1000.0)
        finally:
            stop.set()
            reader.join()
        assert errors == []
        assert wh.top_patterns()[0].occurrences == 19
