"""The study warehouse: a cross-session queryable store of analysis results.

Engine cache bundles and ingest spools answer "what did *this* trace
do?"; the study warehouse answers "which app regressed across the last
500 sessions?" (ROADMAP item 1). It is one SQLite file (stdlib
:mod:`sqlite3`, WAL mode) holding per-session Table III statistics and
per-session pattern occurrence counts, partitioned by run / application
/ session / config fingerprint, with query methods for cross-session
aggregates, top-N worst patterns, per-app time series, and before/after
regression diffs between two run sets.

Design rules (shared with :mod:`repro.obs.warehouse`):

- **Repository pattern, one connection per public call**, opened
  through :class:`repro.sqlitedb.SQLiteStore`: public methods a call
  makes on the same instance and thread (``ingest_bundles`` and
  ``ingest_spools`` -> ``ingest_session``) reuse it. Each session write
  still commits on its own, so a batch call's commits sit in the WAL
  (surviving a process kill) and are checkpointed when the call's
  connection closes.
- **One session-replace step.** Every write that changes a session's
  rows (``ingest_session``, ``quarantine_corrupt``) goes through
  :meth:`StudyWarehouse._replace_rows`: delete the old pattern and
  cause rows, write the new ones.
- **Rollups kept by the schema.** SQLite triggers on ``patterns`` and
  ``causes`` keep ``pattern_rollup`` and ``cause_rollup`` in step with
  every insert, delete and update, whoever makes it; only rows that
  pass the numeric guard count. ``top_patterns``, ``cause_totals`` and
  ``diff`` read the rollups alone.
- **Parameterized SQL everywhere.** Application and session identifiers
  come straight off the ingest wire; they are always bound values,
  never spliced into statements.
- **Degrade, never kill.** A failed session write warns, counts
  ``warehouse.write_errors``, and lets the study run continue; corrupt
  rows are swept into a quarantine table, not served and not fatal.
- **Parity by construction.** :meth:`StudyWarehouse.ingest_trace` runs
  the same fused plan (:data:`INGEST_ANALYSES`: ``statistics``,
  ``occurrence`` and ``causes``) that :meth:`LagAlyzer.summaries` runs,
  and :meth:`ingest_bundles` compacts partials the engine already
  computed — so warehouse queries agree exactly with recomputing, which
  the parity tests pin.
"""

from __future__ import annotations

import sqlite3
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.statistics import SessionStats
from repro.faults import runtime as faults_runtime
from repro.obs import runtime as obs_runtime
from repro.sqlitedb import SQLiteStore
from repro.warehouse.schema import (
    CAUSE_GUARD,
    MIGRATIONS,
    PATTERN_GUARD,
    StudyWarehouseError,
    numeric,
)
from repro.warehouse.types import (
    AppAggregate,
    PatternAggregate,
    RegressionEntry,
    RegressionReport,
    RunRecord,
    SeriesPoint,
)

#: The fused plan a direct trace ingest runs — the same operators whose
#: partials :meth:`LagAlyzer.summaries` reduces for Table III rows,
#: pattern occurrence counts, and cause vectors.
INGEST_ANALYSES: Tuple[str, ...] = ("statistics", "occurrence", "causes")

#: Metrics the series / regression queries understand, mapped to the
#: SQL aggregate over ``sessions`` rows that computes them. Every one is
#: "higher is worse" for regression purposes.
METRICS: Dict[str, str] = {
    "perceptible_rate": "SUM(perceptible) * 1.0 / MAX(SUM(traced), 1)",
    "perceptible": "SUM(perceptible)",
    "traced": "SUM(traced)",
    "long_per_min": "AVG(long_per_min)",
    "e2e_s": "SUM(e2e_s)",
}

#: Display bucket widths accepted by :meth:`StudyWarehouse.series`.
BUCKET_WIDTHS: Dict[str, int] = {
    "minute": 60,
    "hour": 3600,
    "day": 86400,
}

#: SQL guard keeping corrupt (non-numeric) session rows out of every
#: aggregate — quarantine sweeps remove them, queries never trust them.
_NUMERIC_GUARD = numeric(("traced", "perceptible", "e2e_s", "long_per_min"))

#: ``sessions`` columns filled from :class:`SessionStats` fields.
_STAT_COLUMNS: Tuple[str, ...] = SessionStats._NUMERIC_FIELDS


def _cause_rows(partial: Any) -> Optional[Dict[str, Tuple[int, int, int, int]]]:
    """Flatten a ``causes`` partial into per-label warehouse rows.

    The partial is the analysis's dual tally (``all`` + ``perceptible``
    populations, each ``label -> (ns, episodes)``); the warehouse row is
    the four-column flattening. ``None`` (an old bundle without the
    causes analysis) stays ``None``.
    """
    if partial is None:
        return None
    all_tally = getattr(partial, "all", None)
    perceptible = getattr(partial, "perceptible", None) or {}
    if not isinstance(all_tally, dict):
        return None
    rows: Dict[str, Tuple[int, int, int, int]] = {}
    for label, (total_ns, episodes) in all_tally.items():
        p_ns, p_eps = perceptible.get(label, (0, 0))
        rows[label] = (int(total_ns), int(episodes), int(p_ns), int(p_eps))
    return rows


def _in(column: str, values: Sequence[Any]) -> str:
    """``column IN (?, ...)`` with one placeholder per value."""
    return f"{column} IN ({', '.join('?' * len(values))})"


def _metric_sql(metric: str) -> str:
    sql = METRICS.get(metric)
    if sql is None:
        known = ", ".join(sorted(METRICS))
        raise StudyWarehouseError(
            f"unknown metric {metric!r}; choose from {known}"
        )
    return sql


class StudyWarehouse(SQLiteStore):
    """One SQLite-backed study warehouse.

    Args:
        path: the database file (created, with parents, on first write).
    """

    BUSY_TIMEOUT_S = 10.0
    MIGRATIONS = MIGRATIONS
    VERSION_KEY = "study_schema_version"
    ERROR = StudyWarehouseError

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def record_run(
        self,
        run_id: str,
        label: str = "",
        source: str = "",
        config_fingerprint: str = "",
        threshold_ms: Optional[float] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Upsert one run row (idempotent; later calls refresh metadata)."""
        now = time.time() if ts is None else float(ts)
        with self._connection() as connect, connect() as connection:
            connection.execute(
                "INSERT INTO runs (run_id, label, source,"
                " config_fingerprint, threshold_ms, created_ts)"
                " VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(run_id) DO UPDATE SET"
                " label = CASE WHEN excluded.label != ''"
                "   THEN excluded.label ELSE label END,"
                " source = CASE WHEN excluded.source != ''"
                "   THEN excluded.source ELSE source END,"
                " config_fingerprint ="
                "   CASE WHEN excluded.config_fingerprint != ''"
                "   THEN excluded.config_fingerprint"
                "   ELSE config_fingerprint END,"
                " threshold_ms = COALESCE(excluded.threshold_ms,"
                "   threshold_ms)",
                (
                    run_id, label, source, config_fingerprint,
                    threshold_ms, now,
                ),
            )

    def ingest_session(
        self,
        run_id: str,
        app: str,
        session_id: str,
        stats: SessionStats,
        pattern_counts: Optional[Dict[str, Tuple[int, int]]] = None,
        excluded: int = 0,
        trace_digest: str = "",
        config_fingerprint: str = "",
        records: int = 0,
        ts: Optional[float] = None,
        family: str = "gui",
        causes: Any = None,
        bundle_key: str = "",
    ) -> bool:
        """Store one session's summary + pattern + cause rows.

        ``family`` is the workload family the session's trace declared;
        ``causes`` maps cause labels to ``(total_ns, episodes,
        perceptible_ns, perceptible_episodes)`` — the session's
        self-time attribution, the substrate of :meth:`diff`. It may
        also be the ``causes`` analysis partial those rows flatten
        from, which is flattened only when the session is written.
        ``bundle_key`` is the result-cache key of the bundle these
        values came from (:meth:`ingest_bundles` passes it; ``''`` for
        any other source).

        Dedup contract: re-ingesting a ``(run, app, session)`` whose
        stored ``trace_digest`` matches is a no-op returning ``False``;
        a *different* digest (the session was re-traced) replaces the
        row and its pattern/cause rows (:meth:`_replace_rows`). Returns
        ``True`` when rows changed. The rollup rows of the run and app
        move with the pattern and cause rows, in the same transaction.
        A dedup that brings a ``bundle_key`` to a row that records none
        under the same ``config_fingerprint`` records the key and
        changes nothing else.

        Raises:
            OSError, sqlite3.Error: the write failed — callers that sit
                inside a study run catch these, warn, and continue (the
                warehouse is a byproduct, never a point of failure).
        """
        faults_runtime.check("warehouse.write", key=f"{app}/{session_id}")
        now = time.time() if ts is None else float(ts)
        with self._connection() as connect:
            connection = connect()
            existing = connection.execute(
                "SELECT trace_digest, bundle_key, config_fingerprint"
                " FROM sessions WHERE run_id = ? AND app = ? AND session_id = ?",
                (run_id, app, session_id),
            ).fetchone()
            if existing is not None and existing[0] == trace_digest:
                if bundle_key and existing[1:] == ("", config_fingerprint):
                    with connection:
                        connection.execute(
                            "UPDATE sessions SET bundle_key = ?"
                            " WHERE run_id = ? AND app = ? AND session_id = ?",
                            (bundle_key, run_id, app, session_id),
                        )
                return False
            if causes is not None and not isinstance(causes, dict):
                causes = _cause_rows(causes)
            stat_values = [float(getattr(stats, name)) for name in _STAT_COLUMNS]
            with connection:
                connection.execute(
                    "INSERT OR IGNORE INTO runs (run_id, created_ts)"
                    " VALUES (?, ?)",
                    (run_id, now),
                )
                connection.execute(
                    "INSERT INTO sessions (run_id, app, session_id,"
                    " trace_digest, config_fingerprint, ingested_ts,"
                    " records, excluded_episodes, family, bundle_key, "
                    + ", ".join(_STAT_COLUMNS)
                    + ") VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                    + ", ".join("?" for _ in _STAT_COLUMNS)
                    + ") ON CONFLICT(run_id, app, session_id) DO UPDATE SET"
                    " trace_digest = excluded.trace_digest,"
                    " config_fingerprint = excluded.config_fingerprint,"
                    " ingested_ts = excluded.ingested_ts,"
                    " records = excluded.records,"
                    " excluded_episodes = excluded.excluded_episodes,"
                    " family = excluded.family,"
                    " bundle_key = excluded.bundle_key, "
                    + ", ".join(
                        f"{name} = excluded.{name}" for name in _STAT_COLUMNS
                    ),
                    [
                        run_id, app, session_id, trace_digest,
                        config_fingerprint, now, int(records), int(excluded),
                        str(family), str(bundle_key),
                    ]
                    + stat_values,
                )
                self._replace_rows(
                    connection,
                    (run_id, app, session_id),
                    [
                        (str(key), int(pair[0]), int(pair[1]))
                        for key, pair in sorted((pattern_counts or {}).items())
                    ],
                    [
                        (
                            str(label), int(row[0]), int(row[1]),
                            int(row[2]), int(row[3]),
                        )
                        for label, row in sorted((causes or {}).items())
                    ],
                )
        obs_runtime.count("warehouse.sessions_ingested")
        return True

    @staticmethod
    def _replace_rows(
        connection: sqlite3.Connection,
        key: Tuple[str, str, str],
        pattern_rows: Sequence[Tuple[str, int, int]] = (),
        cause_rows: Sequence[Tuple[str, int, int, int, int]] = (),
    ) -> None:
        """Replace one (run, app, session)'s pattern and cause rows.

        Runs inside the caller's transaction: both tables' old rows are
        deleted and the new ones written, ``(pattern_key, count,
        perceptible)`` and ``(label, total_ns, episodes,
        perceptible_ns, perceptible_episodes)``. The schema's triggers
        move ``pattern_rollup`` and ``cause_rollup`` with each row. With
        no new rows, the session's rows leave every table.
        """
        for table in ("patterns", "causes"):
            connection.execute(
                f"DELETE FROM {table} WHERE run_id = ? AND app = ?"
                " AND session_id = ?",
                key,
            )
        connection.executemany(
            "INSERT INTO patterns (run_id, app, session_id,"
            " pattern_key, count, perceptible)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            [key + row for row in pattern_rows],
        )
        connection.executemany(
            "INSERT INTO causes (run_id, app, session_id,"
            " label, total_ns, episodes, perceptible_ns,"
            " perceptible_episodes)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [key + row for row in cause_rows],
        )

    def ingest_trace(
        self,
        trace: Any,
        run_id: str,
        config: Any,
        records: int = 0,
        ts: Optional[float] = None,
        session_id: Optional[str] = None,
    ) -> bool:
        """Analyze one trace with the ingest plan and store the session.

        Runs the same fused pass of :data:`INGEST_ANALYSES` the engine
        runs, so the stored row is value-identical to what
        :meth:`LagAlyzer.summaries` would reduce for this trace.

        ``session_id`` overrides the trace's own metadata session id —
        ingest daemons use their wire session id, which is unique per
        connection where trace metadata may not be.
        """
        from repro.core.family import family_name_of
        from repro.core.plan import build_plan
        from repro.engine.cache import config_fingerprint
        from repro.lila.digest import trace_digest

        partials = build_plan(INGEST_ANALYSES).execute(trace, config)
        stats = partials["statistics"]
        occurrence = partials["occurrence"]
        return self.ingest_session(
            run_id=run_id,
            app=trace.application,
            session_id=(
                session_id if session_id is not None
                else trace.metadata.session_id
            ),
            stats=stats,
            pattern_counts=occurrence.counts,
            excluded=occurrence.excluded,
            trace_digest=trace_digest(trace),
            config_fingerprint=config_fingerprint(config),
            records=records,
            ts=ts,
            family=family_name_of(trace.metadata),
            causes=partials.get("causes"),
        )

    def ingest_spool(
        self,
        spool_path: Union[str, Path],
        run_id: str,
        config: Any,
        ts: Optional[float] = None,
        session_id: Optional[str] = None,
    ) -> bool:
        """Analyze one ingest spool file and store its session.

        ``records`` is the spool's line count, matching the daemon's
        zero-loss ``records_flushed`` accounting.
        """
        from repro.lila.source import build_trace, open_source

        source = open_source(Path(spool_path))
        trace = build_trace(source)
        # Every flushed line lands in the spool verbatim, so the number
        # of the last line parsed is exactly the daemon's
        # ``records_flushed`` for the session — the zero-loss contract,
        # queryable after the fact.
        records = source.line or 0
        return self.ingest_trace(
            trace, run_id, config,
            records=records, ts=ts, session_id=session_id,
        )

    def ingest_spools(
        self,
        spools: Iterable[Tuple[str, Union[str, Path]]],
        run_id: str,
        config: Any,
    ) -> Dict[str, int]:
        """Compact ingest spools into one run, on one connection.

        The spool counterpart of :meth:`ingest_bundles`: ``spools``
        yields ``(session_id, spool_path)`` pairs (see
        :meth:`ingest_spool`), and :meth:`record_run`, which files the
        run under ``config``'s fingerprint and threshold, plus every
        session write share this call's connection, each session still
        committing on its own. A session that fails warns, counts
        ``warehouse.write_errors`` and is skipped; one damaged spool
        never loses the rest.

        Returns counters: ``{"ingested", "skipped", "failed"}`` —
        ``skipped`` are sessions already stored with the same digest.
        """
        from repro.engine.cache import config_fingerprint

        spools = list(spools)
        ingested = skipped = failed = 0
        with self._connection():
            try:
                self.record_run(
                    run_id,
                    source="spool",
                    config_fingerprint=config_fingerprint(config),
                    threshold_ms=getattr(
                        config, "perceptible_threshold_ms", None
                    ),
                )
            except Exception as error:
                warnings.warn(
                    f"study warehouse unavailable under {self.path}:"
                    f" {error} — spools are intact, compaction skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                obs_runtime.count("warehouse.write_errors")
                return {"ingested": 0, "skipped": 0, "failed": len(spools)}
            for session_id, spool_path in spools:
                try:
                    changed = self.ingest_spool(
                        spool_path, run_id, config, session_id=session_id,
                    )
                except Exception as error:
                    failed += 1
                    obs_runtime.count("warehouse.write_errors")
                    warnings.warn(
                        f"spool compaction failed for session "
                        f"{session_id!r}: {error} — spool kept at "
                        f"{spool_path}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                if changed:
                    ingested += 1
                else:
                    skipped += 1
        return {"ingested": ingested, "skipped": skipped, "failed": failed}

    def ingest_bundles(
        self,
        cache: Any,
        run_id: str,
        config_fingerprint: str = "",
        applications: Optional[Iterable[str]] = None,
        ts: Optional[float] = None,
    ) -> Dict[str, int]:
        """Compact a result cache's fused bundles into warehouse rows.

        Consumes :meth:`repro.engine.cache.ResultCache.iter_bundles`
        (the supported iteration surface — no globbing of cache
        internals). Only bundles that carry provenance meta *and* both
        ingest analyses are eligible; ``config_fingerprint`` /
        ``applications`` narrow the sweep to one study's bundles.

        A bundle whose key a session row of ``run_id`` records
        (``bundle_key``) is not opened. That row was written from the
        bundle, so it holds the bundle's application, digest and config
        fingerprint, and the bundle counts as reading it would count:
        ``ineligible`` when the filters exclude the row, else
        ``skipped``. Keys are looked up as the sweep reaches each
        bundle, so a row an earlier bundle of this sweep replaced no
        longer vouches for its old key.

        Returns counters: ``{"ingested", "skipped", "ineligible"}`` —
        ``skipped`` are eligible bundles already present (dedup),
        ``ineligible`` lack meta, lack the ingest analyses, or fail the
        filters.
        """
        wanted = set(applications) if applications is not None else None
        counts = {"ingested": 0, "skipped": 0, "ineligible": 0}
        with self._connection():
            # (app, session) -> (bundle_key, config_fingerprint) of each
            # of the run's rows, and the rows by recorded key, both kept
            # in step with this sweep's writes.
            rows = {
                (app, session_id): (key, fingerprint)
                for app, session_id, key, fingerprint in self._rows(
                    "SELECT app, session_id, bundle_key, config_fingerprint"
                    " FROM sessions WHERE run_id = ?",
                    (run_id,),
                )
            }
            held = {key: row for row, (key, _) in rows.items() if key}

            def filtered_out(app: Any, fingerprint: Any) -> bool:
                return bool(
                    config_fingerprint and fingerprint != config_fingerprint
                ) or (wanted is not None and app not in wanted)

            def already_held(key: str) -> bool:
                row = held.get(key)
                if row is None:
                    return False
                excluded = filtered_out(row[0], rows[row][1])
                counts["ineligible" if excluded else "skipped"] += 1
                return True

            for record in cache.iter_bundles(skip=already_held):
                meta = record.meta or {}
                app = meta.get("application")
                session_id = meta.get("session_id")
                stats = record.partials.get("statistics")
                occurrence = record.partials.get("occurrence")
                if (
                    not app
                    or not session_id
                    or not isinstance(stats, SessionStats)
                    or occurrence is None
                    or not hasattr(occurrence, "counts")
                    or filtered_out(app, meta.get("config_fingerprint"))
                ):
                    counts["ineligible"] += 1
                    continue
                row = (str(app), str(session_id))
                fingerprint = str(meta.get("config_fingerprint", ""))
                changed = self.ingest_session(
                    run_id=run_id,
                    app=row[0],
                    session_id=row[1],
                    stats=stats,
                    pattern_counts=occurrence.counts,
                    excluded=int(getattr(occurrence, "excluded", 0)),
                    trace_digest=str(meta.get("trace_digest", "")),
                    config_fingerprint=fingerprint,
                    ts=ts,
                    family=str(meta.get("family", "gui")),
                    causes=record.partials.get("causes"),
                    bundle_key=record.key,
                )
                if changed:
                    counts["ingested"] += 1
                    obs_runtime.count("warehouse.bundles_compacted")
                else:
                    counts["skipped"] += 1
                # The row now records this key if it was rewritten, or if
                # the dedup found it recording none under this config.
                old_key, old_fingerprint = rows.get(row, ("", None))
                if changed or (not old_key and old_fingerprint == fingerprint):
                    held.pop(old_key, None)
                    held[record.key] = row
                    rows[row] = (record.key, fingerprint)
        return counts

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @staticmethod
    def _filters(
        apps: Optional[Sequence[str]] = None,
        run_ids: Optional[Sequence[str]] = None,
        since_ts: Optional[float] = None,
        families: Optional[Sequence[str]] = None,
    ) -> Tuple[str, List[Any]]:
        """A parameterized WHERE tail from the common query filters."""
        clauses: List[str] = [_NUMERIC_GUARD]
        params: List[Any] = []
        if apps:
            clauses.append(_in("app", apps))
            params.extend(apps)
        if run_ids:
            clauses.append(_in("run_id", run_ids))
            params.extend(run_ids)
        if since_ts is not None:
            clauses.append("ingested_ts >= ?")
            params.append(float(since_ts))
        if families:
            clauses.append(_in("family", families))
            params.extend(families)
        return " AND ".join(clauses), params

    def runs(self) -> List[RunRecord]:
        """Every recorded run, oldest first, with its session count."""
        rows = self._rows(
            "SELECT r.run_id, r.label, r.source, r.config_fingerprint,"
            " r.threshold_ms, r.created_ts,"
            " (SELECT COUNT(*) FROM sessions s WHERE s.run_id = r.run_id)"
            " FROM runs r ORDER BY r.created_ts, r.run_id"
        )
        return [
            RunRecord(
                run_id=row[0],
                label=row[1],
                source=row[2],
                config_fingerprint=row[3],
                threshold_ms=row[4],
                created_ts=float(row[5]),
                sessions=int(row[6]),
            )
            for row in rows
        ]

    def aggregate(
        self,
        apps: Optional[Sequence[str]] = None,
        run_ids: Optional[Sequence[str]] = None,
        since_ts: Optional[float] = None,
        families: Optional[Sequence[str]] = None,
    ) -> List[AppAggregate]:
        """Cross-session totals per application, app-name order."""
        where, params = self._filters(apps, run_ids, since_ts, families)
        rows = self._rows(
            "SELECT app, COUNT(*), SUM(traced), SUM(perceptible),"
            " SUM(e2e_s), AVG(long_per_min)"
            f" FROM sessions WHERE {where}"
            " GROUP BY app ORDER BY app",
            params,
        )
        return [
            AppAggregate(
                application=row[0],
                sessions=int(row[1]),
                traced_episodes=int(row[2] or 0),
                perceptible_episodes=int(row[3] or 0),
                total_e2e_s=float(row[4] or 0.0),
                mean_long_per_min=float(row[5] or 0.0),
            )
            for row in rows
        ]

    def top_patterns(
        self,
        n: int = 10,
        metric: str = "perceptible_lag",
        apps: Optional[Sequence[str]] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> List[PatternAggregate]:
        """The N worst patterns fleet-wide.

        ``metric="perceptible_lag"`` ranks by perceptible episode count
        (then total occurrences); ``metric="occurrences"`` ranks by
        total occurrences (then perceptible count). Ties break on
        (application, pattern key) ascending, so the ordering is fully
        deterministic.

        Reads ``pattern_rollup`` alone: one row per (run, app, pattern
        key), summed over the runs asked for; ``sessions`` counts the
        sessions whose numeric pattern rows the rollup holds. One run
        holds one row per (app, pattern key), so a filter naming one
        distinct run ranks the stored rows as they are, with no
        ``GROUP BY``.
        """
        if metric == "perceptible_lag":
            order = "total_perceptible DESC, total_count DESC"
        elif metric == "occurrences":
            order = "total_count DESC, total_perceptible DESC"
        else:
            raise StudyWarehouseError(
                f"unknown pattern metric {metric!r};"
                " choose from occurrences, perceptible_lag"
            )
        clauses: List[str] = []
        params: List[Any] = []
        if apps:
            clauses.append(_in("app", apps))
            params.extend(apps)
        if run_ids:
            clauses.append(_in("run_id", run_ids))
            params.extend(run_ids)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        if run_ids and len(set(run_ids)) == 1:
            values = (
                "count AS total_count, perceptible AS total_perceptible,"
                " sessions"
            )
            group = ""
        else:
            values = (
                "SUM(count) AS total_count,"
                " SUM(perceptible) AS total_perceptible, SUM(sessions)"
            )
            group = " GROUP BY app, pattern_key"
        rows = self._rows(
            f"SELECT app, pattern_key, {values}"
            f" FROM pattern_rollup{where}{group}"
            f" ORDER BY {order}, app, pattern_key"
            " LIMIT ?",
            params + [int(n)],
        )
        return [
            PatternAggregate(
                application=row[0],
                pattern_key=row[1],
                occurrences=int(row[2] or 0),
                perceptible=int(row[3] or 0),
                sessions=int(row[4] or 0),
            )
            for row in rows
        ]

    def series(
        self,
        metric: str = "perceptible_rate",
        bucket: str = "hour",
        apps: Optional[Sequence[str]] = None,
        run_ids: Optional[Sequence[str]] = None,
        since_ts: Optional[float] = None,
        families: Optional[Sequence[str]] = None,
    ) -> List[SeriesPoint]:
        """A per-app time series of ``metric`` over ingest time.

        Sessions are bucketed by their ``ingested_ts`` into ``minute`` /
        ``hour`` / ``day`` buckets; each point aggregates the sessions
        in one (app, bucket).
        """
        width = BUCKET_WIDTHS.get(bucket)
        if width is None:
            known = ", ".join(sorted(BUCKET_WIDTHS))
            raise StudyWarehouseError(
                f"unknown bucket {bucket!r}; choose from {known}"
            )
        value_sql = _metric_sql(metric)
        where, params = self._filters(apps, run_ids, since_ts, families)
        rows = self._rows(
            "SELECT app,"
            " CAST(ingested_ts AS INTEGER) / ? * ? AS bucket_ts,"
            f" COUNT(*), {value_sql}"
            f" FROM sessions WHERE {where}"
            " GROUP BY app, bucket_ts ORDER BY app, bucket_ts",
            [width, width] + params,
        )
        return [
            SeriesPoint(
                application=row[0],
                bucket_ts=float(row[1]),
                sessions=int(row[2]),
                value=float(row[3] or 0.0),
            )
            for row in rows
        ]

    def regression(
        self,
        baseline_runs: Sequence[str],
        candidate_runs: Sequence[str],
        metric: str = "perceptible_rate",
        min_delta: float = 0.0,
    ) -> RegressionReport:
        """A before/after diff of ``metric`` between two run sets.

        Every metric is higher-is-worse, so an app regressed when
        ``candidate - baseline > min_delta``. Apps present in only one
        set still appear (the missing side reads 0.0 with 0 sessions).
        Entries are ordered by application name — deterministic across
        worker counts because the underlying rows are value-identical.
        """
        value_sql = _metric_sql(metric)

        def side(runs: Sequence[str]) -> Dict[str, Tuple[float, int]]:
            if not runs:
                return {}
            where, params = self._filters(run_ids=runs)
            rows = self._rows(
                f"SELECT app, {value_sql}, COUNT(*)"
                f" FROM sessions WHERE {where} GROUP BY app",
                params,
            )
            return {
                row[0]: (float(row[1] or 0.0), int(row[2])) for row in rows
            }

        with self._connection():
            base = side(baseline_runs)
            cand = side(candidate_runs)
        entries: List[RegressionEntry] = []
        for app in sorted(set(base) | set(cand)):
            base_value, base_sessions = base.get(app, (0.0, 0))
            cand_value, cand_sessions = cand.get(app, (0.0, 0))
            delta = cand_value - base_value
            entries.append(
                RegressionEntry(
                    application=app,
                    baseline_value=base_value,
                    candidate_value=cand_value,
                    delta=delta,
                    regressed=delta > min_delta,
                    baseline_sessions=base_sessions,
                    candidate_sessions=cand_sessions,
                )
            )
        return RegressionReport(
            metric=metric,
            min_delta=min_delta,
            baseline_runs=tuple(baseline_runs),
            candidate_runs=tuple(candidate_runs),
            entries=entries,
        )

    def _cause_rows(
        self, run_id: str, apps: Optional[Sequence[str]], perceptible_only: bool
    ) -> List[Tuple[str, int, int]]:
        """One run's ``(label, ns, episodes)`` sums, in label order.

        Reads the run's ``cause_rollup`` rows as its primary key holds
        them, in (label, app) order with no ``GROUP BY``, and folds the
        rows of one label in Python: summed first, then ``int()``, as
        ``CAST(SUM(...) AS INTEGER)`` would. ``apps`` is a filter on the
        same range.
        """
        ns, episodes = (
            ("perceptible_ns", "perceptible_episodes") if perceptible_only
            else ("total_ns", "episodes")
        )
        clauses = ["run_id = ?"]
        params: List[Any] = [run_id]
        if apps:
            clauses.append(_in("app", apps))
            params.extend(apps)
        rows = self._rows(
            f"SELECT label, {ns}, {episodes} FROM cause_rollup"
            f" WHERE {' AND '.join(clauses)} ORDER BY label, app",
            params,
        )
        folded: List[Tuple[str, int, int]] = []
        label = None
        total_ns = total_episodes = 0
        for row_label, row_ns, row_episodes in rows:
            if row_label == label:
                total_ns += row_ns
                total_episodes += row_episodes
                continue
            if label is not None:
                folded.append((label, int(total_ns), int(total_episodes)))
            label, total_ns, total_episodes = row_label, row_ns, row_episodes
        if label is not None:
            folded.append((label, int(total_ns), int(total_episodes)))
        return folded

    def cause_totals(
        self,
        run_id: str,
        apps: Optional[Sequence[str]] = None,
        perceptible_only: bool = False,
    ) -> Dict[str, Tuple[int, int]]:
        """Aggregated cause tally of one run: ``label -> (ns, episodes)``.

        Sums the run's ``cause_rollup`` rows, one per label and app;
        ``perceptible_only`` reads the perceptible columns instead.
        Labels come back in label order (deterministic regardless of
        ingest order).
        """
        return {
            label: (ns, episodes)
            for label, ns, episodes in self._cause_rows(
                run_id, apps, perceptible_only
            )
        }

    def diff(
        self,
        run_a: str,
        run_b: str,
        apps: Optional[Sequence[str]] = None,
        perceptible_only: bool = False,
    ) -> Any:
        """Attribute the latency delta between two runs to ranked causes.

        Reads both runs' label-ordered cause sums on one connection and
        merges them with :func:`repro.core.causegraph.rank_cause_deltas`;
        the report ranks per-label self-time deltas regressions-first,
        so the injected (or real) cause of a slowdown surfaces at the
        top. The ranking is deterministic across worker counts because
        the underlying rows are value-identical however they were
        computed.
        """
        from repro.core.causegraph import rank_cause_deltas

        with self._connection():
            rows_a = self._cause_rows(run_a, apps, perceptible_only)
            rows_b = self._cause_rows(run_b, apps, perceptible_only)
        return rank_cause_deltas(rows_a, rows_b, run_a, run_b)

    # ------------------------------------------------------------------
    # Retention and hygiene
    # ------------------------------------------------------------------

    def prune(
        self,
        max_age_s: Optional[float] = None,
        keep_runs: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Drop whole runs past the retention horizon.

        ``max_age_s`` drops runs created earlier than ``now -
        max_age_s``; ``keep_runs`` keeps only the newest N runs. Either
        filter alone or both together; the sessions, pattern and cause
        rows of a dropped run go with it, and with them its rollup rows.
        Returns runs removed.
        """
        if max_age_s is None and keep_runs is None:
            return 0
        if not self.path.exists():
            return 0
        now = time.time() if now is None else float(now)
        with self._connection() as connect:
            connection = connect()
            doomed: List[str] = []
            if max_age_s is not None:
                cutoff = now - float(max_age_s)
                doomed.extend(
                    row[0]
                    for row in connection.execute(
                        "SELECT run_id FROM runs WHERE created_ts < ?",
                        (cutoff,),
                    )
                )
            if keep_runs is not None:
                doomed.extend(
                    row[0]
                    for row in connection.execute(
                        "SELECT run_id FROM runs"
                        " ORDER BY created_ts DESC, run_id DESC"
                        " LIMIT -1 OFFSET ?",
                        (max(0, int(keep_runs)),),
                    )
                )
            doomed = sorted(set(doomed))
            if doomed:
                with connection:
                    for table in ("patterns", "causes", "sessions", "runs"):
                        connection.execute(
                            f"DELETE FROM {table}"
                            f" WHERE {_in('run_id', doomed)}",
                            doomed,
                        )
        return len(doomed)

    def quarantine_corrupt(self, now: Optional[float] = None) -> int:
        """Sweep structurally corrupt rows into the quarantine table.

        A session row whose numeric columns are not numbers (external
        tampering, partial writes through a crash) is moved — payload
        preserved as JSON — so aggregates stay trustworthy and the
        damage stays inspectable. The session's pattern and cause rows
        leave with it through :meth:`_replace_rows`, so no query counts
        the session any more. A pattern row with non-numeric counts, or
        a cause row with a non-numeric total, episode count or
        perceptible column, is moved on its own; neither counted in a
        rollup, so no answer changes. Returns rows quarantined.
        """
        import json

        if not self.path.exists():
            return 0
        now = time.time() if now is None else float(now)
        with self._connection() as connect:
            connection = connect()
            bad = connection.execute(
                "SELECT rowid, * FROM sessions WHERE NOT (" + _NUMERIC_GUARD + ")"
            ).fetchall()
            bad_patterns = connection.execute(
                f"SELECT rowid, * FROM patterns WHERE NOT ({numeric(PATTERN_GUARD)})"
            ).fetchall()
            bad_causes = connection.execute(
                f"SELECT rowid, * FROM causes WHERE NOT ({numeric(CAUSE_GUARD)})"
            ).fetchall()
            with connection:
                for table, reason, rows in (
                    ("sessions", "non-numeric stats", bad),
                    ("patterns", "non-numeric counts", bad_patterns),
                    ("causes", "non-numeric totals", bad_causes),
                ):
                    for row in rows:
                        connection.execute(
                            "INSERT INTO quarantine (rowid_src, src_table,"
                            " reason, payload, swept_ts)"
                            " VALUES (?, ?, ?, ?, ?)",
                            (
                                row[0], table, reason,
                                json.dumps(row[1:], default=str), now,
                            ),
                        )
                        connection.execute(
                            f"DELETE FROM {table} WHERE rowid = ?", (row[0],)
                        )
                for row in bad:
                    # run_id, app, session_id lead the sessions columns.
                    self._replace_rows(connection, tuple(row[1:4]))
        swept = len(bad) + len(bad_patterns) + len(bad_causes)
        if swept:
            obs_runtime.count("warehouse.quarantined_rows", swept)
        return swept

    def quarantined(self) -> List[Tuple[str, str]]:
        """``(table, reason)`` of every quarantined row, sweep order."""
        return self._rows(
            "SELECT src_table, reason FROM quarantine ORDER BY swept_ts, rowid"
        )

    def __repr__(self) -> str:
        return f"StudyWarehouse({str(self.path)!r})"
