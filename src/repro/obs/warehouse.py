"""The metrics warehouse: persistent, queryable operational telemetry.

Per-run observability bundles answer "what happened in this run?"; the
warehouse answers "how has the fleet behaved over time?". It is one
SQLite file (stdlib :mod:`sqlite3`, WAL mode) into which
:class:`~repro.obs.publisher.TelemetryPublisher` flushes periodic
metric *deltas* — counter increments, gauge highs, histogram cell
deltas, span rollups — keyed by run, host, and time bucket, so
``repro obs query`` can ask for e.g. the p99 send-to-ack latency per
day across every run that ever published.

Design rules:

- **Repository pattern, one connection per public call**, opened
  through :class:`repro.sqlitedb.SQLiteStore` (WAL, the one-step
  schema chain walked). There is no long-lived handle to corrupt:
  delete the file mid-run and the next flush simply recreates it.
  Telemetry storage must never be a single point of failure for the
  system it observes.
- **Additive writes.** A flush *merges* into its ``(run, name,
  bucket)`` row — counters and histogram cells add, gauges keep the
  max — so re-publishing after a failed flush is idempotent-ish in the
  only way that matters: no reader ever sees partial rows (one
  transaction per flush).
- **Bounded growth.** :meth:`Warehouse.prune` drops buckets older than
  a retention horizon; :meth:`Warehouse.compact` re-buckets old
  fine-grained rows into coarser buckets and reclaims the file.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.errors import LagAlyzerError
from repro.sqlitedb import SQLiteStore

#: Default width of a storage time bucket, in seconds.
DEFAULT_BUCKET_S = 60

#: Named display granularities accepted by the query API.
BUCKET_WIDTHS: Dict[str, int] = {
    "minute": 60,
    "hour": 3600,
    "day": 86400,
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,
    host       TEXT NOT NULL DEFAULT '',
    started_ts INTEGER NOT NULL,
    last_ts    INTEGER NOT NULL,
    flushes    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS metric_points (
    run_id    TEXT NOT NULL,
    name      TEXT NOT NULL,
    kind      TEXT NOT NULL,
    bucket_ts INTEGER NOT NULL,
    value     REAL NOT NULL,
    PRIMARY KEY (run_id, name, kind, bucket_ts)
);
CREATE INDEX IF NOT EXISTS idx_metric_points_name
    ON metric_points (name, bucket_ts);
CREATE TABLE IF NOT EXISTS histogram_points (
    run_id    TEXT NOT NULL,
    name      TEXT NOT NULL,
    bucket_ts INTEGER NOT NULL,
    buckets   TEXT NOT NULL,
    counts    TEXT NOT NULL,
    sum       REAL NOT NULL,
    count     INTEGER NOT NULL,
    PRIMARY KEY (run_id, name, bucket_ts)
);
CREATE INDEX IF NOT EXISTS idx_histogram_points_name
    ON histogram_points (name, bucket_ts);
CREATE TABLE IF NOT EXISTS span_rollups (
    run_id    TEXT NOT NULL,
    name      TEXT NOT NULL,
    bucket_ts INTEGER NOT NULL,
    count     INTEGER NOT NULL,
    total_ms  REAL NOT NULL,
    max_ms    REAL NOT NULL,
    PRIMARY KEY (run_id, name, bucket_ts)
);
CREATE INDEX IF NOT EXISTS idx_span_rollups_name
    ON span_rollups (name, bucket_ts);
"""


class WarehouseError(LagAlyzerError):
    """The warehouse file is unusable or a query is malformed."""


def estimate_percentile(
    buckets: List[float], counts: List[int], q: float
) -> float:
    """Upper-bound percentile estimate from fixed-bucket counts.

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``q`` of the total — the same conservative estimator the
    ingest benchmark gates on. Mass in the +Inf overflow bucket reports
    the largest finite bound (the histogram cannot resolve beyond it).
    """
    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, cell in enumerate(counts):
        cumulative += cell
        if cumulative >= target:
            if i < len(buckets):
                return float(buckets[i])
            return float(buckets[-1]) if buckets else 0.0
    return float(buckets[-1]) if buckets else 0.0


class Warehouse(SQLiteStore):
    """One SQLite-backed telemetry warehouse.

    Args:
        path: the database file (created, with parents, on first write).
        bucket_s: storage time-bucket width in seconds; flushes landing
            in the same bucket merge into one row.
    """

    BUSY_TIMEOUT_S = 5.0
    #: One step, stored under ``schema_version``: every file this store
    #: has written opens at v1 with no migration.
    MIGRATIONS = (_SCHEMA,)
    VERSION_KEY = "schema_version"
    ERROR = WarehouseError

    def __init__(
        self,
        path: Union[str, Path],
        bucket_s: int = DEFAULT_BUCKET_S,
    ) -> None:
        super().__init__(path)
        self.bucket_s = max(1, int(bucket_s))

    def __reduce__(self) -> Tuple[type, Tuple[Path, int]]:
        return (type(self), (self.path, self.bucket_s))

    def bucket_ts(self, ts: float) -> int:
        """The storage bucket a wall-clock timestamp lands in."""
        return int(ts) // self.bucket_s * self.bucket_s

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def record_delta(
        self,
        run_id: str,
        delta: Mapping[str, Any],
        ts: Optional[float] = None,
        host: str = "",
    ) -> None:
        """Merge one publisher flush into the warehouse (one transaction).

        ``delta`` carries ``counters`` (name → increment), ``gauges``
        (name → current value), ``histograms`` (name →
        ``{"buckets", "counts", "sum", "count"}`` of *new* observations
        only), and ``spans`` (name → ``{"count", "total_ms", "max_ms"}``
        over spans finished since the previous flush).

        Raises:
            sqlite3.Error: the file is unwritable — callers treat this
                as lost telemetry, never as a fatal condition.
        """
        now = time.time() if ts is None else float(ts)
        bucket = self.bucket_ts(now)
        # One transaction per flush.
        with self._connection() as connect, connect() as connection:
            connection.execute(
                "INSERT INTO runs (run_id, host, started_ts, last_ts,"
                " flushes) VALUES (?, ?, ?, ?, 1)"
                " ON CONFLICT(run_id) DO UPDATE SET"
                " last_ts = excluded.last_ts,"
                " flushes = flushes + 1",
                (run_id, host, int(now), int(now)),
            )
            for name, value in delta.get("counters", {}).items():
                self._merge_metric(
                    connection, run_id, name, "counter", bucket,
                    float(value), add=True,
                )
            for name, value in delta.get("gauges", {}).items():
                self._merge_metric(
                    connection, run_id, name, "gauge", bucket,
                    float(value), add=False,
                )
            for name, raw in delta.get("histograms", {}).items():
                self._merge_histogram(
                    connection, run_id, name, bucket, raw
                )
            for name, raw in delta.get("spans", {}).items():
                connection.execute(
                    "INSERT INTO span_rollups (run_id, name, bucket_ts,"
                    " count, total_ms, max_ms) VALUES (?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT(run_id, name, bucket_ts) DO UPDATE SET"
                    " count = count + excluded.count,"
                    " total_ms = total_ms + excluded.total_ms,"
                    " max_ms = MAX(max_ms, excluded.max_ms)",
                    (
                        run_id, name, bucket,
                        int(raw.get("count", 0)),
                        float(raw.get("total_ms", 0.0)),
                        float(raw.get("max_ms", 0.0)),
                    ),
                )

    @staticmethod
    def _merge_metric(
        connection: sqlite3.Connection,
        run_id: str,
        name: str,
        kind: str,
        bucket: int,
        value: float,
        add: bool,
    ) -> None:
        merge = (
            "value = value + excluded.value"
            if add
            else "value = MAX(value, excluded.value)"
        )
        connection.execute(
            "INSERT INTO metric_points (run_id, name, kind, bucket_ts,"
            f" value) VALUES (?, ?, ?, ?, ?)"
            f" ON CONFLICT(run_id, name, kind, bucket_ts) DO UPDATE SET"
            f" {merge}",
            (run_id, name, kind, bucket, value),
        )

    @staticmethod
    def _merge_histogram(
        connection: sqlite3.Connection,
        run_id: str,
        name: str,
        bucket: int,
        raw: Mapping[str, Any],
    ) -> None:
        row = connection.execute(
            "SELECT buckets, counts, sum, count FROM histogram_points"
            " WHERE run_id = ? AND name = ? AND bucket_ts = ?",
            (run_id, name, bucket),
        ).fetchone()
        buckets = list(raw.get("buckets", ()))
        counts = [int(cell) for cell in raw.get("counts", ())]
        total = float(raw.get("sum", 0.0))
        count = int(raw.get("count", 0))
        if row is not None:
            old_buckets = json.loads(row[0])
            old_counts = json.loads(row[1])
            if old_buckets == buckets and len(old_counts) == len(counts):
                counts = [a + b for a, b in zip(old_counts, counts)]
            else:
                # Layout changed mid-bucket (shouldn't happen, but
                # telemetry never hard-fails): keep the bigger layout
                # and fold the smaller one's mass into the overflow.
                if len(old_counts) > len(counts):
                    buckets, counts, old_counts = (
                        old_buckets, old_counts, counts
                    )
                counts = list(counts)
                counts[-1] += sum(old_counts)
            total += float(row[2])
            count += int(row[3])
        connection.execute(
            "INSERT OR REPLACE INTO histogram_points (run_id, name,"
            " bucket_ts, buckets, counts, sum, count)"
            " VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                run_id, name, bucket,
                json.dumps(buckets), json.dumps(counts), total, count,
            ),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @staticmethod
    def _display_bucket(name_or_width: Union[str, int]) -> int:
        if isinstance(name_or_width, int):
            width = name_or_width
        else:
            width = BUCKET_WIDTHS.get(name_or_width, 0)
        if width <= 0:
            raise WarehouseError(
                f"unknown bucket {name_or_width!r} "
                f"(choose from {', '.join(sorted(BUCKET_WIDTHS))} "
                f"or a positive width in seconds)"
            )
        return width

    def runs(self) -> List[Dict[str, Any]]:
        """Every run that ever published, newest last."""
        rows = self._rows(
            "SELECT run_id, host, started_ts, last_ts, flushes"
            " FROM runs ORDER BY started_ts, run_id"
        )
        return [
            {
                "run_id": run_id,
                "host": host,
                "started_ts": started_ts,
                "last_ts": last_ts,
                "flushes": flushes,
            }
            for run_id, host, started_ts, last_ts, flushes in rows
        ]

    def metric_names(self) -> Dict[str, List[str]]:
        """All published names by table: counters/gauges/histograms/spans."""
        queries = {
            "counters": "SELECT DISTINCT name FROM metric_points"
            " WHERE kind = 'counter' ORDER BY name",
            "gauges": "SELECT DISTINCT name FROM metric_points"
            " WHERE kind = 'gauge' ORDER BY name",
            "histograms": "SELECT DISTINCT name FROM histogram_points"
            " ORDER BY name",
            "spans": "SELECT DISTINCT name FROM span_rollups ORDER BY name",
        }
        with self._connection():
            return {
                table: [row[0] for row in self._rows(sql)]
                for table, sql in queries.items()
            }

    def series(
        self,
        name: str,
        bucket: Union[str, int] = "minute",
        run_id: Optional[str] = None,
        since_ts: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """A counter/gauge time-series: ``(bucket_ts, value)`` rows.

        Counters sum across runs and storage buckets inside each
        display bucket; gauges take the max.
        """
        width = self._display_bucket(bucket)
        where, params = self._filters(run_id, since_ts)
        rows = self._rows(
            "SELECT bucket_ts / ? * ? AS b,"
            " SUM(CASE WHEN kind = 'counter' THEN value END),"
            " MAX(CASE WHEN kind = 'gauge' THEN value END)"
            f" FROM metric_points WHERE name = ?{where}"
            " GROUP BY b ORDER BY b",
            [width, width, name, *params],
        )
        return [
            (int(b), float(total if total is not None else high))
            for b, total, high in rows
            if total is not None or high is not None
        ]

    def percentile_series(
        self,
        name: str,
        q: float = 0.99,
        bucket: Union[str, int] = "day",
        run_id: Optional[str] = None,
        since_ts: Optional[float] = None,
    ) -> List[Tuple[int, float, int]]:
        """Histogram percentile per display bucket.

        Returns ``(bucket_ts, estimate, observations)`` rows — e.g.
        ``percentile_series("ingest.client.flush_ms", 0.99, "day")`` is
        the p99 send-to-ack latency per day across every published run.
        """
        if not 0.0 < q <= 1.0:
            raise WarehouseError(f"percentile q={q} outside (0, 1]")
        width = self._display_bucket(bucket)
        where, params = self._filters(run_id, since_ts)
        rows = self._rows(
            "SELECT bucket_ts, buckets, counts, count"
            f" FROM histogram_points WHERE name = ?{where}"
            " ORDER BY bucket_ts",
            [name, *params],
        )
        merged: Dict[int, Tuple[List[float], List[int], int]] = {}
        for bucket_ts, buckets_json, counts_json, count in rows:
            display = int(bucket_ts) // width * width
            buckets = json.loads(buckets_json)
            counts = [int(cell) for cell in json.loads(counts_json)]
            entry = merged.get(display)
            if entry is None:
                merged[display] = (buckets, counts, int(count))
                continue
            old_buckets, old_counts, old_count = entry
            if old_buckets == buckets and len(old_counts) == len(counts):
                summed = [a + b for a, b in zip(old_counts, counts)]
            else:
                summed = list(old_counts)
                summed[-1] += sum(counts)
                buckets = old_buckets
            merged[display] = (buckets, summed, old_count + int(count))
        return [
            (ts, estimate_percentile(buckets, counts, q), count)
            for ts, (buckets, counts, count) in sorted(merged.items())
        ]

    def span_summary(
        self,
        run_id: Optional[str] = None,
        since_ts: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Aggregate span rollups by name (slowest mean first)."""
        where, params = self._filters(run_id, since_ts)
        rows = self._rows(
            "SELECT name, SUM(count), SUM(total_ms), MAX(max_ms)"
            f" FROM span_rollups WHERE 1=1{where}"
            " GROUP BY name",
            params,
        )
        summary = [
            {
                "name": name,
                "count": int(count),
                "total_ms": float(total_ms),
                "mean_ms": float(total_ms) / count if count else 0.0,
                "max_ms": float(max_ms),
            }
            for name, count, total_ms, max_ms in rows
        ]
        summary.sort(key=lambda row: (-row["mean_ms"], row["name"]))
        return summary

    def totals(
        self,
        run_id: Optional[str] = None,
        since_ts: Optional[float] = None,
    ) -> Dict[str, float]:
        """Counter totals by name over the selected rows."""
        where, params = self._filters(run_id, since_ts)
        rows = self._rows(
            "SELECT name, SUM(value) FROM metric_points"
            f" WHERE kind = 'counter'{where}"
            " GROUP BY name ORDER BY name",
            params,
        )
        return {name: float(value) for name, value in rows}

    @staticmethod
    def _filters(
        run_id: Optional[str], since_ts: Optional[float]
    ) -> Tuple[str, List[Any]]:
        where = ""
        params: List[Any] = []
        if run_id is not None:
            where += " AND run_id = ?"
            params.append(run_id)
        if since_ts is not None:
            where += " AND bucket_ts >= ?"
            params.append(int(since_ts))
        return where, params

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def prune(self, max_age_s: float, now: Optional[float] = None) -> int:
        """Delete buckets older than ``max_age_s``; rows removed.

        Runs whose every point was pruned are removed too.
        """
        if not self.path.is_file():
            return 0
        cutoff = self.bucket_ts(
            (time.time() if now is None else now) - max_age_s
        )
        removed = 0
        with self._connection() as connect, connect() as connection:
            for table in ("metric_points", "histogram_points", "span_rollups"):
                cursor = connection.execute(
                    f"DELETE FROM {table} WHERE bucket_ts < ?",  # noqa: S608
                    (cutoff,),
                )
                removed += cursor.rowcount
            connection.execute(
                "DELETE FROM runs WHERE run_id NOT IN ("
                " SELECT run_id FROM metric_points"
                " UNION SELECT run_id FROM histogram_points"
                " UNION SELECT run_id FROM span_rollups)"
            )
        return removed

    def compact(
        self,
        older_than_s: float = 3600.0,
        coarse_s: int = 3600,
        now: Optional[float] = None,
    ) -> int:
        """Re-bucket old fine-grained rows into ``coarse_s`` buckets.

        Rows older than ``older_than_s`` collapse into coarse buckets
        (counters/histograms/rollups add, gauges keep max), then the
        file is vacuumed. Returns the number of rows eliminated.
        """
        if not self.path.is_file():
            return 0
        cutoff = (time.time() if now is None else now) - older_than_s
        coarse = max(self.bucket_s, int(coarse_s))
        with self._connection() as connect:
            connection = connect()
            before = self._point_rows(connection)
            with connection:
                connection.execute(
                    "UPDATE OR IGNORE metric_points"
                    " SET bucket_ts = bucket_ts / ? * ?"
                    " WHERE bucket_ts < ?",
                    (coarse, coarse, int(cutoff)),
                )
                # Rows whose coarse slot already existed collide on the
                # primary key and survive the UPDATE OR IGNORE; fold
                # them in by hand.
                self._fold_metric_collisions(connection, coarse, cutoff)
                self._fold_histogram_collisions(connection, coarse, cutoff)
                connection.execute(
                    "UPDATE OR IGNORE span_rollups"
                    " SET bucket_ts = bucket_ts / ? * ?"
                    " WHERE bucket_ts < ?",
                    (coarse, coarse, int(cutoff)),
                )
                self._fold_rollup_collisions(connection, coarse, cutoff)
            after = self._point_rows(connection)
            # VACUUM cannot run inside a transaction; the one above has
            # committed.
            connection.execute("VACUUM")
        return before - after

    @staticmethod
    def _point_rows(connection: sqlite3.Connection) -> int:
        total = 0
        for table in ("metric_points", "histogram_points", "span_rollups"):
            total += connection.execute(
                f"SELECT COUNT(*) FROM {table}"  # noqa: S608
            ).fetchone()[0]
        return total

    def _fold_metric_collisions(
        self,
        connection: sqlite3.Connection,
        coarse: int,
        cutoff: float,
    ) -> None:
        rows = connection.execute(
            "SELECT run_id, name, kind, bucket_ts, value"
            " FROM metric_points WHERE bucket_ts < ?"
            " AND bucket_ts % ? != 0",
            (int(cutoff), coarse),
        ).fetchall()
        for run_id, name, kind, bucket_ts, value in rows:
            self._merge_metric(
                connection, run_id, name, kind,
                int(bucket_ts) // coarse * coarse, float(value),
                add=(kind == "counter"),
            )
            connection.execute(
                "DELETE FROM metric_points WHERE run_id = ? AND name = ?"
                " AND kind = ? AND bucket_ts = ?",
                (run_id, name, kind, bucket_ts),
            )

    def _fold_histogram_collisions(
        self,
        connection: sqlite3.Connection,
        coarse: int,
        cutoff: float,
    ) -> None:
        rows = connection.execute(
            "SELECT run_id, name, bucket_ts, buckets, counts, sum, count"
            " FROM histogram_points WHERE bucket_ts < ?"
            " AND bucket_ts % ? != 0",
            (int(cutoff), coarse),
        ).fetchall()
        for run_id, name, bucket_ts, buckets, counts, total, count in rows:
            connection.execute(
                "DELETE FROM histogram_points WHERE run_id = ?"
                " AND name = ? AND bucket_ts = ?",
                (run_id, name, bucket_ts),
            )
            self._merge_histogram(
                connection, run_id, name,
                int(bucket_ts) // coarse * coarse,
                {
                    "buckets": json.loads(buckets),
                    "counts": json.loads(counts),
                    "sum": total,
                    "count": count,
                },
            )

    @staticmethod
    def _fold_rollup_collisions(
        connection: sqlite3.Connection,
        coarse: int,
        cutoff: float,
    ) -> None:
        rows = connection.execute(
            "SELECT run_id, name, bucket_ts, count, total_ms, max_ms"
            " FROM span_rollups WHERE bucket_ts < ?"
            " AND bucket_ts % ? != 0",
            (int(cutoff), coarse),
        ).fetchall()
        for run_id, name, bucket_ts, count, total_ms, max_ms in rows:
            connection.execute(
                "DELETE FROM span_rollups WHERE run_id = ? AND name = ?"
                " AND bucket_ts = ?",
                (run_id, name, bucket_ts),
            )
            connection.execute(
                "INSERT INTO span_rollups (run_id, name, bucket_ts,"
                " count, total_ms, max_ms) VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(run_id, name, bucket_ts) DO UPDATE SET"
                " count = count + excluded.count,"
                " total_ms = total_ms + excluded.total_ms,"
                " max_ms = MAX(max_ms, excluded.max_ms)",
                (
                    run_id, name,
                    int(bucket_ts) // coarse * coarse,
                    int(count), float(total_ms), float(max_ms),
                ),
            )

    def __repr__(self) -> str:
        return f"Warehouse({self.path}, bucket={self.bucket_s}s)"
