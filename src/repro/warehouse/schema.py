"""Versioned schema and migrations for the study warehouse.

The study warehouse is a durable cross-run dataset: its file outlives
code upgrades, so the schema is an ordered migration chain.
``MIGRATIONS[n]`` upgrades a version-``n`` file to version ``n + 1``;
opening a file walks the chain from the version recorded under
``study_schema_version`` to :data:`SCHEMA_VERSION`
(:func:`repro.sqlitedb.ensure_schema`), one transaction per step,
preserving existing rows. A file written by a *newer* code version, or
by the telemetry warehouse, is refused rather than guessed at.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.errors import LagAlyzerError

#: Version this code writes; files at lower versions migrate up on open.
SCHEMA_VERSION = 8

#: The guards each migration step built its triggers and rollups under,
#: frozen: a shipped step's SQL never changes, so widening a guard again
#: takes a new step and a new tuple here.
_V6_PATTERN_GUARD = ("count", "perceptible")
_V6_CAUSE_GUARD = ("total_ns", "episodes")
_V7_CAUSE_GUARD = ("total_ns", "episodes", "perceptible_ns", "perceptible_episodes")

#: The columns a pattern row and a cause row must hold numbers in to be
#: summed into their rollups. A row failing its guard counts in no
#: answer, and :meth:`StudyWarehouse.quarantine_corrupt` sweeps it out.
PATTERN_GUARD: Tuple[str, ...] = _V6_PATTERN_GUARD
CAUSE_GUARD: Tuple[str, ...] = _V7_CAUSE_GUARD


def numeric(columns: Tuple[str, ...], row: str = "") -> str:
    """SQL that holds when each of ``columns`` (of ``row``) is a number."""
    prefix = f"{row}." if row else ""
    return " AND ".join(
        f"typeof({prefix}{column}) IN ('integer', 'real')" for column in columns
    )

# Version 1: the core study tables — runs, per-session summaries, and
# per-session pattern occurrence rows.
_V1 = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id             TEXT PRIMARY KEY,
    label              TEXT NOT NULL DEFAULT '',
    source             TEXT NOT NULL DEFAULT '',
    config_fingerprint TEXT NOT NULL DEFAULT '',
    threshold_ms       REAL,
    created_ts         REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS sessions (
    run_id             TEXT NOT NULL,
    app                TEXT NOT NULL,
    session_id         TEXT NOT NULL,
    trace_digest       TEXT NOT NULL DEFAULT '',
    config_fingerprint TEXT NOT NULL DEFAULT '',
    ingested_ts        REAL NOT NULL,
    e2e_s              REAL NOT NULL DEFAULT 0,
    in_episode_pct     REAL NOT NULL DEFAULT 0,
    below_filter       REAL NOT NULL DEFAULT 0,
    traced             REAL NOT NULL DEFAULT 0,
    perceptible        REAL NOT NULL DEFAULT 0,
    long_per_min       REAL NOT NULL DEFAULT 0,
    distinct_patterns  REAL NOT NULL DEFAULT 0,
    covered_episodes   REAL NOT NULL DEFAULT 0,
    singleton_pct      REAL NOT NULL DEFAULT 0,
    mean_descendants   REAL NOT NULL DEFAULT 0,
    mean_depth         REAL NOT NULL DEFAULT 0,
    excluded_episodes  INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, session_id)
);
CREATE INDEX IF NOT EXISTS idx_sessions_app
    ON sessions (app, ingested_ts);
CREATE TABLE IF NOT EXISTS patterns (
    run_id      TEXT NOT NULL,
    app         TEXT NOT NULL,
    session_id  TEXT NOT NULL,
    pattern_key TEXT NOT NULL,
    count       INTEGER NOT NULL DEFAULT 0,
    perceptible INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, session_id, pattern_key)
);
"""

# Version 2: a records column on sessions (the spool zero-loss count),
# a quarantine table for rows swept aside as corrupt, and a pattern
# index serving the top-N query.
_V2 = """
ALTER TABLE sessions ADD COLUMN records INTEGER NOT NULL DEFAULT 0;
CREATE TABLE IF NOT EXISTS quarantine (
    rowid_src  INTEGER,
    src_table  TEXT NOT NULL,
    reason     TEXT NOT NULL,
    payload    TEXT NOT NULL,
    swept_ts   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_patterns_app_key
    ON patterns (app, pattern_key);
"""

# Version 3: workload families and cause vectors. Sessions carry the
# family that produced them (pre-v3 rows are gui by definition — the
# default backfills them), and the causes table stores each session's
# self-time attribution by cause label, the substrate of `study diff`.
_V3 = """
ALTER TABLE sessions ADD COLUMN family TEXT NOT NULL DEFAULT 'gui';
CREATE TABLE IF NOT EXISTS causes (
    run_id              TEXT NOT NULL,
    app                 TEXT NOT NULL,
    session_id          TEXT NOT NULL,
    label               TEXT NOT NULL,
    total_ns            INTEGER NOT NULL DEFAULT 0,
    episodes            INTEGER NOT NULL DEFAULT 0,
    perceptible_ns      INTEGER NOT NULL DEFAULT 0,
    perceptible_episodes INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, session_id, label)
);
CREATE INDEX IF NOT EXISTS idx_causes_run_label
    ON causes (run_id, label);
"""

# Version 4: the run/label cause index also carries the four value
# columns, so the run-filtered cause sums of `study diff` read the index
# alone, already in label order. Same name, same index count: session
# writes maintain no extra B-tree.
_V4 = """
DROP INDEX IF EXISTS idx_causes_run_label;
CREATE INDEX idx_causes_run_label ON causes (run_id, label,
    total_ns, episodes, perceptible_ns, perceptible_episodes);
"""

# Version 5: a per-(run, label, app) cause rollup, kept in step with
# `causes` by each session write, so `study diff` reads one row per
# label and app instead of summing every session's rows. `rows` counts
# the cause rows summed in; a rollup row leaves with its last one. The
# backfill sums only numeric rows, as the v4 query did. The run/label
# index goes: that per-session sum was its only reader. `causes` stays
# the per-session ground truth a replaced session is subtracted from.
_V5 = """
CREATE TABLE IF NOT EXISTS cause_rollup (
    run_id               TEXT NOT NULL,
    label                TEXT NOT NULL,
    app                  TEXT NOT NULL,
    total_ns             INTEGER NOT NULL DEFAULT 0,
    episodes             INTEGER NOT NULL DEFAULT 0,
    perceptible_ns       INTEGER NOT NULL DEFAULT 0,
    perceptible_episodes INTEGER NOT NULL DEFAULT 0,
    rows                 INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, label, app)
) WITHOUT ROWID;
INSERT INTO cause_rollup (run_id, label, app, total_ns, episodes,
    perceptible_ns, perceptible_episodes, rows)
    SELECT run_id, label, app, SUM(total_ns), SUM(episodes),
    SUM(perceptible_ns), SUM(perceptible_episodes), COUNT(*)
    FROM causes
    WHERE typeof(total_ns) IN ('integer', 'real')
    AND typeof(episodes) IN ('integer', 'real')
    GROUP BY run_id, label, app;
DROP INDEX IF EXISTS idx_causes_run_label
"""


def _rollup_triggers(
    source: str,
    rollup: str,
    key: Tuple[str, ...],
    values: Tuple[str, ...],
    counter: str,
    guard: Tuple[str, ...],
) -> str:
    """Three triggers that keep ``rollup`` the guarded sums of ``source``.

    ``rollup`` holds one row per ``key``: each of ``values`` summed over
    the ``source`` rows of that key whose ``guard`` columns are numbers,
    and ``counter``, the number of those rows. An insert adds the new
    row, a delete subtracts the old one, and an update does both; a
    rollup row goes when its ``counter`` reaches 0. A row failing the
    guard is never summed, so it is never subtracted either.
    """

    def add(condition: str = "") -> str:
        new = ", ".join("NEW." + column for column in key + values)
        rows = f"SELECT {new}, 1 WHERE {condition}" if condition else (
            f"VALUES ({new}, 1)"
        )
        return (
            f"INSERT INTO {rollup} ({', '.join(key + values)}, {counter})"
            f" {rows} ON CONFLICT ({', '.join(key)}) DO UPDATE SET "
            + ", ".join(f"{column} = {column} + excluded.{column}" for column in values)
            + f", {counter} = {counter} + 1;"
        )

    def subtract(condition: str = "") -> str:
        match = " AND ".join(f"{column} = OLD.{column}" for column in key)
        return (
            f"UPDATE {rollup} SET "
            + ", ".join(f"{column} = {column} - OLD.{column}" for column in values)
            + f", {counter} = {counter} - 1 WHERE {match}"
            + (f" AND {condition};" if condition else ";")
            + f" DELETE FROM {rollup} WHERE {match} AND {counter} <= 0;"
        )

    # Insert and delete fire only for a row that passes the guard; an
    # update checks the old and the new row each in its own statement.
    return (
        f"CREATE TRIGGER {rollup}_insert AFTER INSERT ON {source}"
        f" WHEN {numeric(guard, 'NEW')} BEGIN {add()} END;\n"
        f"CREATE TRIGGER {rollup}_delete AFTER DELETE ON {source}"
        f" WHEN {numeric(guard, 'OLD')} BEGIN {subtract()} END;\n"
        f"CREATE TRIGGER {rollup}_update AFTER UPDATE ON {source}"
        f" BEGIN {subtract(numeric(guard, 'OLD'))} {add(numeric(guard, 'NEW'))}"
        " END;\n"
    )


# Version 6: a per-(run, app, pattern key) pattern rollup, which
# `top_patterns` reads alone, and SQLite triggers on `patterns` and
# `causes` that keep both rollups in step with every write, whichever
# statement makes it: a raw `UPDATE` that turns a value into text takes
# the row out of its rollup at once. `sessions` counts the pattern rows
# summed in. The backfill sums numeric rows only, and `cause_rollup` is
# rebuilt under the same guard, which repairs a v5 rollup a tampered
# row had left out of step. The app/key pattern index goes: the
# per-session `GROUP BY` of `top_patterns` was its only reader.
_V6 = """
CREATE TABLE IF NOT EXISTS pattern_rollup (
    run_id      TEXT NOT NULL,
    app         TEXT NOT NULL,
    pattern_key TEXT NOT NULL,
    count       INTEGER NOT NULL DEFAULT 0,
    perceptible INTEGER NOT NULL DEFAULT 0,
    sessions    INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app, pattern_key)
) WITHOUT ROWID;
INSERT INTO pattern_rollup (run_id, app, pattern_key, count, perceptible,
    sessions)
    SELECT run_id, app, pattern_key, SUM(count), SUM(perceptible), COUNT(*)
    FROM patterns
    WHERE """ + numeric(_V6_PATTERN_GUARD) + """
    GROUP BY run_id, app, pattern_key;
DELETE FROM cause_rollup;
INSERT INTO cause_rollup (run_id, label, app, total_ns, episodes,
    perceptible_ns, perceptible_episodes, rows)
    SELECT run_id, label, app, SUM(total_ns), SUM(episodes),
    SUM(perceptible_ns), SUM(perceptible_episodes), COUNT(*)
    FROM causes
    WHERE """ + numeric(_V6_CAUSE_GUARD) + """
    GROUP BY run_id, label, app;
DROP INDEX IF EXISTS idx_patterns_app_key;
""" + _rollup_triggers(
    "patterns", "pattern_rollup", ("run_id", "app", "pattern_key"),
    ("count", "perceptible"), "sessions", _V6_PATTERN_GUARD,
) + _rollup_triggers(
    "causes", "cause_rollup", ("run_id", "label", "app"),
    ("total_ns", "episodes", "perceptible_ns", "perceptible_episodes"),
    "rows", _V6_CAUSE_GUARD,
)

# Version 7: the cause guard covers every summed column, so a cause row
# whose perceptible columns are not numbers counts in no answer,
# perceptible tallies included. The cause triggers are made again under
# the widened guard and `cause_rollup` is rebuilt from the rows that
# pass it.
_V7 = """
DROP TRIGGER IF EXISTS cause_rollup_insert;
DROP TRIGGER IF EXISTS cause_rollup_delete;
DROP TRIGGER IF EXISTS cause_rollup_update;
DELETE FROM cause_rollup;
INSERT INTO cause_rollup (run_id, label, app, total_ns, episodes,
    perceptible_ns, perceptible_episodes, rows)
    SELECT run_id, label, app, SUM(total_ns), SUM(episodes),
    SUM(perceptible_ns), SUM(perceptible_episodes), COUNT(*)
    FROM causes
    WHERE """ + numeric(_V7_CAUSE_GUARD) + """
    GROUP BY run_id, label, app;
""" + _rollup_triggers(
    "causes", "cause_rollup", ("run_id", "label", "app"),
    ("total_ns", "episodes", "perceptible_ns", "perceptible_episodes"),
    "rows", _V7_CAUSE_GUARD,
)

# Version 8: each session row records the result-cache key of the
# bundle it was compacted from, or '' when a spool, a trace or a direct
# write stored it. A re-compaction into the run then leaves the bundles
# its rows already hold unopened. Existing rows read '' until their next
# dedup against a bundle records its key.
_V8 = """
ALTER TABLE sessions ADD COLUMN bundle_key TEXT NOT NULL DEFAULT '';
"""

#: ``MIGRATIONS[n]`` migrates a version-``n`` database to ``n + 1``.
MIGRATIONS = (_V1, _V2, _V3, _V4, _V5, _V6, _V7, _V8)


class StudyWarehouseError(LagAlyzerError):
    """The study warehouse file is unusable or a query is malformed."""
