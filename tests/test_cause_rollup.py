"""Warehouse queries held to a Python model of generated histories.

Schema v6 answers ``top_patterns`` from ``pattern_rollup`` and
``cause_totals`` and ``diff`` from ``cause_rollup``: one row per (run,
app, pattern key) and per (run, label, app), which SQLite triggers keep
in step with every insert, delete and update of the per-session
``patterns`` and ``causes`` rows. Hypothesis drives a warehouse of
2 runs x 3 apps x 4 sessions through random steps, each session
carrying pattern and cause rows:

- a new ingest, then re-ingests of a session ingested earlier: the
  same digest (a no-op), or a different digest that replaces it with a
  label or pattern set overlapping, missing or emptying the old one;
- ``quarantine_corrupt`` sweeping a tampered session row, then that
  session's re-ingest;
- a tamper: one stored pattern or cause value set to text through a
  raw ``sqlite3`` connection. The model drops that row until its
  session is replaced or swept;
- ``prune``.

After every step:

- ``aggregate``, ``series``, ``top_patterns`` (both metrics,
  ``sessions`` included, every pattern and the top 3), ``cause_totals``,
  ``diff`` and ``regression`` (both orders) must equal
  :func:`oracle.expected_answers` over the sessions the history left
  stored, for each ``apps`` filter, each run filter and both
  populations;
- ``top_patterns`` must equal :mod:`oracle`'s v5 reference, and both
  cause queries its v4 reference: the ``GROUP BY`` over every
  ``patterns`` or ``causes`` row;
- no ``patterns`` or ``causes`` row may outlive its session row, and no
  rollup row may hold a ``sessions`` or ``rows`` count of 0 or less.

The ``@example`` histories are regression fixtures: two counterexamples
hypothesis shrank against broken write paths, two sweeps whose
session's rows stayed behind in every table but ``sessions``, and
tampered rows that a rollup kept in Python went on counting.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.core.statistics import SessionStats
from repro.warehouse.schema import MIGRATIONS, SCHEMA_VERSION
from repro.warehouse.store import StudyWarehouse

from oracle import (
    expected_answers,
    reference_cause_totals,
    reference_diff,
    reference_top_patterns,
)

#: ``r0`` is the older run, so ``prune(keep_runs=1)`` drops it first.
RUN_TS = {"r0": 100.0, "r1": 200.0}
APPS = ("AppA", "AppB", "AppC")
SESSIONS = ("s0", "s1", "s2", "s3")
LABELS = (
    "async:x", "compute:a", "compute:b", "gc:young", "iowait:db",
    "native:zip",
)
PATTERN_KEYS = ("d", "d(l)", "d(p)", "d(l(d))")
DIGESTS = ("d0", "d1", "d2")
#: ``apps`` filters: none, one app, two apps.
APP_FILTERS = (None, ("AppB",), ("AppA", "AppC"))
#: ``run_ids`` filters: none and two runs (``top_patterns`` sums the
#: rollup across runs), one run named once or twice (it ranks the
#: run's rollup rows as stored).
RUN_FILTERS = (None, ("r1",), ("r0", "r1"), ("r1", "r1"))
#: The columns a tamper step may set to text, each under the numeric
#: guard of its table, with the column naming the row.
TAMPERABLE = {
    "count": ("patterns", "pattern_key"),
    "perceptible": ("patterns", "pattern_key"),
    "total_ns": ("causes", "label"),
    "episodes": ("causes", "label"),
    "perceptible_ns": ("causes", "label"),
    "perceptible_episodes": ("causes", "label"),
}

#: Small values on purpose: equal deltas test the tie order, zero
#: totals test that a zero-total label still ranks.
cause_values = st.tuples(
    st.integers(0, 6), st.integers(0, 3), st.integers(0, 6),
    st.integers(0, 3),
)
cause_rows = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(LABELS), cause_values, max_size=4),
)
#: ``(count, perceptible)`` with ``perceptible <= count``; ties common.
pattern_rows = st.dictionaries(
    st.sampled_from(PATTERN_KEYS),
    st.tuples(st.integers(1, 4), st.integers(0, 4)).map(
        lambda pair: (pair[0], min(pair))
    ),
    max_size=3,
)
session_key = st.tuples(
    st.sampled_from(sorted(RUN_TS)), st.sampled_from(APPS),
    st.sampled_from(SESSIONS),
)
#: ``reingest`` and ``quarantine`` pick a session ingested earlier in
#: the history by index, so replaces and sweeps happen often.
earlier = st.integers(0, 9)
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("ingest"), session_key, st.sampled_from(DIGESTS),
            cause_rows, pattern_rows,
        ),
        st.tuples(
            st.just("reingest"), earlier, st.sampled_from(DIGESTS),
            cause_rows, pattern_rows,
        ),
        st.tuples(
            st.just("quarantine"), earlier, st.sampled_from(DIGESTS),
            cause_rows, pattern_rows,
        ),
        st.tuples(
            st.just("tamper"), earlier, st.sampled_from(sorted(TAMPERABLE)),
            st.integers(0, 3),
        ),
        st.tuples(st.just("prune"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=10,
)


def stats_for(digest: str) -> SessionStats:
    """Whole-number statistics per digest, so SQL and Python sums agree."""
    value = float(DIGESTS.index(digest) + 1)
    return SessionStats(
        application="App",
        **{name: value for name in SessionStats._NUMERIC_FIELDS},
    )


class Model:
    """What the warehouse should hold: runs and stored session rows."""

    def __init__(self) -> None:
        self.runs = set(RUN_TS)
        self.sessions: dict = {}

    def ingest(self, key: tuple, digest: str, causes, patterns) -> None:
        stored = self.sessions.get(key)
        if stored is not None and stored["digest"] == digest:
            return
        self.runs.add(key[0])
        self.sessions[key] = {
            "digest": digest,
            "stats": stats_for(digest),
            "ts": RUN_TS[key[0]],
            "patterns": dict(patterns),
            "causes": dict(causes or {}),
        }

    def sweep(self, key: tuple) -> None:
        self.sessions.pop(key, None)

    def tamper(self, key: tuple, column: str, index: int):
        """Drop the ``index``-th stored row of the table ``column`` is
        in; returns its name, or None when the session has no such row."""
        stored = self.sessions.get(key)
        if stored is None:
            return None
        rows = stored[TAMPERABLE[column][0]]
        if not rows:
            return None
        name = sorted(rows)[index % len(rows)]
        del rows[name]
        return name

    def prune(self, keep_runs: int) -> None:
        newest = sorted(
            self.runs, key=lambda run_id: (RUN_TS[run_id], run_id),
            reverse=True,
        )
        doomed = set(newest[keep_runs:])
        self.runs -= doomed
        self.sessions = {
            key: row for key, row in self.sessions.items()
            if key[0] not in doomed
        }

    def rows(self, run_ids=None) -> dict:
        """``run -> app -> [row]`` for ``expected_answers``."""
        runs = {run_id: {} for run_id in (run_ids or RUN_TS)}
        for (run_id, app, _), row in sorted(self.sessions.items()):
            if run_id in runs:
                runs[run_id].setdefault(app, []).append(row)
        return runs


def ingest(wh: StudyWarehouse, key: tuple, digest: str, causes,
           patterns) -> None:
    run_id, app, session_id = key
    wh.ingest_session(
        run_id, app, session_id, stats_for(digest),
        pattern_counts=patterns, trace_digest=digest, ts=RUN_TS[run_id],
        causes=causes,
    )


def quarantine(wh: StudyWarehouse, key: tuple) -> None:
    """Tamper with one session row and sweep it."""
    connection = sqlite3.connect(str(wh.path))
    try:
        with connection:
            connection.execute(
                "UPDATE sessions SET traced = 'corrupt'"
                " WHERE run_id = ? AND app = ? AND session_id = ?",
                key,
            )
    finally:
        connection.close()
    wh.quarantine_corrupt()


def tamper(wh: StudyWarehouse, key: tuple, column: str, name: str) -> None:
    """Set one stored pattern or cause value to text, behind the
    warehouse's back."""
    table, name_column = TAMPERABLE[column]
    connection = sqlite3.connect(str(wh.path))
    try:
        with connection:
            connection.execute(
                f"UPDATE {table} SET {column} = 'tampered'"
                " WHERE run_id = ? AND app = ? AND session_id = ?"
                f" AND {name_column} = ?",
                key + (name,),
            )
    finally:
        connection.close()


def assert_queries_match_model(wh: StudyWarehouse, model: Model) -> None:
    for apps in APP_FILTERS:
        for run_ids in RUN_FILTERS:
            expected = expected_answers(model.rows(run_ids), apps)
            assert wh.aggregate(apps, run_ids) == expected["aggregate"]
            assert wh.series(
                "perceptible_rate", "minute", apps, run_ids
            ) == expected["series"]
            for metric in ("perceptible_lag", "occurrences"):
                ranked = expected[f"top_patterns.{metric}"]
                for n in (1000, 3):
                    actual = wh.top_patterns(n, metric, apps, run_ids)
                    assert actual == ranked[:n]
                    assert actual == reference_top_patterns(
                        wh.path, n, metric, apps, run_ids
                    )
        for perceptible_only in (False, True):
            expected = expected_answers(model.rows(), apps, perceptible_only)
            for run_id, totals in expected["cause_totals"].items():
                actual = wh.cause_totals(run_id, apps, perceptible_only)
                assert actual == totals
                assert list(actual) == list(totals)
                assert actual == reference_cause_totals(
                    wh.path, run_id, apps, perceptible_only
                )
            for (run_a, run_b), report in expected["diff"].items():
                assert wh.diff(run_a, run_b, apps, perceptible_only) == report
    # `regression` takes no `apps` filter.
    regressions = expected_answers(model.rows())["regression"]
    for (run_a, run_b), report in regressions.items():
        assert wh.regression([run_a], [run_b]) == report


def assert_matches_model(wh: StudyWarehouse, model: Model) -> None:
    # The queries share one connection, as nested public calls do:
    # opening one per query would take most of the test's time.
    with wh._connection():
        assert_queries_match_model(wh, model)
    connection = sqlite3.connect(str(wh.path))
    try:
        orphans = connection.execute(
            "SELECT COUNT(*) FROM (SELECT run_id, app, session_id"
            " FROM patterns UNION SELECT run_id, app, session_id"
            " FROM causes) WHERE (run_id, app, session_id) NOT IN"
            " (SELECT run_id, app, session_id FROM sessions)"
        ).fetchone()[0]
        emptied = connection.execute(
            "SELECT (SELECT COUNT(*) FROM cause_rollup WHERE rows <= 0)"
            " + (SELECT COUNT(*) FROM pattern_rollup WHERE sessions <= 0)"
        ).fetchone()[0]
    finally:
        connection.close()
    assert (orphans, emptied) == (0, 0)


def run_history(path: Path, history: list) -> None:
    wh = StudyWarehouse(path)
    for run_id, ts in RUN_TS.items():
        wh.record_run(run_id, ts=ts)
    model = Model()
    ingested: list = []
    for step in history:
        if step[0] == "ingest":
            ingest(wh, *step[1:])
            model.ingest(*step[1:])
            ingested.append(step[1])
        elif step[0] == "prune":
            wh.prune(keep_runs=step[1])
            model.prune(step[1])
        elif step[0] == "tamper":
            if ingested:
                _, index, column, row = step
                key = ingested[index % len(ingested)]
                name = model.tamper(key, column, row)
                if name is not None:
                    tamper(wh, key, column, name)
        elif ingested:
            _, index, *rows = step
            key = ingested[index % len(ingested)]
            if step[0] == "quarantine":
                quarantine(wh, key)
                model.sweep(key)
                assert_matches_model(wh, model)
            ingest(wh, key, *rows)
            model.ingest(key, *rows)
        assert_matches_model(wh, model)


@settings(max_examples=30, deadline=None)
@given(history=steps)
# Shrunk from a rollup that skipped the subtract step: the replaced
# session's zero-total label stayed behind and ranked as a cause.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d0", {"async:x": (0, 0, 0, 0)}, {}),
    ("reingest", 0, "d1", None, {}),
])
# Shrunk from a rollup that kept rows whose count reached 0.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d1",
     {"async:x": (0, 0, 0, 0), "compute:a": (0, 0, 0, 0)}, {}),
    ("ingest", ("r0", "AppA", "s0"), "d0", None, {}),
])
# A swept session's cause rows leave the rollup with it, and a
# re-ingest under the same digest writes them back.
@example(history=[
    ("ingest", ("r1", "AppC", "s3"), "d0", {"gc:young": (2, 1, 1, 1)}, {}),
    ("quarantine", 0, "d0", {}, {}),
])
# A swept session's pattern rows stop counting in top_patterns, its
# occurrences and its session alike, while another run's session of
# the same pattern still counts.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d0", {"gc:young": (2, 1, 1, 1)},
     {"d(l)": (2, 1)}),
    ("ingest", ("r1", "AppA", "s1"), "d1", None, {"d(l)": (1, 1)}),
    ("quarantine", 0, "d2", None, {}),
])
# A cause row tampered to text leaves the rollup at once, and its
# session's re-ingest adds the new row without subtracting the old one
# a second time. A rollup kept by the session write path read (8, 2)
# for (3, 1) after the tamper, then (13, 3) for (8, 2) for good.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d0", {"gc:young": (5, 1, 5, 1)}, {}),
    ("ingest", ("r0", "AppB", "s1"), "d0", {"gc:young": (3, 1, 3, 1)}, {}),
    ("tamper", 0, "total_ns", 0),
    ("reingest", 0, "d1", {"gc:young": (5, 1, 5, 1)}, {}),
])
# A cause row whose perceptible column is tampered to text leaves every
# tally, totals included. A guard on the total and the episode count
# alone kept it in, at (8, 2) total and (3, 2) perceptible.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d0", {"gc:young": (5, 1, 5, 1)}, {}),
    ("ingest", ("r0", "AppB", "s1"), "d0", {"gc:young": (3, 1, 3, 1)}, {}),
    ("tamper", 0, "perceptible_ns", 0),
])
# A pattern row tampered to text stops counting before any sweep; the
# sweep then moves it aside without touching the rollup again.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d0", None, {"d(l)": (2, 1)}),
    ("ingest", ("r1", "AppA", "s1"), "d1", None, {"d(l)": (1, 1)}),
    ("tamper", 0, "count", 0),
    ("quarantine", 1, "d2", None, {"d(l)": (3, 2)}),
])
# Run r1 holds five pattern rows and r0 two, and one of r1's is then
# tampered to text: the top 3 cuts inside each ranking, and ranking
# r1's rollup rows as stored must match summing them across runs.
@example(history=[
    ("ingest", ("r1", "AppA", "s0"), "d0", None,
     {"d": (2, 1), "d(l)": (1, 1), "d(p)": (3, 0)}),
    ("ingest", ("r1", "AppB", "s1"), "d1", None,
     {"d(l)": (2, 1), "d(l(d))": (1, 0)}),
    ("ingest", ("r0", "AppA", "s2"), "d0", None,
     {"d": (4, 2), "d(p)": (1, 1)}),
    ("tamper", 1, "count", 0),
])
def test_rollup_answers_equal_the_v4_query(history):
    with tempfile.TemporaryDirectory() as scratch:
        run_history(Path(scratch) / "wh.sqlite", history)


def v5_file(path: Path) -> Path:
    """A v5 file as the v5 write path left it: cause rows summed into
    ``cause_rollup`` on write, then two ``causes`` values (a total and a
    perceptible one) and one ``patterns`` value tampered to text, which
    that rollup never saw."""
    connection = sqlite3.connect(str(path))
    for script in MIGRATIONS[:5]:
        connection.executescript(script)
    connection.execute(
        "INSERT INTO meta (key, value) VALUES ('study_schema_version', '5')"
    )
    connection.executemany(
        "INSERT INTO causes (run_id, app, session_id, label, total_ns,"
        " episodes, perceptible_ns, perceptible_episodes)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        [
            ("r0", "AppA", "s0", "gc:young", 5, 1, 5, 1),
            ("r0", "AppB", "s1", "gc:young", 3, 1, 3, 1),
            ("r0", "AppB", "s1", "iowait:db", 4, 2, 0, 0),
            ("r1", "AppA", "s0", "gc:young", 2, 1, 2, 1),
            ("r1", "AppB", "s1", "gc:young", 7, 1, 7, 1),
        ],
    )
    connection.executemany(
        "INSERT INTO patterns (run_id, app, session_id, pattern_key,"
        " count, perceptible) VALUES (?, ?, ?, ?, ?, ?)",
        [
            ("r0", "AppA", "s0", "d(l)", 2, 1),
            ("r0", "AppA", "s1", "d(l)", 3, 3),
            ("r0", "AppB", "s1", "d", 4, 0),
            ("r1", "AppA", "s0", "d(l)", 1, 1),
            ("r1", "AppA", "s0", "d(p)", 5, 2),
        ],
    )
    connection.execute(
        "INSERT INTO cause_rollup (run_id, label, app, total_ns, episodes,"
        " perceptible_ns, perceptible_episodes, rows)"
        " SELECT run_id, label, app, SUM(total_ns), SUM(episodes),"
        " SUM(perceptible_ns), SUM(perceptible_episodes), COUNT(*)"
        " FROM causes GROUP BY run_id, label, app"
    )
    connection.execute(
        "UPDATE causes SET total_ns = 'tampered'"
        " WHERE run_id = 'r0' AND session_id = 's0'"
    )
    connection.execute(
        "UPDATE causes SET perceptible_ns = 'tampered'"
        " WHERE run_id = 'r1' AND session_id = 's1'"
    )
    connection.execute(
        "UPDATE patterns SET count = 'tampered'"
        " WHERE run_id = 'r0' AND session_id = 's1' AND app = 'AppA'"
    )
    connection.commit()
    connection.close()
    return path


def test_v5_drift_is_repaired_on_open(tmp_path):
    """Opening a v5 file rebuilds ``cause_rollup`` (at v6, then at v7
    under the guard on every cause column) and backfills
    ``pattern_rollup`` under the numeric guard: the drifted rollup reads
    as the v4 reference, and ``top_patterns`` as the v5 statement."""
    path = v5_file(tmp_path / "v5.sqlite")
    combos = [
        (run_id, apps, perceptible_only)
        for run_id in ("r0", "r1")
        for apps in APP_FILTERS
        for perceptible_only in (False, True)
    ]
    causes = {combo: reference_cause_totals(path, *combo) for combo in combos}
    patterns = {
        (metric, apps, run_ids): reference_top_patterns(
            path, 1000, metric, apps, run_ids
        )
        for metric in ("perceptible_lag", "occurrences")
        for apps in APP_FILTERS
        for run_ids in (None, ("r0",), ("r1",))
    }
    assert causes[("r0", None, False)] == {
        "gc:young": (3, 1), "iowait:db": (4, 2),
    }
    assert causes[("r1", None, False)] == {"gc:young": (2, 1)}
    wh = StudyWarehouse(path)
    assert wh.schema_version() == SCHEMA_VERSION
    for combo, expected in causes.items():
        assert wh.cause_totals(*combo) == expected
    for (apps, perceptible_only) in {combo[1:] for combo in combos}:
        assert wh.diff("r0", "r1", apps, perceptible_only) == reference_diff(
            causes[("r0", apps, perceptible_only)],
            causes[("r1", apps, perceptible_only)], "r0", "r1",
        )
    for (metric, apps, run_ids), expected in patterns.items():
        assert wh.top_patterns(1000, metric, apps, run_ids) == expected
    assert [
        (p.pattern_key, p.occurrences, p.sessions)
        for p in wh.top_patterns(1000, "occurrences", ("AppA",))
    ] == [("d(p)", 5, 1), ("d(l)", 3, 2)]
    # The repaired file stays in step through the next session write.
    wh.ingest_session(
        "r0", "AppA", "s0", stats_for("d1"), trace_digest="d1",
        causes={"gc:young": (5, 1, 5, 1)}, pattern_counts={"d(l)": (1, 0)},
    )
    assert wh.cause_totals("r0") == reference_cause_totals(path, "r0")
    assert wh.cause_totals("r0")["gc:young"] == (8, 2)
    assert wh.top_patterns(1000) == reference_top_patterns(path, 1000)
