"""Warehouse queries held to a Python model of generated histories.

Schema v5 answers ``cause_totals`` and ``diff`` from ``cause_rollup``,
one row per (run, label, app) that every session write keeps in step
with the per-session ``causes`` rows. Hypothesis drives a warehouse of
2 runs x 3 apps x 4 sessions through random steps, each session
carrying pattern and cause rows:

- a new ingest, then re-ingests of a session ingested earlier: the
  same digest (a no-op), or a different digest that replaces it with a
  label or pattern set overlapping, missing or emptying the old one;
- ``quarantine_corrupt`` sweeping a tampered session row, then that
  session's re-ingest;
- ``prune``.

After every step:

- ``aggregate``, ``top_patterns`` (both metrics, ``sessions``
  included), ``cause_totals`` and ``diff`` (both orders) must equal
  :func:`oracle.expected_answers` over the sessions the history left
  stored, for each ``apps`` filter and both populations;
- both cause queries must equal :mod:`oracle`'s v4 reference, the
  ``GROUP BY`` over every ``causes`` row;
- no ``patterns`` or ``causes`` row may outlive its session row, and no
  rollup row may hold a ``rows`` count of 0 or less.

The ``@example`` histories are regression fixtures: two counterexamples
hypothesis shrank against broken write paths, and two sweeps whose
session's rows stayed behind in every table but ``sessions``.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.core.statistics import SessionStats
from repro.warehouse.store import StudyWarehouse

from oracle import expected_answers, reference_cause_totals

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
            "patterns": patterns,
            "causes": causes or {},
        }

    def sweep(self, key: tuple) -> None:
        self.sessions.pop(key, None)

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


def assert_matches_model(wh: StudyWarehouse, model: Model) -> None:
    for apps in APP_FILTERS:
        for run_ids in (None, ("r1",)):
            expected = expected_answers(model.rows(run_ids), apps)
            assert wh.aggregate(apps, run_ids) == expected["aggregate"]
            for metric in ("perceptible_lag", "occurrences"):
                assert wh.top_patterns(
                    1000, metric, apps, run_ids
                ) == expected[f"top_patterns.{metric}"]
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
    connection = sqlite3.connect(str(wh.path))
    try:
        orphans = connection.execute(
            "SELECT COUNT(*) FROM (SELECT run_id, app, session_id"
            " FROM patterns UNION SELECT run_id, app, session_id"
            " FROM causes) WHERE (run_id, app, session_id) NOT IN"
            " (SELECT run_id, app, session_id FROM sessions)"
        ).fetchone()[0]
        emptied = connection.execute(
            "SELECT COUNT(*) FROM cause_rollup WHERE rows <= 0"
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
def test_rollup_answers_equal_the_v4_query(history):
    with tempfile.TemporaryDirectory() as scratch:
        run_history(Path(scratch) / "wh.sqlite", history)
