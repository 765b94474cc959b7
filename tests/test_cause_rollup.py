"""The cause rollup held to the v4 cause query on generated histories.

Schema v5 answers ``cause_totals`` and ``diff`` from ``cause_rollup``,
one row per (run, label, app) that every session write keeps in step
with the per-session ``causes`` rows. Hypothesis drives a warehouse of
2 runs x 3 apps x 4 sessions through random steps:

- a new ingest, then re-ingests of a session ingested earlier: the
  same digest (a no-op), or a different digest that replaces it with a
  label set overlapping, missing or emptying the old one;
- ``quarantine_corrupt`` sweeping a tampered session row (its cause rows
  stay behind, orphaned), then that session's re-ingest;
- ``prune``.

After every step, both queries must equal :mod:`oracle`'s v4 reference,
the ``GROUP BY`` over every ``causes`` row, for each ``apps`` filter and
both populations, ``diff`` in both orders; and no rollup row may hold a
``rows`` count of 0 or less. The ``@example`` histories are regression
fixtures: two counterexamples hypothesis shrank against broken write
paths, and the orphaned-row case.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.core.statistics import SessionStats
from repro.warehouse.store import StudyWarehouse

from oracle import reference_cause_totals, reference_diff

#: ``r0`` is the older run, so ``prune(keep_runs=1)`` drops it first.
RUN_TS = {"r0": 100.0, "r1": 200.0}
APPS = ("AppA", "AppB", "AppC")
SESSIONS = ("s0", "s1", "s2", "s3")
LABELS = (
    "async:x", "compute:a", "compute:b", "gc:young", "iowait:db",
    "native:zip",
)
DIGESTS = ("d0", "d1", "d2")
#: ``apps`` filters: none, one app, two apps.
APP_FILTERS = (None, ("AppB",), ("AppA", "AppC"))

STATS = SessionStats(
    application="App", **{name: 1.0 for name in SessionStats._NUMERIC_FIELDS}
)

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
            cause_rows,
        ),
        st.tuples(
            st.just("reingest"), earlier, st.sampled_from(DIGESTS),
            cause_rows,
        ),
        st.tuples(
            st.just("quarantine"), earlier, st.sampled_from(DIGESTS),
            cause_rows,
        ),
        st.tuples(st.just("prune"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=10,
)


def ingest(wh: StudyWarehouse, key: tuple, digest: str, causes) -> None:
    run_id, app, session_id = key
    wh.ingest_session(
        run_id, app, session_id, STATS, trace_digest=digest,
        ts=RUN_TS[run_id], causes=causes,
    )


def quarantine(wh: StudyWarehouse, key: tuple) -> None:
    """Tamper with one session row and sweep it; its cause rows stay."""
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


def assert_matches_reference(wh: StudyWarehouse) -> None:
    for apps in APP_FILTERS:
        for perceptible_only in (False, True):
            reference = {
                run_id: reference_cause_totals(
                    wh.path, run_id, apps, perceptible_only
                )
                for run_id in RUN_TS
            }
            for run_id, expected in reference.items():
                actual = wh.cause_totals(run_id, apps, perceptible_only)
                assert actual == expected
                assert list(actual) == list(expected)
            for run_a, run_b in (("r0", "r1"), ("r1", "r0")):
                assert wh.diff(
                    run_a, run_b, apps, perceptible_only
                ) == reference_diff(
                    reference[run_a], reference[run_b], run_a, run_b
                )
    connection = sqlite3.connect(str(wh.path))
    try:
        emptied = connection.execute(
            "SELECT COUNT(*) FROM cause_rollup WHERE rows <= 0"
        ).fetchone()[0]
    finally:
        connection.close()
    assert emptied == 0


def run_history(path: Path, history: list) -> None:
    wh = StudyWarehouse(path)
    for run_id, ts in RUN_TS.items():
        wh.record_run(run_id, ts=ts)
    ingested: list = []
    for step in history:
        if step[0] == "ingest":
            ingest(wh, *step[1:])
            ingested.append(step[1])
        elif step[0] == "prune":
            wh.prune(keep_runs=step[1])
        elif ingested:
            _, index, digest, causes = step
            key = ingested[index % len(ingested)]
            if step[0] == "quarantine":
                quarantine(wh, key)
                assert_matches_reference(wh)
            ingest(wh, key, digest, causes)
        assert_matches_reference(wh)


@settings(max_examples=30, deadline=None)
@given(history=steps)
# Shrunk from a rollup that skipped the subtract step: the replaced
# session's zero-total label stayed behind and ranked as a cause.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d0", {"async:x": (0, 0, 0, 0)}),
    ("reingest", 0, "d1", None),
])
# Shrunk from a rollup that kept rows whose count reached 0.
@example(history=[
    ("ingest", ("r0", "AppA", "s0"), "d1",
     {"async:x": (0, 0, 0, 0), "compute:a": (0, 0, 0, 0)}),
    ("ingest", ("r0", "AppA", "s0"), "d0", None),
])
# Orphaned cause rows of a swept session row come out on re-ingest.
@example(history=[
    ("ingest", ("r1", "AppC", "s3"), "d0", {"gc:young": (2, 1, 1, 1)}),
    ("quarantine", 0, "d0", {}),
])
def test_rollup_answers_equal_the_v4_query(history):
    with tempfile.TemporaryDirectory() as scratch:
        run_history(Path(scratch) / "wh.sqlite", history)
