"""The benchmark's three workloads, driven through the public API.

Each workload owns its program set-up (:meth:`Workload.setup`), one
timed pass (:meth:`Workload.run_pass`) and the output checks that follow
every pass outside the timed windows. A failed check counts one failed
operation; the run then reports ``correct: false``.

- ``study_cold``: the paper's offline workflow on an empty cache — per
  application ``LagAlyzer.load(paths, workers=2)`` and
  ``summaries(engine=AnalysisEngine(workers=2, cache_dir=<empty>))``,
  then ``StudyWarehouse.record_run`` + ``ingest_bundles``.
- ``study_warm``: the same corpus as `.lilac` files over a warm cache;
  every pass reopens all applications (``workers=1``, all bundle hits),
  re-compacts (all dedup) and runs the fixed query mix.
- ``ingest_fleet``: 208 short sessions replayed as text lines through
  ``TraceClient`` into an in-process ``IngestServer``; ``stop()``
  compacts every spool into the warehouse.

Rounds of the fixed query mix (:data:`QUERIES`) run between a pass's
operations, against the warehouse an earlier pass wrote, so every
workload reports query latency.
"""

from __future__ import annotations

import math
import pickle
import shutil
import sqlite3
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import AnalysisEngine, IngestServer, LagAlyzer, StudyWarehouse, TraceClient
from repro.core.causegraph import diff_cause_totals
from repro.engine.cache import ResultCache
from repro.ingest.client import IngestClientError
from repro.lila.colfile import write_column_file
from repro.lila.source import build_store, open_source
from repro.warehouse.types import (
    AppAggregate,
    PatternAggregate,
    RegressionEntry,
    RegressionReport,
    SeriesPoint,
)

from measure import REFERENCE_CAL_S, PeakRss, Samples, calibrate, percentile

clock = time.perf_counter

#: Ingest time stamped on bundle-compacted sessions, so the series
#: query's day buckets never depend on the wall clock (2010-01-01).
INGEST_TS = 1_262_304_000.0
#: The cause ``study_warm``'s degraded run must be attributed to.
INJECTED_LABEL = "iowait:java.sql.Statement.executeQuery"
STAT_FIELDS = (
    "e2e_s", "in_episode_pct", "below_filter", "traced", "perceptible",
    "long_per_min", "distinct_patterns", "covered_episodes",
    "singleton_pct", "mean_descendants", "mean_depth",
)
TOP_N = 10


def _top(metric: str) -> Callable:
    def query(warehouse: StudyWarehouse, run_a: str, run_b: str) -> Any:
        return warehouse.top_patterns(TOP_N, metric, run_ids=[run_a])

    return query


#: The fixed query mix: ``(name, call(warehouse, run_a, run_b))``.
QUERIES: Tuple[Tuple[str, Callable], ...] = (
    ("aggregate", lambda wh, a, b: wh.aggregate(run_ids=[a])),
    ("top_patterns.perceptible_lag", _top("perceptible_lag")),
    ("top_patterns.occurrences", _top("occurrences")),
    ("series", lambda wh, a, b: wh.series("perceptible_rate", "day",
                                          run_ids=[a])),
    ("regression", lambda wh, a, b: wh.regression([a], [b])),
    ("diff", lambda wh, a, b: wh.diff(a, b)),
)


# ----------------------------------------------------------------------
# Python-side answers: what each query must return, merged from the
# reference's per-session rows.
# ----------------------------------------------------------------------


def _rate(rows: List[dict]) -> float:
    traced = sum(row["stats"].traced for row in rows)
    return sum(row["stats"].perceptible for row in rows) * 1.0 / max(traced, 1)


def _causes(run: Dict[str, List[dict]]) -> Dict[str, Tuple[int, int]]:
    totals: Dict[str, Tuple[int, int]] = {}
    for rows in run.values():
        for row in rows:
            for label, (ns, episodes) in row["causes"].items():
                prev = totals.get(label, (0, 0))
                totals[label] = (prev[0] + ns, prev[1] + episodes)
    return totals


def _top_patterns(run: Dict[str, List[dict]], metric: str) -> List[PatternAggregate]:
    merged: Dict[Tuple[str, str], List[int]] = {}
    for app, rows in run.items():
        for row in rows:
            for key, (count, perceptible) in row["patterns"].items():
                entry = merged.setdefault((app, key), [0, 0, 0])
                entry[0] += count
                entry[1] += perceptible
                entry[2] += 1
    if metric == "perceptible_lag":
        rank = lambda item: (-item[1][1], -item[1][0], item[0])  # noqa: E731
    else:
        rank = lambda item: (-item[1][0], -item[1][1], item[0])  # noqa: E731
    return [
        PatternAggregate(app, key, count, perceptible, sessions)
        for (app, key), (count, perceptible, sessions)
        in sorted(merged.items(), key=rank)[:TOP_N]
    ]


def expected_answers(
    run_a: Dict[str, List[dict]], run_b: Dict[str, List[dict]],
    name_a: str, name_b: str,
) -> Dict[str, Any]:
    """Every :data:`QUERIES` answer, from per-session reference rows.

    ``run_a``/``run_b`` map each application to its session rows (as
    written by ``inputs.reference``).
    """
    apps = sorted(run_a)
    bucket = float(int(INGEST_TS) // 86400 * 86400)
    entries = []
    for app in sorted(set(run_a) | set(run_b)):
        base = run_a.get(app, [])
        cand = run_b.get(app, [])
        base_value = _rate(base) if base else 0.0
        cand_value = _rate(cand) if cand else 0.0
        delta = cand_value - base_value
        entries.append(RegressionEntry(
            app, base_value, cand_value, delta, delta > 0.0,
            len(base), len(cand),
        ))
    return {
        "aggregate": [
            AppAggregate(
                app, len(run_a[app]),
                int(sum(r["stats"].traced for r in run_a[app])),
                int(sum(r["stats"].perceptible for r in run_a[app])),
                float(sum(r["stats"].e2e_s for r in run_a[app])),
                sum(r["stats"].long_per_min for r in run_a[app])
                / len(run_a[app]),
            )
            for app in apps
        ],
        "top_patterns.perceptible_lag": _top_patterns(run_a, "perceptible_lag"),
        "top_patterns.occurrences": _top_patterns(run_a, "occurrences"),
        "series": [
            SeriesPoint(app, bucket, len(run_a[app]), _rate(run_a[app]))
            for app in apps
        ],
        "regression": RegressionReport(
            "perceptible_rate", 0.0, (name_a,), (name_b,), entries
        ),
        "diff": diff_cause_totals(_causes(run_a), _causes(run_b), name_a, name_b),
    }


def same(actual: Any, expected: Any) -> bool:
    """Structural equality; floats agree to 1e-9 (SQL sums in its own order)."""
    if isinstance(expected, float) or isinstance(actual, float):
        return isinstance(actual, (int, float)) and math.isclose(
            actual, expected, rel_tol=1e-9, abs_tol=1e-9
        )
    if is_dataclass(expected):
        return type(actual) is type(expected) and all(
            same(getattr(actual, f.name), getattr(expected, f.name))
            for f in fields(expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple))
            and len(actual) == len(expected)
            and all(same(a, e) for a, e in zip(actual, expected))
        )
    return actual == expected


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


class Workload:
    """Shared plumbing: timed windows, op ids, the query mix, checks."""

    name = ""
    workers = 1
    #: Program set-ups per run (``setup_s`` is their median).
    setup_repeats = 3
    #: Passes a run makes at least, so best-of-N has repetitions to pick
    #: from and the report's percentiles have their samples.
    min_passes = 1

    def __init__(self, work: Path, manifest: dict,
                 reference: Optional[dict] = None) -> None:
        self.work = work
        self.reference = reference
        self.tracer: Any = None
        self.rss = PeakRss()
        self.timed_s = 0.0
        self.ops = 0
        self.passes = 0
        #: ``(warehouse, run_a, run_b)`` the query mix runs against.
        self.queried: Optional[Tuple[StudyWarehouse, str, str]] = None
        #: Expected query answers, or ``None`` to check only for errors.
        self.expected: Optional[Dict[str, Any]] = None
        self.answers: List[Tuple[str, Any]] = []
        self.apps = [
            (entry["app"], [f["path"] for f in entry["files"]])
            for entry in manifest["apps"]
        ]
        self.records = sum(
            f["lines"] for entry in manifest["apps"] for f in entry["files"]
        )
        self.traces = sum(len(paths) for _app, paths in self.apps)

    @contextmanager
    def window(self) -> Iterator[None]:
        """A timed window: peak RSS is watched and its wall time counted."""
        with self.rss:
            start = clock()
            try:
                yield
            finally:
                self.timed_s += clock() - start
                if self.tracer is not None:
                    self.tracer.op = 0

    def calibrate(self, samples: Samples) -> None:
        """Time the host's speed yardstick between two operations.

        Runs inside a timed window but is not the program's work, so its
        time is taken back out of the window's wall time.
        """
        elapsed = calibrate()
        samples.add("cal_s", elapsed)
        self.timed_s -= elapsed

    def begin_op(self) -> None:
        """Start the next operation (the id spans are filed under)."""
        self.ops += 1
        if self.tracer is not None:
            self.tracer.op = self.ops

    def setup(self) -> None:
        """Program set-up, repeated :attr:`setup_repeats` times per run."""

    def run_pass(self, samples: Samples) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the set-up left running."""

    def query_round(self, samples: Samples) -> None:
        """One round of the query mix, each query timed.

        Rounds run against :attr:`queried` — the warehouse an earlier
        pass wrote — between the operations of the current pass, so
        query samples spread over the whole run instead of bunching up
        after each pass. Answers are checked by :meth:`check_answers`.
        """
        if self.queried is None:
            return
        warehouse, run_a, run_b = self.queried
        for name, query in QUERIES:
            self.begin_op()
            start = clock()
            try:
                answer = query(warehouse, run_a, run_b)
            except Exception as error:  # a failed query is a failed op
                answer = error
            samples.add("query_s", clock() - start, key=name)
            self.answers.append((name, answer))

    def check_answers(self, samples: Samples) -> List[Tuple[str, Any]]:
        """Check and clear the answers collected since the last call."""
        answers, self.answers = self.answers, []
        for name, answer in answers:
            ok = not isinstance(answer, Exception) and (
                self.expected is None or same(answer, self.expected[name])
            )
            samples.check(ok, f"query {name}: {answer!r:.200}")
        return answers

    def check_summaries(self, samples: Samples, results: Dict[str, Any],
                        run: str = "base") -> None:
        refs = self.reference[run]
        for app, _paths in self.apps:
            ok = pickle.dumps(results.get(app)) == refs[app]["summaries"]
            samples.check(ok, f"{app}: summaries differ from the serial reference")

    def sessions_of(self, run: str = "base") -> Dict[str, List[dict]]:
        return {app: self.reference[run][app]["sessions"]
                for app, _paths in self.apps}

    def throughput(self, samples: Samples) -> Tuple[float, int]:
        """Corpus records ÷ best-of pass time, and the passes behind it.

        The pass time is the sum of every application's fastest load +
        summaries plus the fastest compaction (see :meth:`Samples.best`).
        """
        pass_s = samples.best("op_s") + samples.best("compact_s")
        return self.records / pass_s, self.passes

    def measured(self, samples: Samples) -> Dict[str, Tuple[float, int]]:
        """Best-of-N timings as measured: ``name -> (value, N)``.

        The query mix time is the sum of every query's fastest answer.
        """
        return {
            "records_per_s": self.throughput(samples),
            "query_mix_ms": (1000.0 * samples.best("query_s"),
                             len(samples.get("query_s")) // len(QUERIES)),
            "calibration_ms": (1000.0 * samples.best("cal_s"),
                               len(samples.get("cal_s"))),
        }

    def metrics(self, samples: Samples) -> Dict[str, Tuple[float, int]]:
        """End-to-end metrics: the measured timings at reference speed.

        The host's speed drifts by 20 % and more over minutes (other
        tenants), which would swamp any bound between two sets of runs.
        Each timing is therefore scaled by how much slower the
        calibration task ran in this run than :data:`REFERENCE_CAL_S`.
        """
        measured = self.measured(samples)
        slowdown = measured["calibration_ms"][0] / (1000.0 * REFERENCE_CAL_S)
        rate, passes = measured["records_per_s"]
        mix_ms, rounds = measured["query_mix_ms"]
        return {
            "records_per_s": (rate * slowdown, passes),
            "query_mix_ms": (mix_ms / slowdown, rounds),
        }

    def report(self, samples: Samples) -> List[Tuple[str, Optional[float], str, int]]:
        """Workload-specific report lines: ``(name, value, unit, n)``."""
        units = {"records_per_s": "records/s", "query_mix_ms": "ms",
                 "calibration_ms": "ms"}
        return [
            (f"measured.{name}", value, units[name], n)
            for name, (value, n) in self.measured(samples).items()
        ]


def _rows_in_warehouse(path: Path, run_id: str) -> Dict[Tuple[str, str], tuple]:
    connection = sqlite3.connect(str(path))
    try:
        rows = connection.execute(
            "SELECT app, session_id, records, " + ", ".join(STAT_FIELDS)
            + " FROM sessions WHERE run_id = ?", (run_id,),
        ).fetchall()
    finally:
        connection.close()
    return {(row[0], row[1]): tuple(row[2:]) for row in rows}


class StudyCold(Workload):
    name = "study_cold"
    workers = 2
    # The first pass has no earlier warehouse to query.
    min_passes = 3
    run_id = "cold"

    def __init__(self, work: Path, manifest: dict,
                 reference: Optional[dict] = None) -> None:
        super().__init__(work, manifest, reference)
        sessions = self.sessions_of()
        self.expected = expected_answers(sessions, sessions,
                                         self.run_id, self.run_id)

    def run_pass(self, samples: Samples) -> None:
        root = self.work / f"pass-{self.passes}"
        cache_dir = root / "cache"
        warehouse_path = root / "warehouse.sqlite"
        results: Dict[str, Any] = {}
        quarantined: List[Any] = []
        with self.window():
            for app, paths in self.apps:
                self.begin_op()
                op_start = clock()
                analyzer = LagAlyzer.load(paths, workers=self.workers)
                engine = AnalysisEngine(workers=self.workers, cache_dir=cache_dir)
                results[app] = analyzer.summaries(engine=engine)
                samples.add("op_s", clock() - op_start, key=app)
                quarantined.extend(engine.quarantined)
                self.query_round(samples)
                self.calibrate(samples)
            self.begin_op()
            compact_start = clock()
            warehouse = StudyWarehouse(warehouse_path)
            warehouse.record_run(self.run_id, source="bundles")
            compacted = warehouse.ingest_bundles(
                ResultCache(cache_dir), self.run_id, ts=INGEST_TS
            )
            samples.add("compact_s", clock() - compact_start)
        self.check_answers(samples)
        self.check_summaries(samples, results)
        samples.check(not quarantined, f"quarantined traces: {quarantined}")
        samples.check(
            compacted == {"ingested": self.traces, "skipped": 0, "ineligible": 0},
            f"ingest_bundles returned {compacted}",
        )
        stored = _rows_in_warehouse(warehouse_path, self.run_id)
        for app, rows in self.sessions_of().items():
            for row in rows:
                want = tuple(float(getattr(row["stats"], f)) for f in STAT_FIELDS)
                got = stored.get((app, row["session_id"]))
                samples.check(
                    got is not None and got[1:] == want,
                    f"{app}/{row['session_id']}: warehouse row {got} != {want}",
                )
        # The next pass queries this pass's warehouse; the one before
        # is no longer needed.
        shutil.rmtree(self.work / f"pass-{self.passes - 1}", ignore_errors=True)
        self.queried = (warehouse, self.run_id, self.run_id)
        self.passes += 1

    def report(self, samples: Samples) -> List[Tuple[str, Optional[float], str, int]]:
        apps = samples.get("op_s")
        return super().report(samples) + [
            ("app_ms_p50", _ms(apps, 0.5), "ms", len(apps)),
            _best_compaction(samples),
        ]


class StudyWarm(Workload):
    name = "study_warm"
    workers = 1
    setup_repeats = 2
    min_passes = 20
    runs = ("base", "degraded")

    def __init__(self, work: Path, manifest: dict,
                 reference: Optional[dict] = None) -> None:
        super().__init__(work, manifest, reference)
        self.degraded = {
            entry["app"]: [f["path"] for f in entry["files"]]
            for entry in manifest["degraded"]
        }
        self.setups = 0
        self.root: Optional[Path] = None
        base = self.sessions_of("base")
        degraded = dict(base)
        degraded.update({app: self.reference["degraded"][app]["sessions"]
                         for app in self.degraded})
        self.expected = expected_answers(base, degraded, *self.runs)

    def setup(self) -> None:
        """Convert to `.lilac`, fill the caches, fill both warehouse runs.

        The base cache holds the corpus; the degraded cache holds only
        the degraded application, and the degraded run takes the other
        applications' rows from the base cache, whose bundles are the
        same traces.
        """
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        root = self.root = self.work / f"setup-{self.setups}"
        self.setups += 1

        def convert(paths: List[str], directory: Path) -> List[str]:
            out = []
            for path in paths:
                target = directory / (Path(path).name + "c")
                write_column_file(build_store(open_source(path)), target)
                out.append(str(target))
            return out

        def fill(cache_dir: Path, lilac: Dict[str, List[str]]) -> None:
            for paths in lilac.values():
                LagAlyzer.load(paths, workers=self.workers).summaries(
                    engine=AnalysisEngine(workers=self.workers, cache_dir=cache_dir)
                )

        self.lilac = {app: convert(paths, root / "lilac")
                      for app, paths in self.apps}
        self.caches = {run: root / f"cache-{run}" for run in self.runs}
        fill(self.caches["base"], self.lilac)
        fill(self.caches["degraded"], {
            app: convert(paths, root / "lilac-degraded")
            for app, paths in self.degraded.items()
        })
        base, degraded = self.runs
        unchanged = [app for app, _paths in self.apps if app not in self.degraded]
        self.warehouse = StudyWarehouse(root / "warehouse.sqlite")
        for run in self.runs:
            self.warehouse.record_run(run, source="bundles")
        self.warehouse.ingest_bundles(
            ResultCache(self.caches[base]), base, ts=INGEST_TS
        )
        self.warehouse.ingest_bundles(
            ResultCache(self.caches[base]), degraded, applications=unchanged,
            ts=INGEST_TS,
        )
        self.warehouse.ingest_bundles(
            ResultCache(self.caches[degraded]), degraded, ts=INGEST_TS
        )
        self.queried = (self.warehouse, *self.runs)

    def run_pass(self, samples: Samples) -> None:
        results: Dict[str, Any] = {}
        cache_dir = self.caches["base"]
        with self.window():
            start = clock()
            for app, _paths in self.apps:
                self.begin_op()
                op_start = clock()
                analyzer = LagAlyzer.load(self.lilac[app], workers=self.workers)
                results[app] = analyzer.summaries(
                    engine=AnalysisEngine(workers=self.workers, cache_dir=cache_dir)
                )
                samples.add("op_s", clock() - op_start, key=app)
            self.begin_op()
            compact_start = clock()
            compacted = self.warehouse.ingest_bundles(
                ResultCache(cache_dir), "base", ts=INGEST_TS
            )
            end = clock()
            samples.add("compact_s", end - compact_start)
            samples.add("pass_s", end - start)
            self.query_round(samples)
            self.calibrate(samples)
        answers = self.check_answers(samples)
        self.check_summaries(samples, results)
        samples.check(
            compacted == {"ingested": 0, "skipped": self.traces, "ineligible": 0},
            f"re-compaction was not all dedup: {compacted}",
        )
        for name, answer in answers:
            if name == "diff":
                top = answer.deltas[0].label if getattr(answer, "deltas", None) else None
                samples.check(top == INJECTED_LABEL,
                              f"diff ranked {top!r} first, not {INJECTED_LABEL!r}")
        self.passes += 1

    def report(self, samples: Samples) -> List[Tuple[str, Optional[float], str, int]]:
        reopen = samples.get("pass_s")
        queries = samples.get("query_s")
        return super().report(samples) + [
            ("reopen_ms_p50", _ms(reopen, 0.5), "ms", len(reopen)),
            ("reopen_ms_p90", _ms(reopen, 0.9), "ms", len(reopen)),
            ("query_ms_p50", _ms(queries, 0.5), "ms", len(queries)),
            ("query_ms_p95", _ms(queries, 0.95), "ms", len(queries)),
            _best_compaction(samples),
        ]


class IngestFleet(Workload):
    """The live path, as 13 daemon lifetimes of one session per app.

    Every round starts an ``IngestServer`` on the pass's spool directory
    and warehouse, replays one session of each application through it
    and stops it, which compacts the round's spools. Rounds have the
    same application mix, so their throughput and compaction times are
    repetitions of one operation (see :meth:`Samples.best`).
    """

    name = "ingest_fleet"
    workers = 1
    # Two passes, so best-of-N spans ~25 s rather than one slow spell of
    # the host, and the second pass has a full warehouse to query.
    min_passes = 2
    #: Query rounds after each daemon round (13 rounds, so 26 a pass).
    query_rounds = 2
    run_id = "fleet"
    batch_records = 256
    queue_limit = 8
    in_flight = 2

    def __init__(self, work: Path, manifest: dict,
                 reference: Optional[dict] = None) -> None:
        super().__init__(work, manifest, reference)
        count = max(len(entry["files"]) for entry in manifest["apps"])
        # Each session carries the generator's line count: the reference
        # that spool and warehouse record counts must match.
        self.rounds = [
            [
                (f"{entry['app']}-{index:04d}", entry["app"], entry["family"],
                 entry["files"][index]["path"], entry["files"][index]["lines"])
                for entry in manifest["apps"]
                if index < len(entry["files"])
            ]
            for index in range(count)
        ]
        self.server: Optional[IngestServer] = None

    def _start_server(self) -> IngestServer:
        root = self.work / f"pass-{self.passes}"
        return IngestServer(
            spool_dir=root / "spool",
            queue_limit=self.queue_limit,
            study_warehouse=StudyWarehouse(root / "warehouse.sqlite"),
            run_id=self.run_id,
        ).start()

    def setup(self) -> None:
        """Start the daemon the next round replays into."""
        self.close()
        self.server = self._start_server()

    def _replay(self, server: IngestServer, sessions: List[tuple],
                samples: Samples, sent: Dict[str, int],
                outcomes: Dict[str, Tuple[TraceClient, Optional[Exception]]]
                ) -> None:
        """One round: closed loop, one generator thread, 2 in flight."""
        in_flight: deque = deque()

        def finish() -> None:
            session, client, started = in_flight.popleft()
            error = None
            try:
                client.close()
            except IngestClientError as failure:
                error = failure
            samples.add("session_s", clock() - started)
            outcomes[session] = (client, error)

        # The generator reads the round's lines before the clock starts.
        replay = []
        for session, app, family, path, _expected in sessions:
            lines = Path(path).read_text(encoding="utf-8").split("\n")
            if lines and not lines[-1]:
                lines.pop()
            sent[session] = len(lines)
            replay.append((session, app, family, lines))
        records = sum(len(lines) for *_ids, lines in replay)
        with self.window():
            first = clock()
            for session, app, family, lines in replay:
                client = TraceClient(
                    server.address, session=session, application=app,
                    family=family, batch_records=self.batch_records,
                )
                self.begin_op()
                in_flight.append((session, client, clock()))
                client.extend(lines)
                if len(in_flight) == self.in_flight:
                    finish()
            while in_flight:
                finish()
            sent_at = clock()
            self.begin_op()
            server.stop()
            stopped_at = clock()
            samples.add("send_rate", records / (sent_at - first))
            samples.add("compact_s", stopped_at - sent_at)
            # Throughput: records ingested, first send to the end of the
            # compaction that makes them queryable.
            samples.add("rate", records / (stopped_at - first))
            for _ in range(self.query_rounds):
                self.query_round(samples)
            self.calibrate(samples)

    def run_pass(self, samples: Samples) -> None:
        sent: Dict[str, int] = {}
        outcomes: Dict[str, Tuple[TraceClient, Optional[Exception]]] = {}
        spools: Dict[str, Path] = {}
        for sessions in self.rounds:
            server = self.server or self._start_server()
            self.server = None
            self._replay(server, sessions, samples, sent, outcomes)
            spools.update(
                (state.session, state.spool.path) for state in server.sessions()
            )
        warehouse = server.study_warehouse
        self.check_answers(samples)
        stored = _rows_in_warehouse(warehouse.path, self.run_id)
        for sessions in self.rounds:
            for session, app, _family, _path, expected in sessions:
                client, error = outcomes[session]
                spooled = _line_count(spools.get(session))
                row = stored.get((app, session))
                samples.check(
                    error is None and client.dropped_records == 0
                    and sent[session] == spooled == expected
                    and row is not None and row[0] == expected,
                    f"{session}: expected {expected}, sent {sent[session]}, "
                    f"spooled {spooled}, warehouse {row and row[0]}, "
                    f"error {error!r}",
                )
        total = sum(len(sessions) for sessions in self.rounds)
        samples.check(len(stored) == total,
                      f"warehouse holds {len(stored)} of {total} sessions")
        shutil.rmtree(self.work / f"pass-{self.passes - 1}", ignore_errors=True)
        self.queried = (warehouse, self.run_id, self.run_id)
        self.passes += 1

    def throughput(self, samples: Samples) -> Tuple[float, int]:
        """The best round's throughput (rounds repeat one mix)."""
        rates = samples.get("rate")
        return max(rates), len(rates)

    def report(self, samples: Samples) -> List[Tuple[str, Optional[float], str, int]]:
        sessions = samples.get("session_s")
        rates = samples.get("send_rate")
        return super().report(samples) + [
            ("ingest_records_per_s", max(rates), "records/s", len(rates)),
            ("session_ms_p50", _ms(sessions, 0.5), "ms", len(sessions)),
            ("session_ms_p95", _ms(sessions, 0.95), "ms", len(sessions)),
            _best_compaction(samples),
        ]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _best_compaction(samples: Samples) -> Tuple[str, float, str, int]:
    return ("compact_s", samples.best("compact_s"), "s",
            len(samples.get("compact_s")))


def _ms(samples: List[float], q: float) -> Optional[float]:
    """A percentile in milliseconds, or ``None`` when it is unsupported."""
    value = percentile(samples, q)
    return None if value is None else 1000.0 * value


def _line_count(path: Optional[Path]) -> int:
    if path is None or not Path(path).exists():
        return -1
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


WORKLOADS = {cls.name: cls for cls in (StudyCold, StudyWarm, IngestFleet)}
