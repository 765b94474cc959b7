"""The object-model oracle the column kernels are checked against.

Every registered analysis maps a trace through the column kernels of
:mod:`repro.core.store.kernels` alone. This module rebuilds each
built-in analysis's per-trace partial from the object functions
instead, over episode populations split with ``trace_episodes`` and
``Episode.is_perceptible``:

- ``triggers``, ``location``, ``concurrency``, ``threadstates``: the
  modules' ``summarize`` over both populations;
- ``causes``: :func:`repro.core.causegraph.tally_causes`;
- ``statistics``: :func:`repro.core.statistics.session_stats`;
- ``occurrence`` and ``patterns``: the pattern-key loop over episodes
  that the analyses ran on object traces before every map became a
  kernel.

The partials are reduced with the registered analyses' own ``reduce``,
so a difference between :class:`OracleAnalyzer` and
:class:`~repro.LagAlyzer` over the same traces is a kernel drifting
from the object semantics.

:func:`reference_build_store` is the same kind of oracle for ingestion:
the record-stream build that the line kernel behind
:func:`repro.lila.source.build_store` replaced.

:func:`reference_cause_totals` and :func:`reference_diff` are the
study warehouse's ``cause_totals`` and ``diff`` as schema v4 answered
them: a ``GROUP BY`` over every session's ``causes`` rows, ranked by
sorting the union of both runs' labels. :func:`reference_top_patterns`
is its ``top_patterns`` as schema v5 answered it, the same kind of
``GROUP BY`` over every session's ``patterns`` rows, and
:func:`reference_rollup_top_patterns` as schema v6 to v8 answered it
for every filter: a ``GROUP BY`` summing ``pattern_rollup`` rows across
runs.
:func:`expected_answers` is the same warehouse's queries merged in
Python from the session rows a history left stored, in the shape of
perfbench's ``expected_answers``.
"""

from __future__ import annotations

import dataclasses
import enum
import sqlite3
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import causegraph, concurrency, location, threadstates, triggers
from repro.core.analyses import DualPartial, PatternCountsPartial, get_analysis
from repro.core.analyzer import LagAlyzer
from repro.core.errors import LagAlyzerError, TraceFormatError
from repro.core.episodes import Episode, trace_episodes
from repro.core.family import family_of
from repro.core.patterns import pattern_key
from repro.core.statistics import session_stats
from repro.core.store import ColumnarBuilder, ColumnarTrace
from repro.core.trace import Trace
from repro.lila.source import TraceSource
from repro.obs import runtime as obs_runtime
from repro.warehouse.types import (
    AppAggregate,
    PatternAggregate,
    RegressionEntry,
    RegressionReport,
    SeriesPoint,
)


def object_trace(trace: Trace) -> Trace:
    """``trace`` as a plain object graph that carries no columnar store."""
    store = getattr(trace, "columnar", None)
    return trace if store is None else store.to_trace()


def _split(trace: Trace, config: Any) -> Tuple[List[Episode], List[Episode]]:
    """(all, perceptible) episode objects of one trace under ``config``."""
    episodes = trace_episodes(trace, config)
    threshold = config.perceptible_threshold_ms
    return episodes, [ep for ep in episodes if ep.is_perceptible(threshold)]


def _dual(summarize: Callable[[List[Episode], Trace, Any], Any]) -> Callable:
    """A map applying ``summarize(episodes, trace, config)`` to both
    populations of a trace."""

    def map_trace(trace: Trace, config: Any) -> DualPartial:
        population, perceptible = _split(trace, config)
        return DualPartial(
            all=summarize(population, trace, config),
            perceptible=summarize(perceptible, trace, config),
        )

    return map_trace


def _pattern_counts(trace: Trace, config: Any) -> PatternCountsPartial:
    counts: Dict[str, Tuple[int, int]] = {}
    excluded = 0
    threshold = config.perceptible_threshold_ms
    for episode in trace_episodes(trace, config):
        if not episode.has_structure:
            excluded += 1
            continue
        key = pattern_key(episode, include_gc=config.include_gc_in_patterns)
        count, perceptible = counts.get(key, (0, 0))
        counts[key] = (
            count + 1,
            perceptible + (1 if episode.is_perceptible(threshold) else 0),
        )
    return PatternCountsPartial(counts=counts, excluded=excluded)


def _statistics(trace: Trace, config: Any) -> Any:
    return session_stats(trace, config.perceptible_threshold_ms)


#: Object-model map of every built-in analysis, keyed by registry name.
ORACLE_MAPS: Dict[str, Callable[[Trace, Any], Any]] = {
    "occurrence": _pattern_counts,
    "triggers": _dual(
        lambda eps, trace, config: triggers.summarize(
            eps, family=family_of(trace.metadata)
        )
    ),
    "location": _dual(
        lambda eps, trace, config: location.summarize(
            eps, library_prefixes=config.library_prefixes
        )
    ),
    "concurrency": _dual(lambda eps, trace, config: concurrency.summarize(eps)),
    "threadstates": _dual(
        lambda eps, trace, config: threadstates.summarize(eps)
    ),
    "statistics": _statistics,
    "patterns": _pattern_counts,
    "causes": _dual(lambda eps, trace, config: causegraph.tally_causes(eps)),
}


class OracleAnalyzer(LagAlyzer):
    """A :class:`~repro.LagAlyzer` whose summaries come from the oracle.

    Every named summary (``trigger_summary``, ``session_stats``, …)
    routes through :meth:`summary`, so :func:`repro.core.export.
    analysis_to_dict` of an oracle analyzer is the object-model answer.
    """

    def __init__(self, traces: Sequence[Trace], config: Any = None) -> None:
        super().__init__(traces, config=config)
        self.object_traces = [object_trace(trace) for trace in self.traces]

    def summary(self, name: str, perceptible_only: bool = False) -> Any:
        partials = [
            ORACLE_MAPS[name](trace, self.config)
            for trace in self.object_traces
        ]
        return get_analysis(name).reduce(
            partials, perceptible_only=perceptible_only
        )

    def summaries(self) -> Dict[str, Any]:
        return {name: self.summary(name) for name in ORACLE_MAPS}


def reference_build_store(source: TraceSource) -> ColumnarTrace:
    """``source`` built the way :func:`repro.lila.source.build_store`
    built it before text parsed straight into columns.

    The reference record stream (:meth:`TraceSource.records`) folded
    through :meth:`ColumnarBuilder.feed`, with the same error re-typing
    and the same ``lila.records_streamed`` count.
    """
    builder = ColumnarBuilder()
    feed = builder.feed
    for record in source.records():
        try:
            feed(record)
        except TraceFormatError as error:
            raise source.annotate(error)
        except LagAlyzerError as error:
            raise TraceFormatError(
                f"line {source.line}: {error}",
                path=source.path,
                line=source.line,
            ) from None
    builder.flush_samples()
    try:
        builder.check_required_meta()
        metadata = builder.build_metadata()
    except TraceFormatError as error:
        raise source.annotate(error)
    try:
        store = builder.finish(metadata)
    except TraceFormatError as error:
        raise source.annotate(error)
    except LagAlyzerError as error:
        raise TraceFormatError(str(error), path=source.path) from None
    if obs_runtime.current() is not None:
        obs_runtime.count("lila.records_streamed", builder.record_count)
    return store


def plain(value: Any) -> Any:
    """A summary as comparable plain data (dicts compare unordered)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, (enum.Enum, str, int, float, type(None))):
        return value
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return {name: plain(getattr(value, name)) for name in slots}
    return {key: plain(item) for key, item in vars(value).items()}


def reference_cause_totals(
    path: Union[str, Path],
    run_id: str,
    apps: Optional[Sequence[str]] = None,
    perceptible_only: bool = False,
) -> Dict[str, Tuple[int, int]]:
    """One run's cause tally summed off every ``causes`` row of a
    warehouse file, with the v4 statement and a ``typeof`` guard on
    every summed column."""
    if perceptible_only:
        value_cols = "SUM(perceptible_ns), SUM(perceptible_episodes)"
    else:
        value_cols = "SUM(total_ns), SUM(episodes)"
    clauses = [
        "run_id = ?",
        "typeof(total_ns) IN ('integer', 'real')",
        "typeof(episodes) IN ('integer', 'real')",
        "typeof(perceptible_ns) IN ('integer', 'real')",
        "typeof(perceptible_episodes) IN ('integer', 'real')",
    ]
    params: List[Any] = [run_id]
    if apps:
        clauses.append(f"app IN ({', '.join('?' * len(apps))})")
        params.extend(apps)
    connection = sqlite3.connect(str(path))
    try:
        rows = connection.execute(
            f"SELECT label, {value_cols} FROM causes"
            f" WHERE {' AND '.join(clauses)} GROUP BY label ORDER BY label",
            params,
        ).fetchall()
    finally:
        connection.close()
    return {row[0]: (int(row[1] or 0), int(row[2] or 0)) for row in rows}


def reference_top_patterns(
    path: Union[str, Path],
    n: int = 10,
    metric: str = "perceptible_lag",
    apps: Optional[Sequence[str]] = None,
    run_ids: Optional[Sequence[str]] = None,
) -> List[PatternAggregate]:
    """The N worst patterns summed off every ``patterns`` row of a
    warehouse file, with the v5 statement and its ``typeof`` guard."""
    if metric == "perceptible_lag":
        order = "total_perceptible DESC, total_count DESC"
    else:
        order = "total_count DESC, total_perceptible DESC"
    clauses = [
        "typeof(count) IN ('integer', 'real')",
        "typeof(perceptible) IN ('integer', 'real')",
    ]
    params: List[Any] = []
    if apps:
        clauses.append(f"app IN ({', '.join('?' * len(apps))})")
        params.extend(apps)
    if run_ids:
        clauses.append(f"run_id IN ({', '.join('?' * len(run_ids))})")
        params.extend(run_ids)
    connection = sqlite3.connect(str(path))
    try:
        rows = connection.execute(
            "SELECT app, pattern_key, SUM(count) AS total_count,"
            " SUM(perceptible) AS total_perceptible, COUNT(*)"
            f" FROM patterns WHERE {' AND '.join(clauses)}"
            " GROUP BY app, pattern_key"
            f" ORDER BY {order}, app, pattern_key"
            " LIMIT ?",
            params + [int(n)],
        ).fetchall()
    finally:
        connection.close()
    return [
        PatternAggregate(row[0], row[1], int(row[2] or 0), int(row[3] or 0),
                         int(row[4] or 0))
        for row in rows
    ]


def reference_rollup_top_patterns(
    path: Union[str, Path],
    n: int = 10,
    metric: str = "perceptible_lag",
    apps: Optional[Sequence[str]] = None,
    run_ids: Optional[Sequence[str]] = None,
) -> List[PatternAggregate]:
    """The N worst patterns summed off the ``pattern_rollup`` rows of a
    warehouse file, with the v6 statement, whatever the run filter."""
    if metric == "perceptible_lag":
        order = "total_perceptible DESC, total_count DESC"
    else:
        order = "total_count DESC, total_perceptible DESC"
    clauses: List[str] = []
    params: List[Any] = []
    if apps:
        clauses.append(f"app IN ({', '.join('?' * len(apps))})")
        params.extend(apps)
    if run_ids:
        clauses.append(f"run_id IN ({', '.join('?' * len(run_ids))})")
        params.extend(run_ids)
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    connection = sqlite3.connect(str(path))
    try:
        rows = connection.execute(
            "SELECT app, pattern_key, SUM(count) AS total_count,"
            " SUM(perceptible) AS total_perceptible, SUM(sessions)"
            f" FROM pattern_rollup{where}"
            " GROUP BY app, pattern_key"
            f" ORDER BY {order}, app, pattern_key"
            " LIMIT ?",
            params + [int(n)],
        ).fetchall()
    finally:
        connection.close()
    return [
        PatternAggregate(row[0], row[1], int(row[2] or 0), int(row[3] or 0),
                         int(row[4] or 0))
        for row in rows
    ]


def reference_diff(
    tally_a: Dict[str, Tuple[int, int]],
    tally_b: Dict[str, Tuple[int, int]],
    run_a: str,
    run_b: str,
) -> causegraph.DiffReport:
    """The A -> B report ranked the v4 way: every label of either run,
    sorted on ``(-delta_ns, label)``."""
    deltas = []
    for label in sorted(set(tally_a) | set(tally_b)):
        a_total, a_count = tally_a.get(label, (0, 0))
        b_total, b_count = tally_b.get(label, (0, 0))
        deltas.append(
            causegraph.CauseDelta(
                label=label,
                delta_ns=b_total - a_total,
                a_total_ns=a_total,
                b_total_ns=b_total,
                a_episodes=a_count,
                b_episodes=b_count,
            )
        )
    deltas.sort(key=lambda d: (-d.delta_ns, d.label))
    return causegraph.DiffReport(
        run_a=run_a,
        run_b=run_b,
        total_delta_ns=sum(d.delta_ns for d in deltas),
        deltas=tuple(deltas),
    )


def _rate(stats: List[Any]) -> float:
    """``perceptible_rate`` over session stats, as the warehouse's SQL
    computes it."""
    return (
        sum(value.perceptible for value in stats) * 1.0
        / max(sum(value.traced for value in stats), 1)
    )


def expected_answers(
    runs: Dict[str, Dict[str, List[dict]]],
    apps: Optional[Sequence[str]] = None,
    perceptible_only: bool = False,
) -> Dict[str, Any]:
    """Study-warehouse answers merged in Python from per-session rows.

    ``runs`` maps each run id to its applications' stored session rows:
    ``{"stats": SessionStats, "ts": ingested_ts, "patterns": {key:
    (count, perceptible)}, "causes": {label: (total_ns, episodes,
    perceptible_ns, perceptible_episodes)}}``. ``apps`` and
    ``perceptible_only`` are the queries' arguments. Returns
    ``aggregate``, the ``perceptible_rate`` ``series`` in minute
    buckets and both ``top_patterns.*`` rankings (every pattern) over
    all of ``runs``, ``cause_totals`` per run, and ``diff`` and the
    ``perceptible_rate`` ``regression`` per ordered pair of runs.
    ``regression`` takes no ``apps`` filter, as the query takes none.
    """
    rows = {
        run_id: {
            app: sessions for app, sessions in by_app.items()
            if sessions and (not apps or app in apps)
        }
        for run_id, by_app in runs.items()
    }
    stats: Dict[str, list] = {}
    buckets: Dict[Tuple[str, int], list] = {}
    patterns: Dict[Tuple[str, str], List[int]] = {}
    totals: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for run_id, by_app in rows.items():
        tally: Dict[str, Tuple[int, int]] = {}
        for app, sessions in by_app.items():
            for row in sessions:
                stats.setdefault(app, []).append(row["stats"])
                bucket = int(row["ts"]) // 60 * 60
                buckets.setdefault((app, bucket), []).append(row["stats"])
                for key, (count, perceptible) in row["patterns"].items():
                    entry = patterns.setdefault((app, key), [0, 0, 0])
                    entry[0] += count
                    entry[1] += perceptible
                    entry[2] += 1
                for label, values in row["causes"].items():
                    ns, episodes = values[2:] if perceptible_only else values[:2]
                    prev = tally.get(label, (0, 0))
                    tally[label] = (prev[0] + ns, prev[1] + episodes)
        totals[run_id] = dict(sorted(tally.items()))
    sides = {
        run_id: {
            app: [row["stats"] for row in sessions]
            for app, sessions in by_app.items() if sessions
        }
        for run_id, by_app in runs.items()
    }

    def regression(run_a: str, run_b: str) -> RegressionReport:
        base, cand = sides[run_a], sides[run_b]
        entries = []
        for app in sorted(set(base) | set(cand)):
            base_value = _rate(base[app]) if app in base else 0.0
            cand_value = _rate(cand[app]) if app in cand else 0.0
            delta = cand_value - base_value
            entries.append(RegressionEntry(
                app, base_value, cand_value, delta, delta > 0.0,
                len(base.get(app, ())), len(cand.get(app, ())),
            ))
        return RegressionReport(
            "perceptible_rate", 0.0, (run_a,), (run_b,), entries
        )

    ranks = {
        "perceptible_lag": lambda item: (-item[1][1], -item[1][0], item[0]),
        "occurrences": lambda item: (-item[1][0], -item[1][1], item[0]),
    }
    pairs = [
        (run_a, run_b) for run_a in totals for run_b in totals
        if run_a != run_b
    ]
    answers: Dict[str, Any] = {
        "aggregate": [
            AppAggregate(
                app, len(values),
                int(sum(value.traced for value in values)),
                int(sum(value.perceptible for value in values)),
                float(sum(value.e2e_s for value in values)),
                sum(value.long_per_min for value in values) / len(values),
            )
            for app, values in sorted(stats.items())
        ],
        "series": [
            SeriesPoint(app, float(bucket), len(values), _rate(values))
            for (app, bucket), values in sorted(buckets.items())
        ],
        "cause_totals": totals,
        "diff": {
            (run_a, run_b): reference_diff(
                totals[run_a], totals[run_b], run_a, run_b
            )
            for run_a, run_b in pairs
        },
        "regression": {pair: regression(*pair) for pair in pairs},
    }
    for name, rank in ranks.items():
        answers[f"top_patterns.{name}"] = [
            PatternAggregate(app, key, count, perceptible, sessions)
            for (app, key), (count, perceptible, sessions)
            in sorted(patterns.items(), key=rank)
        ]
    return answers
