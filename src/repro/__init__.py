"""LagAlyzer — latency profile analysis and visualization.

A reproduction of "LagAlyzer: A latency profile analysis and visualization
tool" (Adamoli, Jovic, Hauswirth — ISPASS 2010).

This module is the **stable public surface**: everything in
:data:`__all__` is supported API, importable directly from ``repro``,
and documented in ``docs/api.md``. Deep imports keep working but are
not part of the contract. :data:`API_VERSION` increments whenever this
surface changes incompatibly; version 2 removed the ``repro.core.api``
alias of :mod:`repro.core.analyzer` and ``AnalysisEngine.map_trace``;
version 3 removed the engine's split of one trace across several tasks
and the numpy kernel mode; version 4 removed the binary trace
encoding and the streaming reader; version 5 removed the push-mode
record parser ``RecordFeed``; version 6 removed
``StudyWarehouse.compact`` and the warehouse column-file options;
version 7 removed the ingest daemon's incremental mode (all listed in
``docs/api.md``).

The package is organized as:

- :mod:`repro.core` — the paper's primary contribution: the in-memory
  latency-trace model, episode/pattern mining, and the characterization
  analyses (occurrence, trigger, location, concurrency, thread states).
- :mod:`repro.lila` — a LiLa-style trace file format (writer/reader).
- :mod:`repro.ingest` — the live collector daemon, its client, and the
  rolling (per-episode) analysis ``ingest tail`` runs over a spool.
- :mod:`repro.vm` — a discrete-event JVM/Swing session simulator that
  produces LiLa-style traces (substitute for running real Java apps).
- :mod:`repro.apps` — behaviour models for the paper's 14 applications.
- :mod:`repro.viz` — SVG episode sketches and characterization charts.
- :mod:`repro.study` — the full characterization-study harness
  (Table III and Figures 3-8).
- :mod:`repro.obs` / :mod:`repro.faults` — observability and
  deterministic fault injection for the whole pipeline.
- :mod:`repro.warehouse` — the persistent cross-session study
  warehouse (SQLite) and its query API.
- :mod:`repro.sqlitedb` — the SQLite layer both warehouses open through.

Quickstart::

    from repro import LagAlyzer, simulate_session

    trace = simulate_session("JMol", seed=42)
    analyzer = LagAlyzer.from_traces([trace])
    for pattern in analyzer.pattern_table().perceptible_only().rows():
        print(pattern.key, pattern.count, pattern.max_lag_ms)
"""

from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.episodes import Episode
from repro.core.intervals import Interval, IntervalKind
from repro.core.patterns import Pattern, PatternTable
from repro.core.samples import Sample, StackFrame, StackTrace, ThreadState
from repro.core.trace import Trace, TraceMetadata
from repro.apps import simulate_session

__version__ = "1.1.0"

#: Version of the public surface below; bumped on incompatible change.
API_VERSION = 7

# Heavier subsystems resolve lazily (PEP 562): importing ``repro`` for
# a quick trace read should not pay for the study harness, the engine,
# or the ingest daemon.
_LAZY = {
    "run_study": ("repro.study.runner", "run_study"),
    "StudyConfig": ("repro.study.runner", "StudyConfig"),
    "open_source": ("repro.lila.source", "open_source"),
    "build_store": ("repro.lila.source", "build_store"),
    "Observer": ("repro.obs.observer", "Observer"),
    "FaultPlan": ("repro.faults.plan", "FaultPlan"),
    "TraceClient": ("repro.ingest.client", "TraceClient"),
    "IngestServer": ("repro.ingest.server", "IngestServer"),
    "AnalysisEngine": ("repro.engine.engine", "AnalysisEngine"),
    "TraceContext": ("repro.obs.context", "TraceContext"),
    "Warehouse": ("repro.obs.warehouse", "Warehouse"),
    "TelemetryPublisher": ("repro.obs.publisher", "TelemetryPublisher"),
    "SloPolicy": ("repro.obs.slo", "SloPolicy"),
    "SloThreshold": ("repro.obs.slo", "SloThreshold"),
    "StudyWarehouse": ("repro.warehouse.store", "StudyWarehouse"),
    "AppAggregate": ("repro.warehouse.types", "AppAggregate"),
    "PatternAggregate": ("repro.warehouse.types", "PatternAggregate"),
    "RegressionReport": ("repro.warehouse.types", "RegressionReport"),
}

__all__ = [
    "API_VERSION",
    "AnalysisConfig",
    "AnalysisEngine",
    "AppAggregate",
    "Episode",
    "FaultPlan",
    "IngestServer",
    "Interval",
    "IntervalKind",
    "LagAlyzer",
    "Observer",
    "Pattern",
    "PatternAggregate",
    "PatternTable",
    "RegressionReport",
    "Sample",
    "SloPolicy",
    "SloThreshold",
    "StackFrame",
    "StackTrace",
    "StudyConfig",
    "StudyWarehouse",
    "TelemetryPublisher",
    "ThreadState",
    "Trace",
    "TraceClient",
    "TraceContext",
    "TraceMetadata",
    "Warehouse",
    "__version__",
    "build_store",
    "open_source",
    "run_study",
    "simulate_session",
]


def __getattr__(name: str):
    entry = _LAZY.get(name)
    if entry is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    module_name, attr = entry
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: resolve each lazy name once
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
