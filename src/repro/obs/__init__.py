"""``repro.obs`` — observability for the analysis pipeline itself.

LagAlyzer explains other programs' latency; this package explains
LagAlyzer's. Three dependency-free pillars:

- **tracing** (:mod:`repro.obs.spans`) — nested, thread- and
  process-aware spans with wall/CPU durations and attributes,
  exportable as JSONL and Chrome trace-event JSON;
- **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms in a mergeable registry, exportable as JSON
  and Prometheus text;
- **profiling** (:mod:`repro.obs.profiling`) — opt-in ``cProfile``
  wrapping of engine map calls, aggregated into top-N hotspots per
  analysis.

Version 2 adds the *operational* layer for the live system:

- **propagation** (:mod:`repro.obs.context`) — trace contexts carried
  across the ingest wire so client and daemon spans form one tree;
- **warehouse** (:mod:`repro.obs.warehouse` /
  :mod:`repro.obs.publisher`) — a persistent SQLite metrics store fed
  by a background publisher, queryable across runs;
- **health** (:mod:`repro.obs.http` / :mod:`repro.obs.slo`) — live
  ``/metrics`` / ``/healthz`` / ``/sessions`` endpoints driven by
  declarative SLO policies.

Enable by constructing an :class:`Observer` and passing it to
``run_study(obs=...)`` / ``LagAlyzer(obs=...)``, or from the CLI::

    lagalyzer study --obs out/obs --workers 4
    lagalyzer obs report out/obs
    lagalyzer obs export out/obs --format chrome -o trace.json

When no observer is installed every instrumentation site reduces to a
single ``is None`` branch (see :mod:`repro.obs.runtime` and
``benchmarks/bench_gates.py``).
"""

from repro.obs.context import TraceContext
from repro.obs.http import HealthServer
from repro.obs.metrics import DEFAULT_MS_BUCKETS, MetricsRegistry
from repro.obs.observer import Observer, load_bundle
from repro.obs.profiling import ProfileAggregator
from repro.obs.publisher import TelemetryPublisher
from repro.obs.slo import (
    DEFAULT_INGEST_SLO,
    SloPolicy,
    SloReport,
    SloThreshold,
)
from repro.obs.warehouse import Warehouse
from repro.obs.runtime import (
    count,
    current,
    install,
    installed,
    maybe_span,
    observe,
    profiled,
    set_gauge,
    uninstall,
)
from repro.obs.spans import NULL_SPAN, Span, SpanCollector, span_depth

__all__ = [
    "DEFAULT_INGEST_SLO",
    "DEFAULT_MS_BUCKETS",
    "HealthServer",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observer",
    "ProfileAggregator",
    "SloPolicy",
    "SloReport",
    "SloThreshold",
    "Span",
    "SpanCollector",
    "TelemetryPublisher",
    "TraceContext",
    "Warehouse",
    "count",
    "current",
    "install",
    "installed",
    "load_bundle",
    "maybe_span",
    "observe",
    "profiled",
    "set_gauge",
    "span_depth",
    "uninstall",
]
