"""The :class:`Observer`: one object tying spans, metrics, and
profiling together for a run.

Construct one, pass it to ``run_study(obs=...)`` / ``LagAlyzer(obs=...)``
or install it ambiently (:func:`repro.obs.runtime.install`), and every
instrumented layer of the pipeline reports into it. Afterwards
:meth:`save` writes the run's observability bundle to a directory::

    out/
      spans.jsonl    one span per line (tracing)
      metrics.json   counters / gauges / histograms
      profile.json   aggregated cProfile hotspots (only with profile=True)

which ``lagalyzer obs report`` and ``lagalyzer obs export`` consume.

Cross-process flow: the scheduler (:mod:`repro.engine.scheduler`) runs
each pooled task under a fresh Observer and ships its :meth:`snapshot`
(a picklable dict) back with the task's value, then calls :meth:`absorb`
on the dispatching process's observer, which re-parents the worker's
root spans under the dispatching span and merges metrics and profiles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import ProfileAggregator
from repro.obs.spans import (
    NULL_SPAN,
    Span,
    SpanCollector,
    SpanContext,
    span_depth,
)

SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"
PROFILE_FILE = "profile.json"


class Observer:
    """Collects this process's spans, metrics, and (optionally) profiles.

    Args:
        profile: also wrap engine map calls in ``cProfile`` and
            aggregate hotspots (measurable overhead; off by default).
        profile_top_n: hotspot rows kept per analysis.
    """

    def __init__(self, profile: bool = False, profile_top_n: int = 15) -> None:
        self.collector = SpanCollector()
        self.metrics = MetricsRegistry()
        self.profiler: Optional[ProfileAggregator] = (
            ProfileAggregator(top_n=profile_top_n) if profile else None
        )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def span(
        self,
        name: str,
        parent_id: Optional[str] = None,
        metric: Optional[str] = None,
        **attrs: Any,
    ) -> SpanContext:
        """Open a span; nests under the calling thread's current span.

        ``metric`` additionally records the span's duration into the
        histogram of that name on exit.
        """
        return SpanContext(
            self.collector,
            name,
            parent_id,
            attrs,
            metrics=self.metrics,
            metric=metric,
        )

    def current_span_id(self) -> Optional[str]:
        span = self.collector.current()
        return span.span_id if span is not None else None

    def spans(self) -> List[Span]:
        return self.collector.finished()

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------

    def profiled(self, key: str) -> Any:
        """cProfile context for ``key`` (no-op unless profiling is on)."""
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.profiled(key)

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything collected so far, as one picklable dict."""
        return {
            "spans": [span.to_dict() for span in self.collector.finished()],
            "metrics": self.metrics.as_dict(),
            "profile": self.profiler.as_dict() if self.profiler else None,
        }

    def absorb(
        self,
        snapshot: Optional[Mapping[str, Any]],
        parent_id: Optional[str] = None,
    ) -> None:
        """Merge a worker's :meth:`snapshot` into this observer.

        Spans that were roots in the worker (no parent) are re-parented
        under ``parent_id`` — typically the span that dispatched the
        task — so the merged trace stays one connected tree. Accepts
        None as a no-op so dispatchers can absorb unconditionally.
        """
        if snapshot is None:
            return
        spans = [Span.from_dict(raw) for raw in snapshot.get("spans", [])]
        if parent_id is not None:
            for span in spans:
                if span.parent_id is None:
                    span.parent_id = parent_id
        self.collector.extend(spans)
        metrics = snapshot.get("metrics")
        if metrics:
            self.metrics.merge(metrics)
        profile = snapshot.get("profile")
        if profile:
            if self.profiler is None:
                self.profiler = ProfileAggregator()
            self.profiler.merge(profile)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the observability bundle; returns the directory."""
        from repro.obs.export import spans_to_jsonl

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / SPANS_FILE).write_text(
            spans_to_jsonl(self.collector.finished()), encoding="utf-8"
        )
        (directory / METRICS_FILE).write_text(
            json.dumps(self.metrics.as_dict(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        if self.profiler is not None:
            (directory / PROFILE_FILE).write_text(
                json.dumps(self.profiler.as_dict(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
        return directory

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary_line(self) -> str:
        """The end-of-run one-liner the CLI prints after an observed run."""
        spans = self.collector.finished()
        hits = self.metrics.counter_value("cache.hits")
        misses = self.metrics.counter_value("cache.misses")
        probes = hits + misses
        rate = f"{100.0 * hits / probes:.1f}%" if probes else "n/a"
        parsed = self.metrics.counter_value("lila.traces_parsed")
        write_errors = self.metrics.counter_value("cache.write_errors")
        roots = [span for span in spans if span.parent_id is None]
        slowest = max(roots or spans, key=lambda s: s.duration_ns, default=None)
        head = (
            f"[obs] spans={len(spans)} depth={span_depth(spans)} "
            f"cache={hits}/{probes} hits ({rate})"
        )
        if write_errors:
            head += f" write_errors={write_errors}"
        head += f" traces_parsed={parsed}"
        if slowest is not None:
            head += f" slowest={slowest.name}:{slowest.duration_ms:.0f}ms"
        return head


def load_bundle(directory: Union[str, Path]) -> Dict[str, Any]:
    """Read a saved bundle back: ``{"spans": [Span], "metrics": dict,
    "profile": dict or None}``.

    Raises:
        FileNotFoundError: when the directory holds no bundle.
    """
    from repro.obs.export import spans_from_jsonl

    directory = Path(directory)
    spans_path = directory / SPANS_FILE
    metrics_path = directory / METRICS_FILE
    if not spans_path.is_file() and not metrics_path.is_file():
        raise FileNotFoundError(
            f"{directory}: no observability bundle "
            f"({SPANS_FILE}/{METRICS_FILE} missing) — run with --obs first"
        )
    spans = (
        spans_from_jsonl(spans_path.read_text(encoding="utf-8"))
        if spans_path.is_file()
        else []
    )
    metrics = (
        json.loads(metrics_path.read_text(encoding="utf-8"))
        if metrics_path.is_file()
        else {}
    )
    profile_path = directory / PROFILE_FILE
    profile = (
        json.loads(profile_path.read_text(encoding="utf-8"))
        if profile_path.is_file()
        else None
    )
    return {"spans": spans, "metrics": metrics, "profile": profile}
