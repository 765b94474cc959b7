"""Layer spans for the traced benchmark run.

The benchmark attributes LagAlyzer's own latency to the layer that spent
it. It does so from the outside: :class:`Tracer` replaces each layer's
public entry points (see :data:`ENTRY_POINTS`) with a wrapper that
records one span per call, wherever the caller resolves the name — a
function bound into another module at import time (``trace_digest`` in
``repro.engine.engine``, say) is replaced there too. Nothing inside
``src/`` changes, and untraced runs never install the wrappers.

A span is ``[name, start, end, id, parent, pid, tid, op, counters]``.
Clocks are ``time.perf_counter`` (system-wide monotonic on Linux, so
spans from different processes share one time base). ``op`` is the id of
the benchmark operation that was running when the span opened.

The engine's pool workers are forked from a process whose wrappers are
already installed, so they trace too. A fork handler gives each child a
fresh buffer and remembers the span that was open in the forking thread
as the parent of the child's top-level spans. Every process appends its
spans to its own ``spans-<pid>.jsonl`` file — a worker after each of its
top-level spans (it may be killed without running exit handlers), the
benchmark process on :meth:`Tracer.close` — and :func:`load_spans`
merges the files.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Span record fields, by position.
NAME, START, END, ID, PARENT, PID, TID, OP, COUNTERS = range(9)


def _records(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    """``build_store``: format lines parsed after the header (0 for `.lilac`)."""
    source = args[0] if args else kwargs.get("source")
    line = getattr(source, "line", None) or 0
    return {"records": max(line - 1, 0)}


def _tasks(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    items = args[1] if len(args) > 1 else kwargs.get("items", ())
    return {"tasks": len(items) if hasattr(items, "__len__") else 0}


def _written(path_method: str) -> Callable[[tuple, dict, Any], Dict[str, int]]:
    def counters(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
        cache, key = args[0], args[1]
        try:
            size = getattr(cache, path_method)(key).stat().st_size
        except OSError:
            size = 0
        return {"bytes": size}

    return counters


def _bundle_hit(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    from repro.engine.cache import MISS

    return {"hit": int(result is not MISS)}


def _changed(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"changed": int(bool(result))}


def _client_counters(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    client = args[0]
    return {"nacks": client.nacks_received, "retries": client.retries}


def _flushed(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"records": int(result or 0)}


#: ``(span name, module, attribute path, counters)`` for every wrapped
#: public entry point. The analyses' ``map_context``/``reduce`` are added
#: per registered instance by :meth:`Tracer.install`.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("lila.parse", "repro.lila.source", "build_store", _records),
    ("lila.colfile", "repro.lila.colfile", "open_column_store", None),
    ("lila.digest", "repro.lila.digest", "trace_digest", None),
    ("plan.execute", "repro.core.plan", "AnalysisPlan.execute", None),
    ("plan.stage.episode_split", "repro.core.plan",
     "StageContext.episode_split", None),
    ("plan.stage.pattern_counts", "repro.core.plan",
     "StageContext.pattern_counts", None),
    ("engine.load", "repro.engine.engine", "AnalysisEngine.load_traces", None),
    ("engine.fanout", "repro.engine.scheduler", "run_tasks", _tasks),
    ("engine.cache.get", "repro.engine.cache", "ResultCache.get", None),
    ("engine.cache.put", "repro.engine.cache", "ResultCache.put",
     _written("_path_for")),
    ("engine.cache.get_bundle", "repro.engine.cache", "ResultCache.get_bundle",
     _bundle_hit),
    ("engine.cache.put_bundle", "repro.engine.cache", "ResultCache.put_bundle",
     _written("_bundle_path_for")),
    ("engine.cache.iter_bundles", "repro.engine.cache",
     "ResultCache.iter_bundles", None),
    ("warehouse.write.ingest_session", "repro.warehouse.store",
     "StudyWarehouse.ingest_session", _changed),
    ("warehouse.write.ingest_bundles", "repro.warehouse.store",
     "StudyWarehouse.ingest_bundles", None),
    ("warehouse.write.ingest_spool", "repro.warehouse.store",
     "StudyWarehouse.ingest_spool", None),
    ("warehouse.query.aggregate", "repro.warehouse.store",
     "StudyWarehouse.aggregate", None),
    ("warehouse.query.top_patterns", "repro.warehouse.store",
     "StudyWarehouse.top_patterns", None),
    ("warehouse.query.series", "repro.warehouse.store",
     "StudyWarehouse.series", None),
    ("warehouse.query.regression", "repro.warehouse.store",
     "StudyWarehouse.regression", None),
    ("warehouse.query.diff", "repro.warehouse.store",
     "StudyWarehouse.diff", None),
    ("ingest.client.extend", "repro.ingest.client", "TraceClient.extend", None),
    ("ingest.client.close", "repro.ingest.client", "TraceClient.close",
     _client_counters),
    ("ingest.server.flush", "repro.ingest.server", "SessionState.flush",
     _flushed),
    ("ingest.compact", "repro.ingest.server", "IngestServer.compact_spools",
     None),
    ("ingest.server.stop", "repro.ingest.server", "IngestServer.stop", None),
)

#: Entry points that are generator functions: each resumption is timed
#: as its own span, and only the first carries the ``calls`` counter.
GENERATORS = frozenset({"engine.cache.iter_bundles"})


class Tracer:
    """Records layer spans into per-process files under ``out_dir``.

    Use as ``install()`` … ``close()``; :attr:`op` is set by the caller
    to the id of the operation in progress (``0`` outside operations).
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = self._owner_pid = os.getpid()
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffer: List[list] = []
        self._remote_parent: Optional[str] = None
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._active = True
        os.register_at_fork(after_in_child=self._after_fork)

    # -- span recording -------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        if not self._active:
            return
        stack = self._stack()
        self._remote_parent = stack[-1] if stack else self._remote_parent
        self._local.stack = []
        self._buffer = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def _emit(self, record: list, stack: List[str]) -> None:
        self._buffer.append(record)
        if not stack and self.pid != self._owner_pid:
            self.flush()

    def wrap(
        self,
        name: str,
        func: Callable,
        counters: Optional[Callable] = None,
    ) -> Callable:
        """``func`` with one span per call named ``name``."""
        tracer = self
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._remote_parent
            span_id = f"{tracer.pid}-{next(tracer._ids)}"
            op = tracer.op
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = counters(args, kwargs, result) if counters else None
            tracer._emit(
                [name, start, end, span_id, parent, tracer.pid,
                 threading.get_ident(), op, extra],
                stack,
            )
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, name: str, func: Callable) -> Callable:
        """A generator function with one span per resumption.

        The first resumption's span carries ``{"calls": 1}``, so calls
        count invocations while busy time covers every step.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            iterator = func(*args, **kwargs)
            first = [True]

            def mark_call(_args: tuple, _kwargs: dict, _result: Any) -> dict:
                calls, first[0] = int(first[0]), False
                return {"calls": calls}

            step = tracer.wrap(name, lambda: next(iterator, _DONE), mark_call)
            while True:
                value = step()
                if value is _DONE:
                    return
                yield value

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def flush(self) -> None:
        """Append this process's buffered spans to its own file."""
        buffer, self._buffer = self._buffer, []
        if not buffer:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for record in buffer:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, in every ``repro`` module that binds it."""
        for name, module_name, path, counters in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            if name in GENERATORS:
                wrapped = self.wrap_generator(name, original)
            else:
                wrapped = self.wrap(name, original, counters)
            self._patch(owner, attr, wrapped)
            if owner is module:
                # Rebind the name wherever another module imported it.
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, wrapped)
        from repro.core.analyses import REGISTRY

        for analysis_name, analysis in REGISTRY.items():
            self._patch(
                analysis, "map_context",
                self.wrap(f"analyses.map.{analysis_name}", analysis.map_context),
                instance=True,
            )
            self._patch(
                analysis, "reduce",
                self.wrap("analyses.reduce", analysis.reduce),
                instance=True,
            )

    def _patch(
        self, owner: Any, attr: str, value: Any, instance: bool = False
    ) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr), instance))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original, instance in reversed(self._restore):
            if instance:
                owner.__dict__.pop(attr, None)
            else:
                setattr(owner, attr, original)
        self._restore = []

    def close(self) -> None:
        """Uninstall, write the benchmark process's spans, stop tracing."""
        self.uninstall()
        self.flush()
        self._active = False


_DONE = object()


def load_spans(out_dir: Path) -> List[list]:
    """Every span written under ``out_dir``, merged across processes."""
    spans: List[list] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Span id -> duration minus the part covered by its children.

    Only children on the same process and thread count: a pool worker's
    spans are children of the fan-out span that forked it, but the
    fan-out's thread was waiting, not working, while they ran.
    """
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    where = {span[ID]: (span[PID], span[TID]) for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and where.get(parent) == (span[PID], span[TID]):
            children[parent].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - _covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


ANALYSES = (
    "occurrence", "triggers", "location", "concurrency",
    "threadstates", "statistics", "patterns", "causes",
)
_CACHE_METHODS = ("get", "put", "get_bundle", "put_bundle", "iter_bundles")
_WRITES = ("ingest_session", "ingest_bundles", "ingest_spool")
_QUERIES = ("aggregate", "top_patterns", "series", "regression", "diff")


def _spec() -> List[Tuple[str, str, str]]:
    count, secs = "count", "s"
    rows = [
        ("lila.parse.calls", count, "lower"),
        ("lila.parse.busy_s", secs, "lower"),
        ("lila.parse.records", count, "lower"),
        ("lila.colfile.calls", count, "lower"),
        ("lila.colfile.busy_s", secs, "lower"),
        ("lila.digest.calls", count, "lower"),
        ("lila.digest.busy_s", secs, "lower"),
        ("plan.execute.calls", count, "lower"),
        ("plan.execute.busy_s", secs, "lower"),
        ("plan.stage.episode_split.busy_s", secs, "lower"),
        ("plan.stage.pattern_counts.busy_s", secs, "lower"),
    ]
    rows += [(f"analyses.map.{name}.busy_s", secs, "lower") for name in ANALYSES]
    rows += [
        ("analyses.reduce.calls", count, "lower"),
        ("analyses.reduce.busy_s", secs, "lower"),
        ("engine.load.wall_s", secs, "lower"),
        ("engine.fanout.calls", count, "lower"),
        ("engine.fanout.tasks", count, "lower"),
        ("engine.fanout.wall_s", secs, "lower"),
        ("engine.fanout.wait_s", secs, "lower"),
    ]
    for method in _CACHE_METHODS:
        rows += [
            (f"engine.cache.{method}.calls", count, "lower"),
            (f"engine.cache.{method}.busy_s", secs, "lower"),
        ]
    rows += [
        ("engine.cache.bytes_written", "B", "lower"),
        ("engine.cache.bundle_hit_ratio", "ratio", "higher"),
    ]
    for method in _WRITES:
        rows += [
            (f"warehouse.write.{method}.calls", count, "lower"),
            (f"warehouse.write.{method}.busy_s", secs, "lower"),
        ]
    rows.append(("warehouse.write.changed_ratio", "ratio", "higher"))
    for method in _QUERIES:
        rows += [
            (f"warehouse.query.{method}.calls", count, "lower"),
            (f"warehouse.query.{method}.busy_s", secs, "lower"),
        ]
    rows += [
        ("ingest.client.extend.busy_s", secs, "lower"),
        ("ingest.client.close.busy_s", secs, "lower"),
        ("ingest.client.nacks", count, "lower"),
        ("ingest.client.retries", count, "lower"),
        ("ingest.server.flush.calls", count, "lower"),
        ("ingest.server.flush.busy_s", secs, "lower"),
        ("ingest.server.flush.records", count, "lower"),
        ("ingest.compact.busy_s", secs, "lower"),
        ("ingest.server.stop.busy_s", secs, "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return rows


#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = _spec()


def layer_metrics(
    spans: Sequence[list],
    passes: int,
    main: Tuple[int, int],
    timed_s: float,
    overhead_pct: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged spans.

    Counts and times are totals per traced pass (``passes`` of them).
    ``main`` is the ``(pid, tid)`` of the thread that generated the
    load; ``timed_s`` is that thread's traced wall time, the
    denominator of ``trace.coverage``.
    """
    selfs = self_times(spans)
    calls: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    wall: Dict[str, float] = defaultdict(float)
    counted: Dict[Tuple[str, str], float] = defaultdict(float)
    covered = 0.0
    for span in spans:
        name = span[NAME]
        counters = span[COUNTERS] or {}
        calls[name] += counters.get("calls", 0) if name in GENERATORS else 1
        busy[name] += selfs[span[ID]]
        wall[name] += span[END] - span[START]
        for key, value in counters.items():
            counted[(name, key)] += value
        if span[OP] and (span[PID], span[TID]) == main:
            covered += selfs[span[ID]]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: Dict[str, float] = {
        "lila.parse.records": counted[("lila.parse", "records")],
        "plan.stage.episode_split.busy_s": busy["plan.stage.episode_split"],
        "plan.stage.pattern_counts.busy_s": busy["plan.stage.pattern_counts"],
        "engine.load.wall_s": wall["engine.load"],
        "engine.fanout.tasks": counted[("engine.fanout", "tasks")],
        "engine.fanout.wall_s": wall["engine.fanout"],
        "engine.fanout.wait_s": busy["engine.fanout"],
        "engine.cache.bytes_written": counted[("engine.cache.put", "bytes")]
        + counted[("engine.cache.put_bundle", "bytes")],
        "ingest.client.nacks": counted[("ingest.client.close", "nacks")],
        "ingest.client.retries": counted[("ingest.client.close", "retries")],
        "ingest.server.flush.records": counted[("ingest.server.flush", "records")],
        "ingest.compact.busy_s": busy["ingest.compact"],
    }
    for name in ANALYSES:
        values[f"analyses.map.{name}.busy_s"] = busy[f"analyses.map.{name}"]
    for metric, _unit, _better in PER_LAYER:
        if metric in values:
            continue
        prefix, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls[prefix]
        elif field == "busy_s":
            values[metric] = busy[prefix]
    per_pass = {
        metric: value / passes for metric, value in values.items()
    }
    per_pass["engine.cache.bundle_hit_ratio"] = ratio(
        counted[("engine.cache.get_bundle", "hit")],
        calls["engine.cache.get_bundle"],
    )
    per_pass["warehouse.write.changed_ratio"] = ratio(
        counted[("warehouse.write.ingest_session", "changed")],
        calls["warehouse.write.ingest_session"],
    )
    per_pass["trace.coverage"] = ratio(covered, timed_s)
    per_pass["trace.overhead_pct"] = overhead_pct
    return {metric: per_pass[metric] for metric, _unit, _better in PER_LAYER}
