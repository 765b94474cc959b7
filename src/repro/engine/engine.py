"""The parallel, cache-aware analysis engine.

:class:`AnalysisEngine` is the execution layer under the
:class:`~repro.core.analyzer.LagAlyzer` facade and the study runner. It
knows three tricks, all behind the uniform
:class:`~repro.core.analyses.Analysis` protocol:

1. **Fused map–reduce execution** — the requested analyses are
   compiled into one :class:`~repro.core.plan.AnalysisPlan` and every
   trace is mapped in **one fused pass** through a shared
   :class:`~repro.core.plan.StageContext` (episode split, pattern
   tallies computed once per trace, not once per analysis); the
   per-analysis partials are then merged with each analysis's
   ``reduce``, bit-identical to the serial ``summarize``.
2. **Process-pool fan-out** — with ``workers > 1`` the fused passes for
   different traces run in parallel processes, one task per *trace*
   (columns pickled to a worker once, not once per analysis; serial
   fallback when a pool is unavailable; see
   :mod:`repro.engine.scheduler`). A pooled load maps each trace in
   the task that parsed it, so a later map under the same config and
   registry ships no trace at all.
3. **Content-addressed caching** — the fused pass's whole partial
   bundle is stored as one entry keyed by (trace digest, config
   fingerprint, plan fingerprint, code version), for single- and
   multi-analysis requests alike, so re-analyzing unchanged traces
   skips the map work entirely with one read per trace (see
   :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analyses import REGISTRY, get_analysis
from repro.core.errors import AnalysisError, NestingError, TraceFormatError
from repro.core.plan import AnalysisPlan, build_plan
from repro.core.trace import Trace
from repro.engine.cache import (
    ResultCache,
    bundle_envelope,
    bundle_parts,
    config_fingerprint,
)
from repro.engine.scheduler import (
    RetryPolicy,
    _registry_state,
    fans_out,
    resolve_workers,
    run_tasks,
)
from repro.faults import runtime as faults_runtime
from repro.lila.digest import trace_digest
from repro.obs import Observer
from repro.obs import runtime as obs_runtime

#: Exception types that mark a trace as *deterministically* damaged:
#: retrying cannot help, so the engine quarantines the trace instead of
#: aborting the whole batch.
QUARANTINE_ERRORS: Tuple[type, ...] = (TraceFormatError, NestingError)


@dataclass(frozen=True)
class QuarantinedTrace:
    """One trace the engine gave up on (and why)."""

    index: int
    """Position of the trace in the batch it was submitted with."""
    application: str
    session_id: str
    error: str
    """``repr`` of the terminal exception (picklable by construction)."""

    def describe(self) -> str:
        return f"{self.application}/{self.session_id}: {self.error}"


def _fused_pass(trace: Trace, names: Tuple[str, ...], config: Any) -> List[Any]:
    """The partials of ``names`` over ``trace``, in one fused pass.

    The names are compiled into an :class:`~repro.core.plan.AnalysisPlan`
    whose operators all map through one shared
    :class:`~repro.core.plan.StageContext`, so the episode split and
    pattern tallies are computed once for the whole pass instead of
    once per analysis.
    """
    faults_runtime.check(
        "trace.map", key=f"{trace.application}/{trace.metadata.session_id}"
    )
    partials = build_plan(names).execute(trace, config)
    return [partials[name] for name in names]


def _map_task(task: Tuple[Any, Tuple[str, ...], Any]) -> List[Any]:
    """Worker: the requested partials of one trace (module-level for pickling).

    The task is ``(trace, names, config)``; an observed pooled map ships
    the trace already pickled (see :func:`_counted_pickle`). Its
    ``engine.worker_task`` span opens wherever the task runs.
    """
    trace, names, config = task
    if isinstance(trace, bytes):
        trace = pickle.loads(trace)
    with obs_runtime.maybe_span(
        "engine.worker_task", analyses=len(names), application=trace.application
    ):
        return _fused_pass(trace, names, config)


def _load_task(
    task: Tuple[Any, Optional[Tuple[Tuple[str, ...], Any]], bool]
) -> Tuple[Any, Optional[List[Any]]]:
    """Worker: load and digest one trace, then map it if asked to.

    The task is ``(entry, ahead, pickled)``: a file path or a source,
    ``(names, config)`` or None, and whether to return the trace
    pickled by :func:`_counted_pickle`, so that an observed pooled load
    counts the bytes its result carries. The digest is memoized on the
    trace's columnar store, which carries it back to the dispatching
    process, so the cache probe never re-serializes a loaded trace. A
    trace whose canonical text cannot be produced (a symbol the format
    forbids) fails here, stamped with its path, instead of at its first
    cached run.

    With ``ahead``, the task also runs the fused pass of ``names`` over
    the trace it just parsed and returns the partials with the trace.
    A map failure is not a load failure: the trace then comes back
    without partials, and its later map raises or quarantines it as it
    would have.
    """
    from repro.lila.autodetect import load_trace
    from repro.lila.source import TraceSource, build_trace

    entry, ahead, pickled = task
    if isinstance(entry, TraceSource):
        trace = build_trace(entry)
        path = entry.path
    else:
        trace = load_trace(entry)
        path = Path(entry)
    try:
        trace_digest(trace)
    except TraceFormatError as error:
        if error.path is None:
            error.path = path
        raise
    partials = None
    if ahead is not None:
        try:
            partials = _fused_pass(trace, *ahead)
        except Exception:
            # Not a load failure: the trace's later map runs the same
            # code and raises or quarantines there, as after a serial
            # load.
            pass
    if pickled:
        return _counted_pickle(trace, "engine.trace_bytes_in"), partials
    return trace, partials


def _counted_pickle(trace: Trace, metric: str) -> bytes:
    """``trace`` pickled for a pooled task, its size counted as ``metric``.

    The task carries these bytes in place of the trace. A file-backed
    store pickles as its `.lilac` path; its column bytes reach the
    other process by mmap and count as ``store.zero_copy_bytes``.
    """
    payload = pickle.dumps(trace)
    obs_runtime.count(metric, len(payload))
    backing = getattr(getattr(trace, "columnar", None), "backing", None)
    if backing is not None:
        obs_runtime.count("store.zero_copy_bytes", backing.nbytes)
    return payload


def _memo_key(config: Any) -> Tuple[Tuple[str, Tuple[Any, ...]], Tuple[Any, ...]]:
    """``(key, pins)`` of the partials a pooled load maps under ``config``.

    The key pairs the config fingerprint with the registry state a
    worker forked now runs (see :func:`~repro.engine.scheduler._make_pool`).
    A memo holds the ``pins``, the registry objects behind the key's
    identities, so no id in its key is reused while it lives.
    """
    fingerprint, pins = _registry_state()
    return (config_fingerprint(config), fingerprint), pins


def loaded_partials(
    trace: Trace, config: Any, names: Sequence[str]
) -> Optional[Dict[str, Any]]:
    """The partials of ``names`` that ``trace``'s pooled load mapped, if
    it mapped them under ``config`` and the current registry; None
    otherwise. Each hit counts ``engine.loaded_partials``."""
    memo = getattr(getattr(trace, "columnar", None), "_partials_memo", None)
    if memo is None or memo[0] != _memo_key(config)[0]:
        return None
    partials = memo[2]
    if not all(name in partials for name in names):
        return None
    obs_runtime.count("engine.loaded_partials")
    return {name: partials[name] for name in names}


def _entry_label(entry: Any) -> str:
    """Quarantine label of one ``load_traces`` entry."""
    from repro.lila.source import TraceSource

    if isinstance(entry, TraceSource):
        return entry.label()
    return Path(entry).name


class AnalysisEngine:
    """Runs registered analyses over traces, in parallel, through a cache.

    Args:
        workers: process count for fan-out; ``1`` (the default) runs
            everything serially in-process, ``0``/``None`` means one
            worker per CPU.
        cache_dir: root of the on-disk result cache; defaults to
            ``~/.cache/lagalyzer`` (or ``LAGALYZER_CACHE_DIR``).
        use_cache: disable the cache entirely with ``False``.
        obs: an :class:`~repro.obs.Observer` to record this engine's
            spans and metrics into; defaults to whatever observer is
            ambiently installed (none = observation disabled).
        retry: transient-failure policy for map tasks; defaults to
            3 attempts with exponential backoff and deterministic
            jitter (see :class:`~repro.engine.scheduler.RetryPolicy`).
        task_timeout: per-task result wait in seconds when fanning out
            to a pool; a hung worker trips this, the pool is torn
            down, and unfinished tasks re-run serially.

    Traces whose map fails *deterministically* (typed trace damage,
    or a transient error that survived every retry) are dropped from
    the batch and recorded on :attr:`quarantined` instead of aborting
    the run; the obs counters ``engine.retries`` / ``engine.timeouts``
    / ``engine.quarantined`` record how hard the engine had to fight.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        cache: Optional[ResultCache] = None,
        obs: Optional[Observer] = None,
        retry: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.workers = workers
        self.obs = obs
        self.retry = retry
        self.task_timeout = task_timeout
        #: Traces dropped by the most recent map/load call.
        self.quarantined: List[QuarantinedTrace] = []
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        elif use_cache:
            self.cache = ResultCache(cache_dir)
        else:
            self.cache = None

    # ------------------------------------------------------------------
    # Mapping (with cache)
    # ------------------------------------------------------------------

    def map_traces(
        self,
        analysis_names: Sequence[str],
        traces: Sequence[Trace],
        config: Any,
    ) -> Dict[str, List[Any]]:
        """Partials for every (analysis, trace) pair, in trace order.

        Each trace is probed with one bundle read. A trace that misses
        is served from the partials its pooled load mapped when they
        match this config and the current registry (see
        :meth:`load_traces`); the rest are mapped, in one fused pass
        each, and fanned out to worker processes as one task per
        trace, so each trace is pickled to a worker at most once.
        Every trace that missed is stored as one bundle.
        """
        for name in analysis_names:
            get_analysis(name)
        with obs_runtime.installed(self.obs):
            return self._map_traces(analysis_names, traces, config)

    def _map_traces(
        self,
        analysis_names: Sequence[str],
        traces: Sequence[Trace],
        config: Any,
    ) -> Dict[str, List[Any]]:
        cache = self.cache
        self.quarantined = []
        names = tuple(analysis_names)
        results: Dict[str, List[Any]] = {name: [None] * len(traces) for name in names}
        plan: AnalysisPlan = build_plan(names)
        fingerprint = config_fingerprint(config) if cache is not None else ""
        plan_fp = plan.fingerprint() if cache is not None else ""
        with obs_runtime.maybe_span(
            "engine.map_traces",
            analyses=len(names),
            traces=len(traces),
            workers=self.effective_workers,
        ):
            missing: List[int] = []
            digests: List[str] = []
            with obs_runtime.maybe_span("engine.cache.probe"):
                for index, trace in enumerate(traces):
                    if cache is not None:
                        digests.append(trace_digest(trace))
                        key = ResultCache.bundle_key(
                            digests[index], fingerprint, plan_fp
                        )
                        # bundle_parts(MISS) is (None, None): a miss
                        # reads as no bundle.
                        bundle = bundle_parts(cache.get_bundle(key))[1]
                        if bundle is not None and all(
                            name in bundle for name in names
                        ):
                            for name in names:
                                results[name][index] = bundle[name]
                            continue
                    missing.append(index)
            # A trace its pooled load mapped under this config and
            # registry is not shipped: the memo's partials are stored as
            # a fresh map's would be.
            shipped: List[int] = []
            for index in missing:
                trace = traces[index]
                partials = loaded_partials(trace, config, names)
                if partials is None:
                    shipped.append(index)
                    continue
                for name in names:
                    results[name][index] = partials[name]
                if cache is not None:
                    self._put_bundle(
                        trace, digests[index], partials, names, config,
                        fingerprint, plan_fp,
                    )
            if shipped:
                obs_runtime.count("engine.tasks", len(shipped))
                # Observed, a pooled task carries its trace pickled
                # here, so its bytes are counted from that one pickle.
                pickled = obs_runtime.current() is not None and fans_out(
                    self.workers, len(shipped)
                )
                tasks: List[Any] = []
                for index in shipped:
                    trace = traces[index]
                    if pickled:
                        trace = _counted_pickle(trace, "engine.trace_bytes_out")
                    tasks.append((trace, names, config))
                outcomes = run_tasks(
                    _map_task,
                    tasks,
                    workers=self.workers,
                    timeout=self.task_timeout,
                    retry=self.retry,
                    quarantine_types=QUARANTINE_ERRORS,
                )
                for index, outcome in zip(shipped, outcomes):
                    trace = traces[index]
                    if outcome.quarantined:
                        # A quarantined trace gets no bundle.
                        self.quarantined.append(
                            QuarantinedTrace(
                                index=index,
                                application=trace.application,
                                session_id=trace.metadata.session_id,
                                error=repr(outcome.error),
                            )
                        )
                        continue
                    partials = dict(zip(names, outcome.value))
                    for name in names:
                        results[name][index] = partials[name]
                    if cache is not None:
                        self._put_bundle(
                            trace, digests[index], partials, names, config,
                            fingerprint, plan_fp,
                        )
            if self.quarantined:
                # A quarantined trace contributes nothing to any result
                # list.
                dead = {entry.index for entry in self.quarantined}
                for name in names:
                    results[name] = [
                        partial
                        for index, partial in enumerate(results[name])
                        if index not in dead
                    ]
        return results

    def _put_bundle(
        self,
        trace: Trace,
        digest: str,
        partials: Dict[str, Any],
        names: Tuple[str, ...],
        config: Any,
        fingerprint: str,
        plan_fp: str,
    ) -> None:
        """Store one trace's fused-pass ``partials`` as its bundle."""
        backing = getattr(getattr(trace, "columnar", None), "backing", None)
        meta = {
            "application": trace.application,
            "session_id": trace.metadata.session_id,
            "trace_digest": digest,
            "config_fingerprint": fingerprint,
            "plan_fingerprint": plan_fp,
            "family": trace.metadata.extra.get("family", "gui"),
            "analyses": sorted(names),
            "threshold_ms": getattr(config, "perceptible_threshold_ms", None),
            "column_file": str(backing.path) if backing is not None else None,
        }
        self.cache.put_bundle(
            ResultCache.bundle_key(digest, fingerprint, plan_fp),
            bundle_envelope(partials, meta),
        )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def summarize(
        self,
        analysis_name: str,
        traces: Sequence[Trace],
        config: Any,
        perceptible_only: bool = False,
    ) -> Any:
        """The full summary of one analysis over ``traces``."""
        partials = self.map_traces([analysis_name], traces, config)[analysis_name]
        with obs_runtime.installed(self.obs):
            with obs_runtime.maybe_span(
                "engine.reduce", metric="engine.reduce_ms", analysis=analysis_name
            ):
                return get_analysis(analysis_name).reduce(
                    partials, perceptible_only=perceptible_only
                )

    def summarize_all(
        self,
        analysis_names: Sequence[str],
        traces: Sequence[Trace],
        config: Any,
    ) -> Dict[str, Any]:
        """Summaries of several analyses, sharing one map fan-out."""
        partial_lists = self.map_traces(analysis_names, traces, config)
        with obs_runtime.installed(self.obs):
            summaries: Dict[str, Any] = {}
            for name in analysis_names:
                with obs_runtime.maybe_span(
                    "engine.reduce", metric="engine.reduce_ms", analysis=name
                ):
                    summaries[name] = get_analysis(name).reduce(
                        partial_lists[name]
                    )
            return summaries

    # ------------------------------------------------------------------
    # Parallel trace loading
    # ------------------------------------------------------------------

    def load_traces(
        self,
        paths: Sequence[Any],
        on_error: str = "raise",
        config: Any = None,
    ) -> List[Trace]:
        """Load traces, fanning the parsing out across workers.

        Args:
            paths: trace file paths and/or open
                :class:`~repro.lila.source.TraceSource` objects, freely
                mixed; each source streams straight into a columnar
                store without re-materializing an object tree.
            on_error: ``"raise"`` (default) propagates the first parse
                failure; ``"quarantine"`` skips unreadable/damaged
                files, records them on :attr:`quarantined`, and returns
                the traces that loaded.
            config: an analysis config. When the load fans out to the
                pool, each load task also maps its trace with every
                registered analysis under ``config`` and returns the
                partials with it. They are memoized on the trace's
                columnar store, so a later :meth:`map_traces` under the
                same config and registry stores them as the trace's
                bundle and ships the trace to no worker. A serial load
                maps nothing ahead.
        """
        from repro.lila.source import TraceSource
        if on_error not in ("raise", "quarantine"):
            raise AnalysisError(
                f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
            )
        quarantine = QUARANTINE_ERRORS if on_error == "quarantine" else ()
        with obs_runtime.installed(self.obs):
            self.quarantined = []
            with obs_runtime.maybe_span("engine.load_traces", files=len(paths)):
                entries: List[Any] = [
                    path if isinstance(path, TraceSource) else str(path)
                    for path in paths
                ]
                pooled = fans_out(self.workers, len(entries))
                ahead: Optional[Tuple[Tuple[str, ...], Any]] = None
                if config is not None and pooled:
                    names = tuple(REGISTRY)
                    memo_key, pins = _memo_key(config)
                    ahead = (names, config)
                pickled = pooled and obs_runtime.current() is not None
                outcomes = run_tasks(
                    _load_task,
                    [(entry, ahead, pickled) for entry in entries],
                    workers=self.workers,
                    timeout=self.task_timeout,
                    retry=self.retry,
                    quarantine_types=quarantine,
                )
                traces = []
                for index, outcome in enumerate(outcomes):
                    if outcome.quarantined:
                        self.quarantined.append(
                            QuarantinedTrace(
                                index=index,
                                application="",
                                session_id=_entry_label(paths[index]),
                                error=repr(outcome.error),
                            )
                        )
                        continue
                    trace, partial_list = outcome.value
                    if isinstance(trace, bytes):
                        trace = pickle.loads(trace)
                    if partial_list is not None:
                        # Beside the digest memo; never pickled (see
                        # ColumnarTrace.__getstate__).
                        trace.columnar._partials_memo = (
                            memo_key, pins, dict(zip(names, partial_list))
                        )
                    traces.append(trace)
                return traces

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def effective_workers(self) -> int:
        return resolve_workers(self.workers)

    def flush_cache_stats(self) -> None:
        """Persist this process's cache counters (no-op without a cache)."""
        if self.cache is not None:
            self.cache.flush_stats()

    def __repr__(self) -> str:
        cache = self.cache.root if self.cache is not None else None
        return (
            f"AnalysisEngine(workers={self.workers!r}, cache={str(cache)!r}, "
            f"analyses={sorted(REGISTRY)})"
        )
