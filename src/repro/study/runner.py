"""Running the characterization study.

The paper's methodology: four interactive sessions per application,
each analyzed offline by LagAlyzer; Table III reports per-application
averages over the sessions, and Figures 3-8 characterize patterns,
triggers, locations, and causes. :func:`run_study` reproduces that
pipeline — and, through :mod:`repro.engine`, scales it: applications
fan out across worker processes (``workers=``) and every per-trace
analysis partial is served from the content-addressed result cache when
the trace is unchanged, so re-running a study is mostly cache reads.
Each application's analyses are compiled into one fused
:class:`~repro.core.plan.AnalysisPlan`, so every session trace is
scanned once per study run (not once per analysis) and a warm re-run is
one fused-bundle read per trace. Parallel, cached, and fused runs all
produce results identical to the serial path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analyzer import AnalysisConfig
from repro.core.causegraph import CauseSummary
from repro.core.errors import AnalysisError
from repro.core.store import as_columnar
from repro.core.store.buffers import InternTable
from repro.core.trace import Trace
from repro.obs import Observer
from repro.obs import runtime as obs_runtime
from repro.core.concurrency import ConcurrencySummary
from repro.core.location import LocationSummary
from repro.core.occurrence import OccurrenceSummary
from repro.core.statistics import SessionStats, mean_row
from repro.core.threadstates import ThreadStateSummary
from repro.core.triggers import TriggerSummary
from repro.engine.cache import default_cache_dir
from repro.engine.engine import AnalysisEngine, QuarantinedTrace
from repro.engine.scheduler import RetryPolicy, resolve_workers, run_tasks
from repro.faults import runtime as faults_runtime
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.apps.catalog import APPLICATION_NAMES
from repro.apps.sessions import simulate_sessions

#: The analyses every AppResult is assembled from, in map order.
_APP_ANALYSES = (
    "statistics",
    "occurrence",
    "triggers",
    "location",
    "concurrency",
    "threadstates",
    "patterns",
    "causes",
)


@dataclass(frozen=True)
class StudyConfig:
    """How to run the study."""

    seed: int = 20100401
    sessions: int = 4
    scale: float = 1.0
    applications: Tuple[str, ...] = APPLICATION_NAMES
    perceptible_threshold_ms: float = 100.0

    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(
            perceptible_threshold_ms=self.perceptible_threshold_ms
        )


@dataclass
class AppResult:
    """Every per-application statistic the paper's evaluation uses."""

    name: str
    session_stats: List[SessionStats]
    mean_stats: SessionStats
    occurrence: OccurrenceSummary
    triggers_all: TriggerSummary
    triggers_perceptible: TriggerSummary
    location_all: LocationSummary
    location_perceptible: LocationSummary
    concurrency_all: ConcurrencySummary
    concurrency_perceptible: ConcurrencySummary
    threadstates_all: ThreadStateSummary
    threadstates_perceptible: ThreadStateSummary
    pattern_cdf: List[float]
    """Figure 3 curve: cumulative episode % by pattern % (101 points)."""

    causes: Optional[CauseSummary] = None
    """Self-time attribution by cause label over all episodes."""

    quarantined: List[QuarantinedTrace] = field(default_factory=list)
    """Sessions excluded from every summary above (damaged traces)."""


@dataclass
class StudyResult:
    """All application results plus the cross-application mean row."""

    config: StudyConfig
    apps: Dict[str, AppResult]

    @property
    def mean_stats(self) -> SessionStats:
        """The "Mean" row at the bottom of Table III."""
        return mean_row([result.mean_stats for result in self.apps.values()])

    @property
    def quarantined(self) -> Dict[str, List[QuarantinedTrace]]:
        """Damaged sessions per application (apps with none are omitted)."""
        return {
            name: result.quarantined
            for name, result in self.apps.items()
            if result.quarantined
        }

    def ordered(self) -> List[AppResult]:
        """Results in Table II order."""
        return [self.apps[name] for name in self.config.applications]


def analyze_app(
    name: str,
    config: StudyConfig,
    engine: Optional[AnalysisEngine] = None,
    traces: Optional[Sequence[Trace]] = None,
) -> AppResult:
    """Simulate and analyze one application's sessions.

    With an engine, every per-trace analysis partial goes through its
    result cache — a re-run over unchanged traces does no map work.
    Sessions whose traces fail with deterministic damage are
    quarantined (listed in :attr:`AppResult.quarantined`, excluded from
    every summary); only an application with *no* analyzable session
    raises.

    Args:
        traces: pre-loaded session traces; when omitted, the paper's
            sessions are simulated from ``config``.
    """
    if traces is None:
        with obs_runtime.maybe_span(
            "study.simulate", application=name, sessions=config.sessions
        ):
            traces = simulate_sessions(
                name,
                count=config.sessions,
                seed=config.seed,
                scale=config.scale,
            )
    # Ship columns, not object trees: columnar-backed traces pickle
    # smaller to map workers and analyses read the arrays directly.
    # Content digests are unchanged, so cache keys stay stable. One
    # string table and one stack table are shared across the app's
    # sessions (they repeat the same symbols), cutting columnarization
    # memory; ids are store-internal, so sharing changes no output.
    interns = InternTable()
    stack_interns = InternTable()
    traces = [
        as_columnar(trace, interns=interns, stack_interns=stack_interns)
        for trace in traces
    ]
    analysis_config = config.analysis_config()
    if engine is None:
        engine = AnalysisEngine(workers=1, use_cache=False)
    partials = engine.map_traces(_APP_ANALYSES, traces, analysis_config)
    quarantined = list(engine.quarantined)
    if len(quarantined) == len(traces):
        raise AnalysisError(
            f"every session of {name} was quarantined: "
            + "; ".join(entry.describe() for entry in quarantined)
        )

    def reduce(analysis: str, perceptible_only: bool = False):
        from repro.core.analyses import get_analysis

        with obs_runtime.maybe_span(
            "engine.reduce", metric="engine.reduce_ms", analysis=analysis
        ):
            return get_analysis(analysis).reduce(
                partials[analysis], perceptible_only=perceptible_only
            )

    stats = reduce("statistics")
    return AppResult(
        name=stats.mean.application,
        session_stats=list(stats.rows),
        mean_stats=stats.mean,
        occurrence=reduce("occurrence"),
        triggers_all=reduce("triggers"),
        triggers_perceptible=reduce("triggers", perceptible_only=True),
        location_all=reduce("location"),
        location_perceptible=reduce("location", perceptible_only=True),
        concurrency_all=reduce("concurrency"),
        concurrency_perceptible=reduce("concurrency", perceptible_only=True),
        threadstates_all=reduce("threadstates"),
        threadstates_perceptible=reduce(
            "threadstates", perceptible_only=True
        ),
        pattern_cdf=list(reduce("patterns").cdf),
        causes=reduce("causes"),
        quarantined=quarantined,
    )


def _analyze_app_task(
    name: str,
    config: StudyConfig,
    cache_dir: Optional[str],
    use_cache: bool,
    retry: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
) -> AppResult:
    """Worker: one application end to end (module-level for pickling).

    Cache counters accumulated in the worker are flushed to the shared
    ``stats.json`` before returning, so ``engine cache stats`` sees the
    whole study no matter how it was scheduled.
    """
    with obs_runtime.maybe_span("study.app", application=name):
        engine = AnalysisEngine(
            workers=1,
            cache_dir=cache_dir,
            use_cache=use_cache,
            retry=retry,
            task_timeout=task_timeout,
        )
        result = analyze_app(name, config, engine=engine)
        engine.flush_cache_stats()
    return result


def _resolve_injector(
    faults: Union[FaultPlan, FaultInjector, dict, None],
) -> Optional[FaultInjector]:
    """Normalize the ``faults=`` knob to an injector (or None)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)


def run_study(
    config: Optional[StudyConfig] = None,
    progress: bool = False,
    workers: Optional[int] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
    obs: Optional[Observer] = None,
    faults: Union[FaultPlan, FaultInjector, dict, None] = None,
    retry: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
    warehouse: Optional[Union[str, Path]] = None,
    warehouse_run_id: Optional[str] = None,
) -> StudyResult:
    """Run the full characterization study.

    Args:
        config: study parameters; defaults to the paper's setup (four
            full-length sessions per application, 100 ms threshold).
        progress: print one line per application as it completes.
        workers: worker processes to fan applications out across
            (``1`` = serial, ``0`` = one per CPU). Results are
            identical for every worker count.
        cache_dir: result-cache root (default ``~/.cache/lagalyzer``).
        use_cache: set ``False`` to recompute everything.
        obs: an :class:`~repro.obs.Observer`; when given, the study is
            traced end to end (installed ambiently for the duration;
            the scheduler merges pooled workers' snapshots back under
            the ``study.run`` root span). Results are identical either
            way.
        faults: a :class:`~repro.faults.FaultPlan` (or injector, or
            plan dict) to run the study under — installed ambiently for
            the duration and shipped into workers. Damaged sessions are
            quarantined per application (see
            :attr:`StudyResult.quarantined`); transient faults are
            absorbed by the retry policy. Surviving sessions produce
            results identical to a fault-free run.
        retry: transient-failure policy for both the application
            fan-out and each engine's per-trace tasks (default: three
            attempts with exponential backoff).
        task_timeout: per-task result wait in seconds on pooled paths;
            a hung worker trips it and the work re-runs serially.
        warehouse: path of a study-warehouse SQLite file; after the
            study, the fused bundles this run left in the result cache
            are compacted into it as one queryable run (see
            :mod:`repro.warehouse`). Requires ``use_cache=True``; any
            warehouse failure warns and leaves the study result intact.
        warehouse_run_id: the run id warehouse rows are filed under;
            defaults to a deterministic ``study-<seed>-<config-fp>``.
    """
    config = config or StudyConfig()
    injector = _resolve_injector(faults)
    with faults_runtime.installed(
        injector if injector is not faults_runtime.current() else None
    ):
        with obs_runtime.installed(obs):
            with obs_runtime.maybe_span(
                "study.run",
                applications=len(config.applications),
                sessions=config.sessions,
                scale=config.scale,
                workers=resolve_workers(workers),
            ):
                task = functools.partial(
                    _analyze_app_task,
                    config=config,
                    # Resolved here: a pool worker reads the environment
                    # as it was when the pool started.
                    cache_dir=str(
                        cache_dir if cache_dir is not None
                        else default_cache_dir()
                    ),
                    use_cache=use_cache,
                    retry=retry,
                    task_timeout=task_timeout,
                )
                outcomes = run_tasks(
                    task,
                    config.applications,
                    workers=workers,
                    timeout=task_timeout,
                    retry=retry,
                )
                results: Dict[str, AppResult] = {}
                for outcome in outcomes:
                    result = outcome.value
                    results[result.name] = result
                    if progress:
                        stats = result.mean_stats
                        print(
                            f"  {result.name:<14s} "
                            f"traced={stats.traced:7.0f} "
                            f"perceptible={stats.perceptible:6.0f} "
                            f"patterns={stats.distinct_patterns:6.0f}"
                        )
                    if progress and result.quarantined:
                        for entry in result.quarantined:
                            print(f"    quarantined: {entry.describe()}")
            if warehouse is not None:
                _compact_into_warehouse(
                    warehouse, warehouse_run_id, config, cache_dir,
                    use_cache, progress,
                )
    return StudyResult(config=config, apps=results)


def _compact_into_warehouse(
    warehouse: Union[str, Path],
    run_id: Optional[str],
    config: StudyConfig,
    cache_dir: Optional[Union[str, Path]],
    use_cache: bool,
    progress: bool,
) -> None:
    """Compact this study's cache bundles into the study warehouse.

    Best-effort by design: the warehouse is a byproduct of the study,
    so every failure path warns (and counts
    ``warehouse.write_errors``) instead of raising — a full disk must
    not discard seven hours of analysis.
    """
    import warnings

    from repro.engine.cache import ResultCache, config_fingerprint
    from repro.warehouse import StudyWarehouse

    if not use_cache:
        warnings.warn(
            "run_study(warehouse=...) needs use_cache=True — the "
            "warehouse compacts the bundles the study leaves in the "
            "result cache; skipping warehouse update",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    fingerprint = config_fingerprint(config.analysis_config())
    resolved_run = run_id or f"study-{config.seed}-{fingerprint[:8]}"
    try:
        store = StudyWarehouse(warehouse)
        store.record_run(
            resolved_run,
            label=f"seed={config.seed} sessions={config.sessions}"
            f" scale={config.scale}",
            source="bundles",
            config_fingerprint=fingerprint,
            threshold_ms=config.perceptible_threshold_ms,
        )
        counts = store.ingest_bundles(
            ResultCache(cache_dir),
            resolved_run,
            config_fingerprint=fingerprint,
            applications=config.applications,
        )
        if progress:
            print(
                f"  warehouse: run {resolved_run} "
                f"+{counts['ingested']} sessions "
                f"({counts['skipped']} already present)"
            )
    except Exception as error:  # degrade, never kill the study
        obs_runtime.count("warehouse.write_errors")
        warnings.warn(
            f"study warehouse update failed under {warehouse}: {error} — "
            f"study results are unaffected",
            RuntimeWarning,
            stacklevel=3,
        )
