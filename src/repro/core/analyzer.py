"""The LagAlyzer facade: one object that runs every analysis.

The paper's core "provides the basis for the visualizations and analyses"
and exposes "a straightforward API" for developers writing their own
analyses. :class:`LagAlyzer` is that API: construct it from one or more
session traces (the tool integrates multiple traces in its analysis) and
query episodes, patterns, and the four characterization axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core import analyses as analyses_mod
from repro.core import causegraph
from repro.core.concurrency import ConcurrencySummary
from repro.core.episodes import DEFAULT_PERCEPTIBLE_MS, Episode
from repro.core.errors import AnalysisError
from repro.core.location import LocationSummary
from repro.core.occurrence import OccurrenceSummary
from repro.core.patterns import Pattern, PatternTable
from repro.core.plan import AnalysisPlan, build_plan
from repro.core.samples import DEFAULT_LIBRARY_PREFIXES
from repro.core.statistics import SessionStats, average_stats
from repro.core.threadstates import ThreadStateSummary
from repro.core.trace import Trace
from repro.core.triggers import TriggerSummary
from repro.obs import runtime as obs_runtime


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable knobs shared by every analysis.

    Attributes:
        perceptible_threshold_ms: lag beyond which an episode is deemed
            perceptible. The paper uses Shneiderman's 100 ms; Dabrowski &
            Munson suggest 150 ms (keyboard) / 195 ms (mouse) — exposed
            for the threshold ablation.
        library_prefixes: fully-qualified class-name prefixes classified
            as "runtime library" in the location analysis.
        include_gc_in_patterns: include GC nodes in pattern keys. The
            paper's tool never does; this is an ablation knob.
    """

    perceptible_threshold_ms: float = DEFAULT_PERCEPTIBLE_MS
    library_prefixes: Tuple[str, ...] = DEFAULT_LIBRARY_PREFIXES
    include_gc_in_patterns: bool = False
    all_dispatch_threads: bool = False
    """Analyze episodes from every event dispatch thread, not just the
    primary GUI thread. The paper's study has one GUI thread; the tool
    supports multiple (Section V)."""

    def __post_init__(self) -> None:
        threshold = self.perceptible_threshold_ms
        if not isinstance(threshold, (int, float)) or math.isnan(threshold):
            raise AnalysisError(
                f"perceptible_threshold_ms must be a number, got {threshold!r}"
            )
        if threshold < 0:
            raise AnalysisError(
                "perceptible_threshold_ms must be >= 0, got "
                f"{threshold!r} (a negative cut would mark every episode "
                "perceptible)"
            )
        # Normalize to a tuple so configs hash/fingerprint stably no
        # matter what sequence type the caller passed.
        if not isinstance(self.library_prefixes, tuple):
            object.__setattr__(
                self, "library_prefixes", tuple(self.library_prefixes)
            )

    def with_threshold(self, threshold_ms: float) -> "AnalysisConfig":
        """A copy of this config with a different perceptibility cut."""
        return replace(self, perceptible_threshold_ms=threshold_ms)

    def fingerprint(self) -> str:
        """Stable content hash of this config (engine cache key part)."""
        from repro.engine.cache import config_fingerprint

        return config_fingerprint(self)


class LagAlyzer:
    """Offline analyzer over one or more session traces.

    All analyses are lazy and cached: the pattern table is mined once on
    first use and reused by every analysis that needs it.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        config: Optional[AnalysisConfig] = None,
        obs: Optional[Any] = None,
    ) -> None:
        if not traces:
            raise AnalysisError("LagAlyzer needs at least one trace")
        applications = {trace.application for trace in traces}
        if len(applications) > 1:
            raise AnalysisError(
                "all traces passed to one LagAlyzer must come from the "
                f"same application; got {sorted(applications)}"
            )
        self.traces: List[Trace] = list(traces)
        self.config = config or AnalysisConfig()
        self.obs = obs
        """Optional :class:`repro.obs.Observer` this analyzer reports
        into (falls back to the ambiently installed observer)."""
        self._pattern_table: Optional[PatternTable] = None
        self._episodes: Optional[List[Episode]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_traces(
        cls,
        traces: Sequence[Trace],
        config: Optional[AnalysisConfig] = None,
        obs: Optional[Any] = None,
    ) -> "LagAlyzer":
        """Build an analyzer from already-loaded traces."""
        return cls(traces, config=config, obs=obs)

    @classmethod
    def load(
        cls,
        paths: Union[str, Path, Sequence[Any]],
        config: Optional[AnalysisConfig] = None,
        workers: Optional[int] = 1,
        obs: Optional[Any] = None,
    ) -> "LagAlyzer":
        """Build an analyzer by reading LiLa-style traces.

        ``paths`` may be explicit file paths, directories (every trace
        file inside), glob patterns, open
        :class:`~repro.lila.source.TraceSource` objects, or a mix —
        a single entry or a sequence. Both the text and the `.lilac`
        encodings are accepted; the format is detected per file. With
        ``workers > 1`` files are parsed in parallel processes via the
        engine (``0`` means one worker per CPU), and each worker also
        maps the trace it parsed with every registered analysis under
        ``config``: a later ``summaries(engine=...)`` under the same
        config and registry then stores those partials and ships no
        trace to a worker, and an engine-less :meth:`summary` or
        :meth:`summaries` reduces them without mapping again.
        """
        from repro.engine.engine import AnalysisEngine
        from repro.lila.autodetect import expand_trace_paths
        from repro.lila.source import TraceSource

        if isinstance(paths, (str, Path, TraceSource)):
            paths = [paths]
        entries: List[Any] = []
        for item in paths:
            if isinstance(item, TraceSource):
                entries.append(item)
            else:
                entries.extend(expand_trace_paths(item))
        config = config or AnalysisConfig()
        engine = AnalysisEngine(workers=workers, use_cache=False, obs=obs)
        traces = engine.load_traces(entries, config=config)
        return cls(traces, config=config, obs=obs)

    # ------------------------------------------------------------------
    # Episode access
    # ------------------------------------------------------------------

    @property
    def application(self) -> str:
        return self.traces[0].application

    @property
    def episodes(self) -> List[Episode]:
        """All episodes of all sessions, session order then time order.

        Built once on first access and reused by every summary call;
        traces are immutable, so the cache never needs invalidation.
        """
        if self._episodes is None:
            with obs_runtime.installed(self.obs):
                with obs_runtime.maybe_span(
                    "api.episodes", traces=len(self.traces)
                ):
                    result: List[Episode] = []
                    for trace in self.traces:
                        result.extend(
                            analyses_mod.trace_episodes(trace, self.config)
                        )
            self._episodes = result
        return self._episodes

    def perceptible_episodes(self) -> List[Episode]:
        """Episodes beyond the configured perceptibility threshold."""
        threshold = self.config.perceptible_threshold_ms
        return [ep for ep in self.episodes if ep.is_perceptible(threshold)]

    # ------------------------------------------------------------------
    # Patterns (Sections II-C to II-E)
    # ------------------------------------------------------------------

    def pattern_table(self) -> PatternTable:
        """The mined pattern table, integrating all sessions."""
        if self._pattern_table is None:
            episodes = self.episodes
            with obs_runtime.installed(self.obs):
                with obs_runtime.maybe_span(
                    "api.pattern_table", episodes=len(episodes)
                ):
                    self._pattern_table = PatternTable.from_episodes(
                        episodes,
                        include_gc=self.config.include_gc_in_patterns,
                    )
        return self._pattern_table

    def pattern_of(self, episode: Episode) -> Optional[Pattern]:
        """The pattern containing ``episode`` (None for empty episodes)."""
        if not episode.has_structure:
            return None
        from repro.core.patterns import pattern_key

        key = pattern_key(
            episode, include_gc=self.config.include_gc_in_patterns
        )
        return self.pattern_table().get(key)

    # ------------------------------------------------------------------
    # Characterization analyses (Section IV)
    # ------------------------------------------------------------------

    def summary(
        self,
        name: str,
        perceptible_only: bool = False,
        engine: Optional[Any] = None,
    ) -> Any:
        """Run any registered analysis by name.

        ``name`` is a key of :data:`repro.core.analyses.REGISTRY`
        (``"occurrence"``, ``"triggers"``, ``"location"``,
        ``"concurrency"``, ``"threadstates"``, ``"statistics"``,
        ``"patterns"``, or anything registered downstream). With an
        :class:`~repro.engine.AnalysisEngine` the per-trace map work
        runs through its worker pool and result cache; without one each
        trace is mapped in-process, or served the partials its pooled
        load mapped (see :meth:`load`). Both paths produce identical
        summaries. The cache keys a bundle by its analysis set, so this
        one-analysis request stores its own bundles rather than reading
        those an earlier :meth:`summaries` run stored.

        Raises:
            AnalysisError: unknown name, or ``perceptible_only=True``
                for an analysis without that variant.
        """
        if engine is not None:
            return engine.summarize(
                name, self.traces, self.config, perceptible_only=perceptible_only
            )
        plan = build_plan([name])
        analysis = plan.operators[0].analysis
        if perceptible_only and not analysis.supports_perceptible_only:
            raise AnalysisError(
                f"analysis {name!r} has no perceptible-only variant"
            )
        with obs_runtime.installed(self.obs):
            with obs_runtime.maybe_span(
                "api.summary", analysis=name, perceptible_only=perceptible_only
            ):
                return analysis.reduce(
                    [partials[name] for partials in self._partials(plan)],
                    perceptible_only=perceptible_only,
                )

    def summaries(
        self,
        names: Optional[Sequence[str]] = None,
        engine: Optional[Any] = None,
    ) -> dict:
        """Summaries of several analyses from **one fused pass per trace**.

        The requested ``names`` (default: every registered analysis, in
        registration order) are compiled into one
        :class:`~repro.core.plan.AnalysisPlan`; each trace is then
        mapped once, with shared stages (the episode split, pattern
        tallies) computed a single time and reused by every analysis
        that needs them. Results are byte-identical to calling
        :meth:`summary` once per name — just without re-scanning each
        trace N times.

        With an :class:`~repro.engine.AnalysisEngine` the fused passes
        additionally run through its worker pool and bundle cache
        (``engine.summarize_all``); without one they run serially
        in-process, except for a trace whose pooled load already mapped
        it (see :meth:`load`).
        """
        if names is None:
            names = tuple(analyses_mod.REGISTRY)
        if engine is not None:
            return engine.summarize_all(names, self.traces, self.config)
        plan = build_plan(names)
        with obs_runtime.installed(self.obs):
            with obs_runtime.maybe_span(
                "api.summaries", analyses=len(plan.operators),
                traces=len(self.traces),
            ):
                per_trace = self._partials(plan)
                return {
                    op.name: op.analysis.reduce(
                        [partials[op.name] for partials in per_trace]
                    )
                    for op in plan.operators
                }

    def _partials(self, plan: AnalysisPlan) -> List[dict]:
        """Each trace's partials of ``plan``'s analyses: those its pooled
        load mapped under this config and registry, or one fused pass."""
        from repro.engine.engine import loaded_partials

        per_trace = []
        for trace in self.traces:
            partials = loaded_partials(trace, self.config, plan.names)
            if partials is None:
                partials = plan.execute(trace, self.config)
            per_trace.append(partials)
        return per_trace

    def occurrence_summary(self) -> OccurrenceSummary:
        """Always/sometimes/once/never distribution over patterns (Fig 4)."""
        return self.summary("occurrence")

    def trigger_summary(self, perceptible_only: bool = False) -> TriggerSummary:
        """Input/output/async/unspecified episode counts (Fig 5)."""
        return self.summary("triggers", perceptible_only=perceptible_only)

    def location_summary(self, perceptible_only: bool = False) -> LocationSummary:
        """App/library and GC/native time breakdown (Fig 6)."""
        return self.summary("location", perceptible_only=perceptible_only)

    def concurrency_summary(
        self, perceptible_only: bool = False
    ) -> ConcurrencySummary:
        """Mean runnable threads during episodes (Fig 7)."""
        return self.summary("concurrency", perceptible_only=perceptible_only)

    def threadstate_summary(
        self, perceptible_only: bool = False
    ) -> ThreadStateSummary:
        """GUI-thread blocked/wait/sleep/runnable split (Fig 8)."""
        return self.summary("threadstates", perceptible_only=perceptible_only)

    # ------------------------------------------------------------------
    # Cause analysis (dependency graphs and run diffing)
    # ------------------------------------------------------------------

    def cause_summary(
        self, perceptible_only: bool = False
    ) -> causegraph.CauseSummary:
        """Self-time attribution by cause label over all episodes."""
        return self.summary("causes", perceptible_only=perceptible_only)

    def cause_graph(self, episode: Episode) -> causegraph.EpisodeCauseGraph:
        """One episode's interval tree as a dependency graph."""
        return causegraph.build_graph(episode)

    def critical_path(
        self, episode: Episode
    ) -> Tuple[causegraph.CauseNode, ...]:
        """The heaviest dependency chain of one episode."""
        return causegraph.critical_path(causegraph.build_graph(episode))

    def rank_outlier_causes(
        self, threshold_ms: Optional[float] = None
    ) -> List[Tuple[str, float]]:
        """Causes ranked by their concentration in outlier episodes.

        ``threshold_ms`` defaults to the config's perceptibility cut.
        """
        if threshold_ms is None:
            threshold_ms = self.config.perceptible_threshold_ms
        return causegraph.rank_outliers(self.episodes, threshold_ms)

    @classmethod
    def diff(
        cls,
        study_a: str,
        study_b: str,
        warehouse: Union[str, Path, Any],
        apps: Optional[Sequence[str]] = None,
        perceptible_only: bool = False,
    ) -> causegraph.DiffReport:
        """Attribute the latency delta between two warehouse runs.

        ``study_a`` and ``study_b`` are run ids of a study warehouse
        (a path or an open
        :class:`~repro.warehouse.StudyWarehouse`); the report ranks
        every cause label by how much self time it gained from A to B,
        regressions first.
        """
        from repro.warehouse import StudyWarehouse

        store = warehouse
        if not isinstance(store, StudyWarehouse):
            store = StudyWarehouse(warehouse)
        return store.diff(
            study_a, study_b, apps=apps, perceptible_only=perceptible_only
        )

    # ------------------------------------------------------------------
    # Session statistics (Table III)
    # ------------------------------------------------------------------

    def session_stats(self) -> List[SessionStats]:
        """One Table III row per session."""
        return list(self.summary("statistics").rows)

    def mean_session_stats(self) -> SessionStats:
        """Table III row averaged over this application's sessions."""
        return average_stats(self.session_stats(), self.application)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"LagAlyzer({self.application!r}, {len(self.traces)} sessions, "
            f"{len(self.episodes)} episodes)"
        )
