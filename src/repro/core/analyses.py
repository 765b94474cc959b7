"""The unified Analysis protocol and the analysis registry.

Every characterization axis of the paper (occurrence, triggers,
location, concurrency, thread states) plus the Table III statistics and
the pattern-mining aggregates is exposed here as an :class:`Analysis`:
an object with a *mergeable* map–reduce decomposition.

- ``map_trace(trace, config)`` computes a small, picklable *partial*
  from one session trace. Partials are independent per trace, so they
  can be computed in parallel processes and cached on disk keyed by the
  trace's content digest (see :mod:`repro.engine`).
- ``reduce(partials)`` merges the per-trace partials into the same
  summary object the serial code produces. Merging is order-sensitive
  only where the serial result is (pattern first-appearance order), so
  ``reduce`` over partials listed in trace order is **bit-identical**
  to the one-pass serial analysis.
- ``summarize(traces, config)`` is the serial composition
  ``reduce([map_trace(t) for t in traces])`` — the reference
  implementation every parallel or cached path must reproduce exactly.

Analyses that distinguish the perceptible-only episode population
(Figures 5–8) fold **both** populations into one partial, so a single
cached map serves ``perceptible_only=True`` and ``False`` alike; the
flag is applied at reduce time.

Since the fused-plan refactor every analysis implements its map as
``map_context(ctx)`` over a :class:`~repro.core.plan.StageContext`, and
``map_trace`` merely delegates through a fresh single-use context.
Shared prefixes — the episode split, the pattern-key tally — are
requested from the context, so when several analyses run as one
:class:`~repro.core.plan.AnalysisPlan` each prefix is computed exactly
once per trace and reused; run alone, the same code computes the same
stages into a private context. Fused and per-analysis partials are
therefore byte-identical by construction.

Every ``map_context`` reads only ``ctx.store`` through the column
kernels of :mod:`repro.core.store.kernels`; the context columnarizes a
plain object-graph trace when it is built. The object functions
(:func:`repro.core.triggers.summarize` and its siblings) stay as the
reference implementations the parity suite compares the kernels with.

The :data:`REGISTRY` maps stable analysis names to their instances;
:meth:`~repro.core.analyzer.LagAlyzer.summary` and the engine look analyses
up by name. Downstream users add their own axis with :func:`register`.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core import causegraph
from repro.core.concurrency import ConcurrencySummary
from repro.core.episodes import trace_episodes  # noqa: F401  (re-exported; analyzer.py uses it)
from repro.core.errors import AnalysisError
from repro.core.location import LocationSummary
from repro.core.occurrence import Occurrence, OccurrenceSummary
from repro.core.patterns import (
    cumulative_distribution_from_counts,
    key_depth,
    key_descendant_count,
)
from repro.core.plan import StageContext
from repro.core.statistics import SessionStats, average_stats
from repro.core.store import kernels as store_kernels
from repro.core.threadstates import ThreadStateSummary
from repro.core.trace import Trace
from repro.core.triggers import TriggerSummary


@runtime_checkable
class Analysis(Protocol):
    """What every entry of the registry provides.

    ``map_trace`` must return a picklable value; ``reduce`` must accept
    partials in trace order and reproduce the serial summary exactly.
    Analyses whose summaries do not depend on the perceptible-only
    split set ``supports_perceptible_only = False`` and reject the flag.
    """

    name: str
    supports_perceptible_only: bool

    def map_context(self, ctx: StageContext) -> Any:
        ...

    def map_trace(self, trace: Trace, config: Any) -> Any:
        ...

    def reduce(self, partials: Sequence[Any], perceptible_only: bool = False) -> Any:
        ...

    def summarize(
        self,
        traces: Sequence[Trace],
        config: Any,
        perceptible_only: bool = False,
    ) -> Any:
        ...


class MapReduceAnalysis:
    """Base class: ``summarize`` as the serial map–reduce composition.

    Subclasses implement :meth:`map_context` as their *only* map code;
    :meth:`map_trace` wraps the trace in a fresh single-use
    :class:`~repro.core.plan.StageContext`, which makes the classic
    per-analysis path a degenerate fused plan of size one — the fused
    executor runs literally the same code, just through a shared
    context.
    """

    name: str = ""
    supports_perceptible_only: bool = False
    #: Names of the shared stages this analysis's map requests from its
    #: context (informational: surfaced by ``engine plan explain`` and
    #: folded into plan descriptions; execution shares via the context
    #: memo regardless).
    shared_stages: Tuple[str, ...] = ()

    def map_context(self, ctx: StageContext) -> Any:
        raise NotImplementedError

    def map_trace(self, trace: Trace, config: Any) -> Any:
        return self.map_context(StageContext(trace, config))

    def reduce(self, partials: Sequence[Any], perceptible_only: bool = False) -> Any:
        raise NotImplementedError

    def _check_flag(self, perceptible_only: bool) -> None:
        if perceptible_only and not self.supports_perceptible_only:
            raise AnalysisError(
                f"analysis {self.name!r} has no perceptible-only variant"
            )

    def summarize(
        self,
        traces: Sequence[Trace],
        config: Any,
        perceptible_only: bool = False,
    ) -> Any:
        self._check_flag(perceptible_only)
        partials = [self.map_trace(trace, config) for trace in traces]
        return self.reduce(partials, perceptible_only=perceptible_only)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Episode-population axes (Figures 5-8): the partial folds both the
# all-episodes and the perceptible-only summary of one trace.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DualPartial:
    """Per-trace summaries for both episode populations."""

    all: Any
    perceptible: Any

    def pick(self, perceptible_only: bool) -> Any:
        return self.perceptible if perceptible_only else self.all


def _pick_all(partials: Sequence[DualPartial], perceptible_only: bool) -> List[Any]:
    return [p.pick(perceptible_only) for p in partials]


class TriggerAnalysis(MapReduceAnalysis):
    """Input/output/async/unspecified episode counts (Figure 5)."""

    name = "triggers"
    supports_perceptible_only = True
    shared_stages = ("episode_split",)

    def map_context(self, ctx: StageContext) -> DualPartial:
        population, perceptible = ctx.episode_split()
        return DualPartial(
            all=ctx.store.trigger_summary(population),
            perceptible=ctx.store.trigger_summary(perceptible),
        )

    def reduce(
        self, partials: Sequence[DualPartial], perceptible_only: bool = False
    ) -> TriggerSummary:
        self._check_flag(perceptible_only)
        counts: Dict[Any, int] = {}
        for summary in _pick_all(partials, perceptible_only):
            for trigger, count in summary.counts.items():
                counts[trigger] = counts.get(trigger, 0) + count
        return TriggerSummary(counts)


class CauseAnalysis(MapReduceAnalysis):
    """Self-time cause vectors per episode population (the diff axis).

    The partial is the :data:`~repro.core.causegraph.CauseTally` of one
    trace (both populations); tallies add-merge in trace order, so
    first-appearance label order — and therefore pickled bytes — are
    identical across worker counts.
    """

    name = "causes"
    supports_perceptible_only = True
    shared_stages = ("episode_split",)

    def map_context(self, ctx: StageContext) -> DualPartial:
        population, perceptible = ctx.episode_split()
        return DualPartial(
            all=ctx.store.cause_tally(population),
            perceptible=ctx.store.cause_tally(perceptible),
        )

    def reduce(
        self, partials: Sequence[DualPartial], perceptible_only: bool = False
    ) -> "causegraph.CauseSummary":
        self._check_flag(perceptible_only)
        merged = causegraph.merge_cause_tallies(
            _pick_all(partials, perceptible_only)
        )
        return causegraph.CauseSummary.from_tally(merged)


class ThreadStateAnalysis(MapReduceAnalysis):
    """GUI-thread blocked/wait/sleep/runnable split (Figure 8)."""

    name = "threadstates"
    supports_perceptible_only = True
    shared_stages = ("episode_split",)

    def map_context(self, ctx: StageContext) -> DualPartial:
        population, perceptible = ctx.episode_split()
        return DualPartial(
            all=ctx.store.threadstate_summary(population),
            perceptible=ctx.store.threadstate_summary(perceptible),
        )

    def reduce(
        self, partials: Sequence[DualPartial], perceptible_only: bool = False
    ) -> ThreadStateSummary:
        self._check_flag(perceptible_only)
        counts: Dict[Any, int] = {}
        for summary in _pick_all(partials, perceptible_only):
            for state, count in summary.counts.items():
                counts[state] = counts.get(state, 0) + count
        return ThreadStateSummary(counts)


class ConcurrencyAnalysis(MapReduceAnalysis):
    """Mean runnable threads during episodes (Figure 7)."""

    name = "concurrency"
    supports_perceptible_only = True
    shared_stages = ("episode_split",)

    def map_context(self, ctx: StageContext) -> DualPartial:
        population, perceptible = ctx.episode_split()
        return DualPartial(
            all=ctx.store.concurrency_summary(population),
            perceptible=ctx.store.concurrency_summary(perceptible),
        )

    def reduce(
        self, partials: Sequence[DualPartial], perceptible_only: bool = False
    ) -> ConcurrencySummary:
        self._check_flag(perceptible_only)
        summaries = _pick_all(partials, perceptible_only)
        return ConcurrencySummary(
            runnable_total=sum(s.runnable_total for s in summaries),
            sample_count=sum(s.sample_count for s in summaries),
        )


class LocationAnalysis(MapReduceAnalysis):
    """App/library and GC/native time breakdown (Figure 6)."""

    name = "location"
    supports_perceptible_only = True
    shared_stages = ("episode_split",)

    def map_context(self, ctx: StageContext) -> DualPartial:
        prefixes = ctx.config.library_prefixes
        population, perceptible = ctx.episode_split()
        return DualPartial(
            all=ctx.store.location_summary(population, prefixes),
            perceptible=ctx.store.location_summary(perceptible, prefixes),
        )

    def reduce(
        self, partials: Sequence[DualPartial], perceptible_only: bool = False
    ) -> LocationSummary:
        self._check_flag(perceptible_only)
        summaries = _pick_all(partials, perceptible_only)
        return LocationSummary(
            app_samples=sum(s.app_samples for s in summaries),
            library_samples=sum(s.library_samples for s in summaries),
            gc_ns=sum(s.gc_ns for s in summaries),
            native_ns=sum(s.native_ns for s in summaries),
            episode_ns=sum(s.episode_ns for s in summaries),
        )


# ----------------------------------------------------------------------
# Pattern-table axes: the partial is a per-trace tally of pattern keys.
# Merging dicts in trace order preserves first-appearance order, which
# is what makes the merged table's tie-breaking (and therefore the
# Figure 3 CDF) identical to mining all sessions in one pass.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PatternCountsPartial:
    """Per-trace pattern tallies, in first-appearance key order.

    Attributes:
        counts: pattern key -> (episode count, perceptible episode count).
        excluded: episodes without structure (not covered by patterns).
    """

    counts: Dict[str, Tuple[int, int]]
    excluded: int


def _mine_counts(ctx: StageContext) -> PatternCountsPartial:
    """Pattern tallies of one trace, via the context's shared
    :meth:`~repro.core.plan.StageContext.pattern_counts` stage keyed by
    the mining parameters."""
    config = ctx.config
    counts, excluded = ctx.pattern_counts(
        config.perceptible_threshold_ms,
        config.include_gc_in_patterns,
        config.all_dispatch_threads,
    )
    return PatternCountsPartial(counts=counts, excluded=excluded)


def _merge_counts(
    partials: Sequence[PatternCountsPartial],
) -> Tuple[Dict[str, Tuple[int, int]], int]:
    merged: Dict[str, Tuple[int, int]] = {}
    excluded = 0
    for partial in partials:
        excluded += partial.excluded
        for key, (count, perceptible) in partial.counts.items():
            prev_count, prev_perceptible = merged.get(key, (0, 0))
            merged[key] = (prev_count + count, prev_perceptible + perceptible)
    return merged, excluded


class OccurrenceAnalysis(MapReduceAnalysis):
    """Always/sometimes/once/never distribution over patterns (Figure 4).

    Classification needs only each pattern's episode count and
    perceptible count, both of which merge by addition — the partial
    never ships episode objects across processes.
    """

    name = "occurrence"
    supports_perceptible_only = False
    shared_stages = ("pattern_counts",)

    def map_context(self, ctx: StageContext) -> PatternCountsPartial:
        return _mine_counts(ctx)

    def reduce(
        self,
        partials: Sequence[PatternCountsPartial],
        perceptible_only: bool = False,
    ) -> OccurrenceSummary:
        self._check_flag(perceptible_only)
        merged, _ = _merge_counts(partials)
        tallies: Dict[Occurrence, int] = {}
        for count, perceptible in merged.values():
            occurrence = _classify_counts(count, perceptible)
            tallies[occurrence] = tallies.get(occurrence, 0) + 1
        return OccurrenceSummary(tallies)


def _classify_counts(count: int, perceptible: int) -> Occurrence:
    """Section IV-B classification from merged per-pattern tallies."""
    if perceptible == 0:
        return Occurrence.NEVER
    if perceptible == count:
        return Occurrence.ALWAYS
    if perceptible == 1:
        return Occurrence.ONCE
    return Occurrence.SOMETIMES


@dataclass(frozen=True)
class PatternStatsSummary:
    """The pattern-table aggregates of Table III plus the Figure 3 CDF."""

    distinct_patterns: int
    covered_episodes: int
    excluded_episodes: int
    singleton_count: int
    mean_descendants: float
    mean_depth: float
    cdf: Tuple[float, ...]
    """Cumulative episode %% by pattern %% (101 points; Figure 3)."""

    @property
    def singleton_fraction(self) -> float:
        if self.distinct_patterns == 0:
            return 0.0
        return self.singleton_count / self.distinct_patterns


class PatternStatsAnalysis(MapReduceAnalysis):
    """Mergeable pattern-table aggregates (Table III block, Figure 3)."""

    name = "patterns"
    supports_perceptible_only = False
    shared_stages = ("pattern_counts",)

    def map_context(self, ctx: StageContext) -> PatternCountsPartial:
        return _mine_counts(ctx)

    def reduce(
        self,
        partials: Sequence[PatternCountsPartial],
        perceptible_only: bool = False,
    ) -> PatternStatsSummary:
        self._check_flag(perceptible_only)
        merged, excluded = _merge_counts(partials)
        keys = list(merged)
        counts = [merged[key][0] for key in keys]
        distinct = len(keys)
        if distinct:
            mean_descendants = (
                sum(key_descendant_count(key) for key in keys) / distinct
            )
            mean_depth = sum(key_depth(key) for key in keys) / distinct
        else:
            mean_descendants = 0.0
            mean_depth = 0.0
        return PatternStatsSummary(
            distinct_patterns=distinct,
            covered_episodes=sum(counts),
            excluded_episodes=excluded,
            singleton_count=sum(1 for count in counts if count == 1),
            mean_descendants=mean_descendants,
            mean_depth=mean_depth,
            cdf=tuple(cumulative_distribution_from_counts(counts)),
        )


# ----------------------------------------------------------------------
# Session statistics (Table III): already per-session, so the map *is*
# the existing row computation and the reduce is the session average.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionStatsSummary:
    """Per-session Table III rows plus their application average."""

    rows: Tuple[SessionStats, ...]
    mean: SessionStats


class StatisticsAnalysis(MapReduceAnalysis):
    """One Table III row per session, plus the application mean."""

    name = "statistics"
    supports_perceptible_only = False
    shared_stages = ("pattern_counts",)

    def map_context(self, ctx: StageContext) -> SessionStats:
        threshold = ctx.config.perceptible_threshold_ms
        # The Table III row always mines the GUI thread with GC elided;
        # request that tally through the context so one pass serves
        # statistics, occurrence, and pattern mining whenever the config
        # matches those defaults.
        counts = ctx.pattern_counts(threshold, False, False)
        return store_kernels.session_stats_row(
            ctx.store, threshold, precomputed_counts=counts
        )

    def reduce(
        self,
        partials: Sequence[SessionStats],
        perceptible_only: bool = False,
    ) -> SessionStatsSummary:
        self._check_flag(perceptible_only)
        # Intern the application name so rows that came out of the
        # on-disk cache share string identity with freshly computed
        # ones — serial, parallel, and cached summaries then pickle to
        # the same bytes, not just the same values.
        rows = tuple(
            dataclasses.replace(row, application=sys.intern(row.application))
            for row in partials
        )
        if not rows:
            raise AnalysisError("statistics reduce needs at least one partial")
        mean = average_stats(rows, rows[0].application)
        return SessionStatsSummary(rows=rows, mean=mean)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

#: The built-in analyses, keyed by stable name. The names double as the
#: ``analysis`` component of engine cache keys, so renaming one
#: invalidates its cached results (as it must).
REGISTRY: Dict[str, Analysis] = {}


def register(analysis: Analysis, replace: bool = False) -> Analysis:
    """Add ``analysis`` to the registry (downstream extension point)."""
    if not analysis.name:
        raise AnalysisError("an Analysis must have a non-empty name")
    if analysis.name in REGISTRY and not replace:
        raise AnalysisError(
            f"analysis {analysis.name!r} is already registered "
            "(pass replace=True to override)"
        )
    REGISTRY[analysis.name] = analysis
    return analysis


def get_analysis(name: str) -> Analysis:
    """Look an analysis up by name.

    Raises:
        AnalysisError: for unknown names, listing what is available.
    """
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise AnalysisError(
            f"unknown analysis {name!r}; registered: {known}"
        ) from None


for _analysis in (
    OccurrenceAnalysis(),
    TriggerAnalysis(),
    LocationAnalysis(),
    ConcurrencyAnalysis(),
    ThreadStateAnalysis(),
    StatisticsAnalysis(),
    PatternStatsAnalysis(),
    CauseAnalysis(),
):
    register(_analysis)
del _analysis
