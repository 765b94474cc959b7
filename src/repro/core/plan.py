"""Fused single-pass analysis plans over the columnar store.

LagAlyzer characterizes lag along several axes at once (occurrence,
triggers, location, concurrency, thread states, statistics, patterns),
but each axis used to be computed as an independent pass over every
trace: episodes were re-split and pattern keys re-derived once per
analysis. This module turns a *set* of requested analyses into an
:class:`AnalysisPlan` — an ordered sequence of :class:`PlanOperator`
wrappers around the registered analyses — that the engine executes as
**one fused pass per trace**: every operator maps the same trace through
one shared :class:`StageContext`, so common prefixes (episode
extraction, the perceptible-filter split, pattern-key tallies) are
computed exactly once and reused by every operator that declares them.

Identity is by construction, not by luck: each analysis implements
``map_context(ctx)`` as its *only* map implementation, and the classic
``map_trace(trace, config)`` entry point delegates through a fresh
single-use context. A fused pass therefore runs literally the same code
as N independent passes — the only difference is which context the
stages memoize into — so partials, reduced summaries, and cached bytes
are identical either way. The context columnarizes a plain object-graph
trace once, when it is built, so every ``map_context`` reads only
``ctx.store`` and each analysis has one map implementation: its column
kernel.

Plans carry a stable :meth:`~AnalysisPlan.fingerprint` (hash of the
sorted operator names plus a plan-format version), which the engine
combines with the trace digest and config fingerprint to cache the
whole fused bundle of partials in one entry (see
:mod:`repro.engine.cache`).

Observability: each fused pass counts ``engine.fused_passes``,
``plan.operators`` (operators executed), and ``plan.shared_hits``
(stage results served from the context memo instead of recomputed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

from repro.core.store import kernels
from repro.core.store.columns import ColumnarTrace
from repro.core.trace import Trace
from repro.obs import runtime as obs_runtime

#: Folded into every plan fingerprint; bump when the fused bundle's
#: shape changes incompatibly, so stale bundles never match.
#: v2: workload families — bundles carry a ``family`` meta key and the
#: episode vocabulary is family-resolved rather than hard-wired gui.
PLAN_VERSION = "plan/v2"


class StageContext:
    """Per-trace memo of shared analysis stages — one fused pass.

    A context binds one trace and one config. Operators request shared
    intermediate results through :meth:`stage` (or the named
    conveniences below); the first request computes, every later
    request with the same key is served from the memo and counted in
    :attr:`shared_hits`. A fresh context per ``map_trace`` call makes
    the legacy per-analysis path a degenerate plan of size one.
    """

    def __init__(self, trace: Trace, config: Any) -> None:
        self.trace = trace
        self.config = config
        store = getattr(trace, "columnar", None)
        if store is None:
            # A plain object-graph trace is columnarized once, here, so
            # every analysis maps through the column kernels alone.
            store = ColumnarTrace.from_trace(trace)
        #: The trace's columnar store, the only input every map reads.
        self.store: ColumnarTrace = store
        #: Stage requests served from the memo instead of recomputed.
        self.shared_hits = 0
        self._stages: Dict[Hashable, Any] = {}

    def stage(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The result of the stage named ``key``, computed at most once."""
        try:
            value = self._stages[key]
        except KeyError:
            value = self._stages[key] = compute()
            return value
        self.shared_hits += 1
        return value

    # -- named shared stages -------------------------------------------

    def episode_split(self) -> Tuple[List[Any], List[Any]]:
        """``(all, perceptible)`` episode populations of this trace.

        Both are lists of episode row descriptors
        ``(thread_idx, row, index, start, end)`` under the config's
        dispatch-thread selection and perceptibility threshold.
        """
        return self.stage(
            "episode_split",
            lambda: self.store.split_episode_rows(self.config),
        )

    def pattern_counts(
        self,
        threshold_ms: float,
        include_gc: bool,
        all_dispatch_threads: bool,
    ) -> Tuple[Dict[str, Tuple[int, int]], int]:
        """``(counts, excluded)`` pattern tallies of this trace.

        Keyed by the mining parameters, so the statistics row (always
        ``include_gc=False``, GUI thread only) shares one tally pass
        with occurrence/pattern mining exactly when the config matches.
        """
        key = ("pattern_counts", threshold_ms, include_gc,
               all_dispatch_threads)
        return self.stage(
            key,
            lambda: kernels.pattern_counts(
                self.store, threshold_ms, include_gc, all_dispatch_threads
            ),
        )

    def __repr__(self) -> str:
        return (
            f"StageContext({self.trace.application!r}, "
            f"{len(self._stages)} stages, {self.shared_hits} shared hits)"
        )


@dataclass(frozen=True)
class PlanOperator:
    """One analysis wrapped for fused execution."""

    name: str
    analysis: Any
    shared_stages: Tuple[str, ...]
    """Names of the shared stages this operator's map requests (as
    declared by the analysis; informational — used by ``plan explain``
    and tests, not by execution)."""


class AnalysisPlan:
    """An ordered set of operators executed as one pass per trace."""

    def __init__(self, operators: Sequence[PlanOperator]) -> None:
        self.operators: Tuple[PlanOperator, ...] = tuple(operators)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(op.name for op in self.operators)

    def fingerprint(self) -> str:
        """Stable content hash of this plan (bundle cache key part)."""
        return plan_fingerprint(self.names)

    def shared_stage_names(self) -> List[str]:
        """Declared stages requested by two or more operators, in first
        declaration order."""
        order: List[str] = []
        tally: Dict[str, int] = {}
        for op in self.operators:
            for stage in op.shared_stages:
                if stage not in tally:
                    order.append(stage)
                tally[stage] = tally.get(stage, 0) + 1
        return [stage for stage in order if tally[stage] >= 2]

    def execute(self, trace: Trace, config: Any) -> Dict[str, Any]:
        """One fused pass: every operator's partial for one trace.

        All operators map through one shared :class:`StageContext`, so
        each shared stage is computed once. Partials are byte-identical
        to running each analysis's ``map_trace`` independently.
        """
        ctx = StageContext(trace, config)
        partials: Dict[str, Any] = {}
        for op in self.operators:
            with obs_runtime.maybe_span(
                "analysis.map", metric="engine.map_ms", analysis=op.name
            ):
                with obs_runtime.profiled(op.name):
                    partials[op.name] = op.analysis.map_context(ctx)
        obs_runtime.count("engine.fused_passes")
        obs_runtime.count("plan.operators", len(self.operators))
        obs_runtime.count("plan.shared_hits", ctx.shared_hits)
        return partials

    def describe(self) -> List[str]:
        """Human-readable plan listing (the ``plan explain`` body)."""
        lines = [f"plan: {len(self.operators)} operator(s), "
                 f"fingerprint {self.fingerprint()[:16]}…"]
        shared = set(self.shared_stage_names())
        for op in self.operators:
            stages = ", ".join(
                f"{stage}*" if stage in shared else stage
                for stage in op.shared_stages
            ) or "-"
            lines.append(
                f"  {op.name:<14} {type(op.analysis).__name__:<22} "
                f"stages: {stages}"
            )
        if shared:
            lines.append(
                "shared stages (computed once per trace, * above): "
                + ", ".join(self.shared_stage_names())
            )
        else:
            lines.append("shared stages: none (single-operator plan)")
        return lines

    def __repr__(self) -> str:
        return f"AnalysisPlan({list(self.names)!r})"


def build_plan(analysis_names: Sequence[str]) -> AnalysisPlan:
    """Resolve ``analysis_names`` into an :class:`AnalysisPlan`.

    Names are deduplicated preserving first-appearance order (execution
    order is irrelevant to results — every operator's partial is
    independent — but a stable order keeps spans and explain output
    deterministic). Unknown names raise
    :class:`~repro.core.errors.AnalysisError` via the registry.
    """
    from repro.core.analyses import get_analysis

    seen: List[str] = []
    for name in analysis_names:
        if name not in seen:
            seen.append(name)
    operators = []
    for name in seen:
        analysis = get_analysis(name)
        operators.append(
            PlanOperator(
                name=name,
                analysis=analysis,
                shared_stages=tuple(
                    getattr(analysis, "shared_stages", ())
                ),
            )
        )
    return AnalysisPlan(operators)


def plan_fingerprint(analysis_names: Sequence[str]) -> str:
    """Stable hex fingerprint of a plan over ``analysis_names``.

    Order-insensitive (names are sorted and deduplicated), so the same
    analysis set always maps to the same fused-bundle cache entry.
    """
    text = PLAN_VERSION + ":" + ",".join(sorted(set(analysis_names)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
