"""Fused analysis plans: byte-identity with the per-analysis path.

The whole point of :mod:`repro.core.plan` is that fusing N analyses
into one pass per trace changes *nothing* about the numbers — partials,
reduced summaries, quarantine behavior, and cache contents must match
the classic one-analysis-at-a-time path bit for bit. These tests pin
that contract over the checked-in golden corpus (columnar traces) and
freshly simulated object-graph traces, for every registered analysis,
with and without the perceptible-only filter, and under mid-plan fault
injection.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.core import analyses as analyses_mod
from repro import AnalysisConfig, LagAlyzer
from repro.core.errors import AnalysisError
from repro.core.plan import StageContext, build_plan, plan_fingerprint
from repro.engine.engine import AnalysisEngine
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults import runtime as faults_runtime
from repro.obs import Observer
from repro.obs import runtime as obs_runtime

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATHS = [
    GOLDEN_DIR / f"CrosswordSage-session-{index}.lila" for index in range(3)
]
ALL_NAMES = tuple(analyses_mod.REGISTRY)
CONFIG = AnalysisConfig(perceptible_threshold_ms=100.0)


@pytest.fixture(scope="module")
def golden_traces():
    """The golden corpus, loaded the normal way (columnar-backed)."""
    traces = LagAlyzer.load(GOLDEN_PATHS, config=CONFIG).traces
    assert all(getattr(t, "columnar", None) is not None for t in traces)
    return traces


@pytest.fixture(scope="module")
def object_traces():
    """Simulated plain object-graph traces (no columnar store)."""
    from repro.apps.sessions import simulate_sessions

    traces = simulate_sessions("CrosswordSage", 2, scale=0.05)
    assert all(getattr(t, "columnar", None) is None for t in traces)
    return traces


def _flag_matrix():
    """(analysis name, perceptible_only) for every legal combination."""
    for name in ALL_NAMES:
        yield name, False
        if analyses_mod.get_analysis(name).supports_perceptible_only:
            yield name, True


# ---------------------------------------------------------------------------
# Parity: fused pass vs per-analysis path
# ---------------------------------------------------------------------------


def _assert_parity(traces):
    plan = build_plan(ALL_NAMES)
    fused_per_trace = [plan.execute(trace, CONFIG) for trace in traces]
    for name in ALL_NAMES:
        analysis = analyses_mod.get_analysis(name)
        for trace, fused in zip(traces, fused_per_trace):
            legacy_partial = analysis.map_trace(trace, CONFIG)
            assert pickle.dumps(fused[name]) == pickle.dumps(
                legacy_partial
            ), f"fused partial for {name} drifted"
    for name, flag in _flag_matrix():
        analysis = analyses_mod.get_analysis(name)
        legacy = analysis.summarize(traces, CONFIG, perceptible_only=flag)
        fused = analysis.reduce(
            [partials[name] for partials in fused_per_trace],
            perceptible_only=flag,
        )
        assert pickle.dumps(fused) == pickle.dumps(
            legacy
        ), f"fused summary for {name} (perceptible_only={flag}) drifted"


def test_fused_matches_legacy_on_golden_corpus(golden_traces):
    _assert_parity(golden_traces)


def test_fused_matches_legacy_on_object_traces(object_traces):
    _assert_parity(object_traces)


class _SplitAndTally(analyses_mod.MapReduceAnalysis):
    """A downstream analysis that reads both shared stages."""

    name = "test-split-and-tally"
    shared_stages = ("episode_split", "pattern_counts")

    def map_context(self, ctx):
        population, perceptible = ctx.episode_split()
        counts, excluded = ctx.pattern_counts(100.0, False, False)
        return population, perceptible, counts, excluded

    def reduce(self, partials, perceptible_only=False):
        self._check_flag(perceptible_only)
        return list(partials)


def test_registered_analysis_sees_one_stage_shape_for_every_trace():
    """A plain trace and its columnar twin hand a registered analysis
    the same episode rows and the same pattern tally."""
    from repro.apps.sessions import simulate_session
    from repro.core.store import as_columnar

    analyses_mod.register(_SplitAndTally(), replace=True)
    try:
        plain = simulate_session("CrosswordSage", 0, seed=1, scale=0.02)
        results = [
            LagAlyzer.from_traces([trace], config=CONFIG).summary(
                "test-split-and-tally"
            )
            for trace in (plain, as_columnar(plain))
        ]
    finally:
        analyses_mod.REGISTRY.pop("test-split-and-tally", None)
    assert results[0] == results[1]
    ((population, _perceptible, counts, _excluded),) = results[0]
    assert population and counts
    assert all(isinstance(row, tuple) and len(row) == 5 for row in population)


def test_api_summaries_matches_individual_summary_calls(golden_traces):
    analyzer = LagAlyzer(golden_traces, config=CONFIG)
    fused = analyzer.summaries()
    assert set(fused) == set(ALL_NAMES)
    for name in ALL_NAMES:
        assert pickle.dumps(fused[name]) == pickle.dumps(
            analyzer.summary(name)
        )


def test_engine_summarize_all_matches_serial(golden_traces, tmp_path):
    engine = AnalysisEngine(
        workers=1, cache_dir=tmp_path / "cache", use_cache=True
    )
    via_engine = engine.summarize_all(ALL_NAMES, golden_traces, CONFIG)
    warm = engine.summarize_all(ALL_NAMES, golden_traces, CONFIG)
    analyzer = LagAlyzer(golden_traces, config=CONFIG)
    serial = analyzer.summaries()
    for name in ALL_NAMES:
        assert pickle.dumps(via_engine[name]) == pickle.dumps(serial[name])
        assert pickle.dumps(warm[name]) == pickle.dumps(serial[name])


# ---------------------------------------------------------------------------
# Plan mechanics: sharing, fingerprints, construction
# ---------------------------------------------------------------------------


def test_stage_context_memoizes_and_counts_hits(golden_traces):
    ctx = StageContext(golden_traces[0], CONFIG)
    first = ctx.episode_split()
    assert ctx.shared_hits == 0
    again = ctx.episode_split()
    assert again is first
    assert ctx.shared_hits == 1
    # A stage keyed by different mining parameters is a different stage.
    counts_a = ctx.pattern_counts(100.0, False, False)
    counts_b = ctx.pattern_counts(150.0, False, False)
    assert ctx.shared_hits == 1
    assert ctx.pattern_counts(100.0, False, False) is counts_a
    assert counts_b is not counts_a
    assert ctx.shared_hits == 2


def test_full_plan_shares_stages_and_counts(golden_traces):
    obs = Observer()
    plan = build_plan(ALL_NAMES)
    with obs_runtime.installed(obs):
        plan.execute(golden_traces[0], CONFIG)
    counters = obs.metrics.as_dict()["counters"]
    assert counters["engine.fused_passes"] == 1
    assert counters["plan.operators"] == len(ALL_NAMES)
    # Seven analyses over one trace: the episode split and pattern
    # tallies are each computed once and served from the memo after.
    assert counters["plan.shared_hits"] > 0
    assert "pattern_counts" in plan.shared_stage_names()
    assert "episode_split" in plan.shared_stage_names()


def test_plan_fingerprint_is_order_insensitive():
    assert plan_fingerprint(["triggers", "location"]) == plan_fingerprint(
        ["location", "triggers"]
    )
    assert plan_fingerprint(["triggers", "triggers"]) == plan_fingerprint(
        ["triggers"]
    )
    assert plan_fingerprint(["triggers"]) != plan_fingerprint(["location"])
    assert build_plan(ALL_NAMES).fingerprint() == plan_fingerprint(ALL_NAMES)


def test_build_plan_dedupes_and_rejects_unknown_names():
    plan = build_plan(["triggers", "location", "triggers"])
    assert plan.names == ("triggers", "location")
    with pytest.raises(AnalysisError):
        build_plan(["triggers", "no-such-analysis"])


def test_single_operator_plan_describes_without_sharing():
    plan = build_plan(["triggers"])
    assert plan.shared_stage_names() == []
    text = "\n".join(plan.describe())
    assert "single-operator plan" in text


# ---------------------------------------------------------------------------
# Fault injection: mid-plan failure quarantines like the legacy path
# ---------------------------------------------------------------------------


def _truncation_plan(session_id: str) -> FaultPlan:
    return FaultPlan(
        seed=13,
        rules=(
            FaultRule(
                kind="trace_truncated",
                site="trace.map",
                at=(f"CrosswordSage/{session_id}",),
            ),
        ),
    )


def test_midplan_fault_quarantines_trace_exactly_like_legacy(golden_traces):
    engine = AnalysisEngine(workers=1, use_cache=False)
    injector = FaultInjector(_truncation_plan("session-1"))
    with faults_runtime.installed(injector):
        faulted = engine.summarize_all(ALL_NAMES, golden_traces, CONFIG)
    (entry,) = engine.quarantined
    assert entry.index == 1
    assert entry.session_id == "session-1"
    # The fused pass maps each trace once, so the fault fires once for
    # the damaged trace — not once per analysis.
    assert len(injector.events) == 1
    # Surviving sessions are byte-identical to analyzing them alone.
    survivors = [golden_traces[0], golden_traces[2]]
    clean = AnalysisEngine(workers=1, use_cache=False).summarize_all(
        ALL_NAMES, survivors, CONFIG
    )
    for name in ALL_NAMES:
        assert pickle.dumps(faulted[name]) == pickle.dumps(clean[name])


def test_midplan_fault_matches_per_analysis_quarantine(golden_traces):
    fused_engine = AnalysisEngine(workers=1, use_cache=False)
    with faults_runtime.installed(
        FaultInjector(_truncation_plan("session-0"))
    ):
        fused = fused_engine.summarize_all(ALL_NAMES, golden_traces, CONFIG)
    fused_quarantined = [e.describe() for e in fused_engine.quarantined]
    legacy: dict = {}
    legacy_engine = AnalysisEngine(workers=1, use_cache=False)
    for name in ALL_NAMES:
        with faults_runtime.installed(
            FaultInjector(_truncation_plan("session-0"))
        ):
            legacy[name] = legacy_engine.summarize(
                name, golden_traces, CONFIG
            )
    assert [e.describe() for e in legacy_engine.quarantined][
        -1:
    ] == fused_quarantined
    for name in ALL_NAMES:
        assert pickle.dumps(fused[name]) == pickle.dumps(legacy[name])
