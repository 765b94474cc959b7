"""Unit tests for the LagAlyzer facade."""

import pytest

from repro import AnalysisConfig, LagAlyzer
from repro.core.errors import AnalysisError
from repro.core.occurrence import OccurrenceSummary
from repro.core.triggers import Trigger

from helpers import dispatch, listener_iv, make_trace


def _trace(application="TestApp"):
    roots = [
        dispatch(0.0, 50.0, [listener_iv("a.A.m", 0.0, 49.0)]),
        dispatch(100.0, 280.0, [listener_iv("b.B.m", 100.0, 279.0)]),
    ]
    return make_trace(roots, e2e_ms=10_000.0, application=application)


class TestConstruction:
    def test_requires_traces(self):
        with pytest.raises(AnalysisError, match="at least one"):
            LagAlyzer([])

    def test_rejects_mixed_applications(self):
        with pytest.raises(AnalysisError, match="same application"):
            LagAlyzer([_trace("A"), _trace("B")])

    def test_from_traces(self):
        analyzer = LagAlyzer.from_traces([_trace()])
        assert analyzer.application == "TestApp"

    def test_load_from_files(self, tmp_path):
        from repro.lila.writer import write_trace

        paths = [
            write_trace(_trace(), tmp_path / "s0.lila"),
            write_trace(_trace(), tmp_path / "s1.lila"),
        ]
        analyzer = LagAlyzer.load(paths)
        assert len(analyzer.traces) == 2


class TestQueries:
    def test_episodes_span_sessions(self):
        analyzer = LagAlyzer.from_traces([_trace(), _trace()])
        assert len(analyzer.episodes) == 4

    def test_perceptible_uses_config_threshold(self):
        strict = LagAlyzer.from_traces(
            [_trace()], config=AnalysisConfig(perceptible_threshold_ms=300.0)
        )
        assert len(strict.perceptible_episodes()) == 0
        default = LagAlyzer.from_traces([_trace()])
        assert len(default.perceptible_episodes()) == 1

    def test_pattern_table_cached(self):
        analyzer = LagAlyzer.from_traces([_trace()])
        assert analyzer.pattern_table() is analyzer.pattern_table()

    def test_pattern_of_episode(self):
        analyzer = LagAlyzer.from_traces([_trace()])
        episode = analyzer.episodes[0]
        pattern = analyzer.pattern_of(episode)
        assert pattern is not None
        assert episode in pattern.episodes

    def test_pattern_of_structureless_is_none(self):
        trace = make_trace([dispatch(0.0, 50.0)])
        analyzer = LagAlyzer.from_traces([trace])
        assert analyzer.pattern_of(analyzer.episodes[0]) is None

    def test_all_summaries_run(self):
        analyzer = LagAlyzer.from_traces([_trace()])
        assert isinstance(analyzer.occurrence_summary(), OccurrenceSummary)
        assert analyzer.trigger_summary().total == 2
        assert analyzer.trigger_summary(perceptible_only=True).total == 1
        assert analyzer.location_summary().episode_ns > 0
        analyzer.concurrency_summary()
        analyzer.threadstate_summary()

    def test_trigger_summary_classification(self):
        analyzer = LagAlyzer.from_traces([_trace()])
        assert analyzer.trigger_summary().counts[Trigger.INPUT] == 2

    def test_session_stats_per_trace(self):
        analyzer = LagAlyzer.from_traces([_trace(), _trace()])
        rows = analyzer.session_stats()
        assert len(rows) == 2
        mean = analyzer.mean_session_stats()
        assert mean.application == "TestApp"
        assert mean.traced == pytest.approx(2.0)

    def test_config_with_threshold(self):
        config = AnalysisConfig().with_threshold(150.0)
        assert config.perceptible_threshold_ms == 150.0
        # Original untouched (frozen dataclass copy).
        assert AnalysisConfig().perceptible_threshold_ms == 100.0
