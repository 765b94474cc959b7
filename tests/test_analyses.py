"""Tests for the analysis registry, config validation, and loading."""

import pickle

import pytest

from repro.core import analyses as analyses_mod
from repro.core.analyses import (
    REGISTRY,
    Analysis,
    MapReduceAnalysis,
    get_analysis,
    register,
)
from repro import AnalysisConfig, LagAlyzer
from repro.core.errors import AnalysisError, TraceFormatError
from repro.lila.autodetect import expand_trace_paths
from repro.lila.writer import write_trace

from helpers import dispatch, listener_iv, make_trace

EXPECTED_NAMES = {
    "occurrence",
    "triggers",
    "location",
    "concurrency",
    "threadstates",
    "statistics",
    "patterns",
}


def _trace(application="App", lag_ms=120.0):
    return make_trace(
        [dispatch(0.0, lag_ms, [listener_iv("a.A.m", 0.0, lag_ms - 1.0)])],
        application=application,
    )


class TestRegistry:
    def test_builtin_analyses_registered(self):
        assert EXPECTED_NAMES <= set(REGISTRY)

    def test_every_entry_satisfies_protocol(self):
        for analysis in REGISTRY.values():
            assert isinstance(analysis, Analysis)

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(AnalysisError) as excinfo:
            get_analysis("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "occurrence" in message

    def test_duplicate_register_rejected(self):
        existing = get_analysis("triggers")
        with pytest.raises(AnalysisError):
            register(existing)

    def test_register_replace_and_custom_analysis(self):
        class EpisodeCount(MapReduceAnalysis):
            name = "episode-count"
            supports_perceptible_only = False

            def map_trace(self, trace, config):
                return len(analyses_mod.trace_episodes(trace, config))

            def reduce(self, partials, perceptible_only=False):
                self._check_flag(perceptible_only)
                return sum(partials)

        analysis = EpisodeCount()
        register(analysis)
        try:
            assert get_analysis("episode-count") is analysis
            register(analysis, replace=True)  # idempotent with replace
            analyzer = LagAlyzer([_trace()])
            assert analyzer.summary("episode-count") == 1
        finally:
            del REGISTRY["episode-count"]

    def test_perceptible_only_unsupported_raises(self):
        for name in ("occurrence", "statistics", "patterns"):
            analysis = get_analysis(name)
            assert not analysis.supports_perceptible_only
            with pytest.raises(AnalysisError):
                analysis.summarize(
                    [_trace()], AnalysisConfig(), perceptible_only=True
                )

    def test_summary_matches_named_wrappers(self):
        analyzer = LagAlyzer([_trace()])
        pairs = [
            ("occurrence", analyzer.occurrence_summary()),
            ("triggers", analyzer.trigger_summary()),
            ("location", analyzer.location_summary()),
            ("concurrency", analyzer.concurrency_summary()),
            ("threadstates", analyzer.threadstate_summary()),
        ]
        for name, wrapped in pairs:
            assert pickle.dumps(analyzer.summary(name)) == pickle.dumps(wrapped)


class TestConfigValidation:
    def test_negative_threshold_raises(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(perceptible_threshold_ms=-1.0)

    def test_nan_threshold_raises(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(perceptible_threshold_ms=float("nan"))

    def test_non_numeric_threshold_raises(self):
        with pytest.raises(AnalysisError):
            AnalysisConfig(perceptible_threshold_ms="fast")

    def test_zero_threshold_allowed(self):
        assert AnalysisConfig(perceptible_threshold_ms=0.0)

    def test_list_prefixes_coerced_to_tuple(self):
        config = AnalysisConfig(library_prefixes=["java.", "sun."])
        assert config.library_prefixes == ("java.", "sun.")
        assert isinstance(config.library_prefixes, tuple)

    def test_fingerprint_stable_and_distinct(self):
        assert AnalysisConfig().fingerprint() == AnalysisConfig().fingerprint()
        assert (
            AnalysisConfig().fingerprint()
            != AnalysisConfig(all_dispatch_threads=True).fingerprint()
        )


class TestLoading:
    def _write_traces(self, directory, count=3):
        paths = []
        for i in range(count):
            trace = _trace(application="App", lag_ms=100.0 + 10.0 * i)
            path = directory / f"session{i}.lila"
            write_trace(trace, path)
            paths.append(path)
        return paths

    def test_expand_single_file(self, tmp_path):
        (path,) = self._write_traces(tmp_path, count=1)
        assert expand_trace_paths(path) == [path]
        assert expand_trace_paths(str(path)) == [path]

    def test_expand_directory_sorted(self, tmp_path):
        paths = self._write_traces(tmp_path)
        (tmp_path / "notes.txt").write_text("not a trace")
        assert expand_trace_paths(tmp_path) == sorted(paths)

    def test_expand_glob(self, tmp_path):
        paths = self._write_traces(tmp_path)
        got = expand_trace_paths(str(tmp_path / "session*.lila"))
        assert got == sorted(paths)

    def test_expand_empty_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            expand_trace_paths(tmp_path)
        with pytest.raises(TraceFormatError):
            expand_trace_paths(str(tmp_path / "*.lila"))

    def test_load_directory_matches_explicit_files(self, tmp_path):
        paths = self._write_traces(tmp_path)
        from_dir = LagAlyzer.load(tmp_path)
        from_files = LagAlyzer.load(paths)
        assert len(from_dir.traces) == len(paths)
        assert pickle.dumps(from_dir.traces) == pickle.dumps(from_files.traces)

    def test_load_parallel_matches_serial(self, tmp_path):
        self._write_traces(tmp_path)
        serial = LagAlyzer.load(tmp_path, workers=1)
        parallel = LagAlyzer.load(tmp_path, workers=2)
        assert pickle.dumps(serial.traces) == pickle.dumps(parallel.traces)


class TestEpisodeCaching:
    def test_episodes_computed_once(self):
        analyzer = LagAlyzer([_trace()])
        first = analyzer.episodes
        assert analyzer.episodes is first

    def test_episode_cache_used_by_analyses(self):
        analyzer = LagAlyzer([_trace()])
        episodes = analyzer.episodes
        analyzer.trigger_summary()
        analyzer.pattern_table()
        assert analyzer.episodes is episodes
