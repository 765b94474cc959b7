"""Tests for the streaming trace reader."""

import pytest

from repro import LagAlyzer
from repro.core.statistics import session_stats
from repro.lila.autodetect import detect_format, load_trace
from repro.lila.binary import write_trace_binary
from repro.lila.streaming import iter_episodes, stream_session_stats
from repro.lila.writer import write_trace

from helpers import dispatch, gc_iv, gui_sample, listener_iv, make_trace


@pytest.fixture()
def trace_file(tmp_path):
    roots = [
        dispatch(0.0, 50.0, [listener_iv("a.A.m", 0.0, 49.0)]),
        gc_iv(60.0, 80.0),  # GC between episodes: must be skipped
        dispatch(100.0, 280.0, [listener_iv("b.B.m", 100.0, 279.0)]),
        dispatch(400.0, 420.0),
    ]
    samples = [gui_sample(t) for t in (10.0, 40.0, 70.0, 150.0, 410.0)]
    trace = make_trace(roots, samples=samples, e2e_ms=1000.0, short_count=77)
    return write_trace(trace, tmp_path / "t.lila"), trace


class TestIterEpisodes:
    def test_yields_episodes_in_order(self, trace_file):
        path, original = trace_file
        streamed = list(iter_episodes(path))
        assert len(streamed) == len(original.episodes) == 3
        assert [ep.index for ep in streamed] == [0, 1, 2]
        assert [ep.duration_ns for ep in streamed] == [
            ep.duration_ns for ep in original.episodes
        ]

    def test_samples_attached_per_episode(self, trace_file):
        path, original = trace_file
        streamed = list(iter_episodes(path))
        for streamed_ep, in_memory_ep in zip(streamed, original.episodes):
            assert [s.timestamp_ns for s in streamed_ep.samples] == [
                s.timestamp_ns for s in in_memory_ep.samples
            ]

    def test_between_episode_samples_discarded(self, trace_file):
        path, _ = trace_file
        all_sample_times = [
            s.timestamp_ns
            for ep in iter_episodes(path)
            for s in ep.samples
        ]
        assert 70_000_000 not in all_sample_times  # the t=70ms tick

    def test_streaming_matches_in_memory_on_simulated(self, tmp_path):
        from repro.apps.sessions import simulate_session

        trace = simulate_session("CrosswordSage", scale=0.05)
        path = write_trace(trace, tmp_path / "s.lila")
        streamed = list(iter_episodes(path))
        assert len(streamed) == len(trace.episodes)
        for a, b in zip(streamed, trace.episodes):
            assert a.duration_ns == b.duration_ns
            assert len(a.samples) == len(b.samples)


class TestStreamSessionStats:
    def test_matches_in_memory_stats(self, tmp_path):
        from repro.apps.sessions import simulate_session

        trace = simulate_session("CrosswordSage", scale=0.05)
        path = write_trace(trace, tmp_path / "s.lila")
        streamed = stream_session_stats(path)
        in_memory = session_stats(trace)
        assert streamed.traced == in_memory.traced
        assert streamed.perceptible == in_memory.perceptible
        assert streamed.below_filter == in_memory.below_filter
        assert streamed.distinct_patterns == in_memory.distinct_patterns
        assert streamed.covered_episodes == in_memory.covered_episodes
        assert streamed.singleton_pct == pytest.approx(
            in_memory.singleton_pct
        )
        assert streamed.in_episode_pct == pytest.approx(
            in_memory.in_episode_pct
        )

    def test_basic_counts(self, trace_file):
        path, _ = trace_file
        stats = stream_session_stats(path)
        assert stats.traced == 3
        assert stats.perceptible == 1
        assert stats.below_filter == 77


class TestAutodetect:
    def test_detects_both_formats(self, trace_file, tmp_path):
        text_path, trace = trace_file
        binary_path = write_trace_binary(trace, tmp_path / "t.lilb")
        assert detect_format(text_path) == "text"
        assert detect_format(binary_path) == "binary"

    def test_load_either(self, trace_file, tmp_path):
        text_path, trace = trace_file
        binary_path = write_trace_binary(trace, tmp_path / "t.lilb")
        assert len(load_trace(text_path).episodes) == 3
        assert len(load_trace(binary_path).episodes) == 3

    def test_rejects_garbage(self, tmp_path):
        from repro.core.errors import TraceFormatError

        garbage = tmp_path / "x.bin"
        garbage.write_bytes(b"garbage here")
        with pytest.raises(TraceFormatError, match="any encoding"):
            detect_format(garbage)

    def test_analyzer_loads_mixed_formats(self, trace_file, tmp_path):
        text_path, trace = trace_file
        binary_path = write_trace_binary(trace, tmp_path / "t.lilb")
        analyzer = LagAlyzer.load([text_path, binary_path])
        assert len(analyzer.episodes) == 6
