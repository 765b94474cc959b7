"""Tests for multi-dispatch-thread support (paper Section V).

The paper's study uses a single GUI thread, but "LagAlyzer already
supports traces based on multiple concurrent event dispatch threads":
an episode is the interval from the point where *a given thread* starts
handling a GUI event until that thread finishes handling it.
"""


from repro import AnalysisConfig, LagAlyzer
from repro.core.trace import Trace, TraceMetadata
from repro.lila.reader import read_trace_lines
from repro.lila.writer import trace_to_lines

from helpers import GUI, dispatch, listener_iv, ms

SECOND_EDT = "SWT-EventQueue-1"


def _two_edt_trace():
    metadata = TraceMetadata(
        application="DualToolkit",
        session_id="s0",
        start_ns=0,
        end_ns=ms(10_000.0),
        gui_thread=GUI,
    )
    primary_roots = [
        dispatch(0.0, 150.0, [listener_iv("a.A.m", 0.0, 149.0)]),
        dispatch(300.0, 330.0, [listener_iv("a.A.m", 300.0, 329.0)]),
    ]
    # Overlapping in wall-clock time with the primary thread's episodes:
    # concurrent dispatch threads do that.
    secondary_roots = [
        dispatch(100.0, 350.0, [listener_iv("b.B.m", 100.0, 349.0)]),
    ]
    return Trace(
        metadata,
        {GUI: primary_roots, SECOND_EDT: secondary_roots},
    )


class TestTraceMultiEdt:
    def test_dispatch_threads_detected(self):
        trace = _two_edt_trace()
        assert trace.dispatch_threads == [GUI, SECOND_EDT]

    def test_primary_episodes_unchanged(self):
        trace = _two_edt_trace()
        assert len(trace.episodes) == 2
        assert all(ep.gui_thread == GUI for ep in trace.episodes)

    def test_episodes_of_secondary(self):
        trace = _two_edt_trace()
        secondary = trace.episodes_of(SECOND_EDT)
        assert len(secondary) == 1
        assert secondary[0].gui_thread == SECOND_EDT

    def test_episodes_of_unknown_thread(self):
        assert _two_edt_trace().episodes_of("nope") == []

    def test_all_episodes_merged_in_time_order(self):
        trace = _two_edt_trace()
        merged = trace.all_episodes()
        assert len(merged) == 3
        starts = [ep.start_ns for ep in merged]
        assert starts == sorted(starts)

    def test_validate_accepts_concurrent_dispatches(self):
        # Episodes of *different* threads may overlap in time.
        _two_edt_trace().validate()

    def test_survives_format_roundtrip(self):
        trace = read_trace_lines(trace_to_lines(_two_edt_trace()))
        assert trace.dispatch_threads == [GUI, SECOND_EDT]
        assert len(trace.all_episodes()) == 3


class TestAnalyzerMultiEdt:
    def test_default_analyzes_primary_only(self):
        analyzer = LagAlyzer.from_traces([_two_edt_trace()])
        assert len(analyzer.episodes) == 2

    def test_all_dispatch_threads_config(self):
        analyzer = LagAlyzer.from_traces(
            [_two_edt_trace()],
            config=AnalysisConfig(all_dispatch_threads=True),
        )
        assert len(analyzer.episodes) == 3
        # The secondary thread's perceptible episode is now visible.
        assert len(analyzer.perceptible_episodes()) == 2

    def test_patterns_span_threads(self):
        analyzer = LagAlyzer.from_traces(
            [_two_edt_trace()],
            config=AnalysisConfig(all_dispatch_threads=True),
        )
        assert analyzer.pattern_table().distinct_count == 2

    def test_gui_samples_use_owning_thread(self):
        # Episode sample attribution follows the episode's own thread.
        trace = _two_edt_trace()
        secondary = trace.episodes_of(SECOND_EDT)[0]
        assert secondary.gui_thread == SECOND_EDT
