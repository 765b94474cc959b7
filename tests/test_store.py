"""The columnar store and its lazy :class:`FacadeTrace` veneer.

Checks the contracts that keep the streaming pipeline honest: the
facade materializes the object graph only when an analysis actually
needs it, serialization round-trips losslessly in both directions
(``from_trace``/``to_trace`` and pickle), and the canonical line
rendering — hence the content digest — is identical whichever
representation produced it.
"""

from __future__ import annotations

import pickle

import pytest

from repro import AnalysisConfig
from repro.core.analyses import REGISTRY
from repro.core.errors import TraceFormatError
from repro.core.samples import Sample, ThreadState
from repro.core.statistics import session_stats
from repro.core.store import ColumnarTrace, FacadeTrace, as_columnar
from repro.lila.digest import trace_digest
from repro.lila.source import LinesTraceSource, build_store, build_trace
from repro.lila.writer import trace_to_lines

from helpers import (
    dispatch,
    gc_iv,
    gui_sample,
    interval,
    listener_iv,
    make_trace,
    ms,
    paint_iv,
)
from repro.core.intervals import IntervalKind


def sample_trace():
    """A small trace exercising nesting, GC, extra threads, and samples."""
    roots = [
        dispatch(0, 120, [
            listener_iv("com.example.Click.actionPerformed", 5, 80, [
                paint_iv("javax.swing.JComponent.paint", 10, 60),
            ]),
        ]),
        gc_iv(150, 170),
        dispatch(200, 230, [
            listener_iv("com.example.Key.keyPressed", 205, 225),
        ]),
    ]
    samples = [gui_sample(20.0), gui_sample(50.0), gui_sample(210.0)]
    worker = [interval(IntervalKind.NATIVE, "app.io.Loader.run", 0.0, 400.0)]
    return make_trace(
        roots, samples=samples, short_count=3,
        extra_threads={"worker": worker},
    )


def tail_cache_trace():
    """A trace with every case the serializer's line caches could get wrong.

    One symbol under two kinds, a GC interval with children beside a
    leaf GC, a thread with no intervals, a tick with no entries, and
    three intervals closing at the same row (once mid-thread, once at
    the thread's end).
    """
    shared = "com.example.Shared.run"
    roots = [
        dispatch(0, 100, [
            listener_iv(shared, 5, 90, [
                paint_iv(shared, 10, 90),
            ]),
        ]),
        interval(IntervalKind.GC, "GC.major", 120, 140, [
            interval(IntervalKind.NATIVE, "gc.Marker.mark", 125, 130),
        ]),
        gc_iv(150, 160),
        dispatch(200, 300, [
            listener_iv(shared, 205, 300, [
                paint_iv("javax.swing.JComponent.paint", 210, 300),
            ]),
        ]),
    ]
    samples = [
        gui_sample(20.0, extra_threads=[("worker", ThreadState.BLOCKED)]),
        Sample(ms(50.0), []),
        gui_sample(80.0, extra_threads=[("worker", ThreadState.BLOCKED)]),
        gui_sample(210.0, state=ThreadState.WAITING),
    ]
    worker = [interval(IntervalKind.NATIVE, shared, 0.0, 400.0)]
    return make_trace(
        roots, samples=samples,
        extra_threads={"worker": worker, "idle": []},
    )


def facade_of(trace) -> FacadeTrace:
    return FacadeTrace(ColumnarTrace.from_trace(trace))


class TestFacadeLaziness:
    def test_columnar_analyses_never_materialize(self):
        facade = facade_of(sample_trace())
        config = AnalysisConfig(perceptible_threshold_ms=100.0)
        for analysis in REGISTRY.values():
            analysis.map_trace(facade, config)
        session_stats(facade, threshold_ms=100.0)
        assert facade.is_materialized is False

    def test_object_access_materializes_once(self):
        facade = facade_of(sample_trace())
        assert facade.is_materialized is False
        episodes = facade.episodes
        assert facade.is_materialized is True
        assert len(episodes) == 2
        assert facade.thread_roots is facade.thread_roots

    def test_facade_exposes_trace_api(self):
        trace = sample_trace()
        facade = facade_of(trace)
        assert facade.metadata.application == trace.metadata.application
        assert facade.short_episode_count == 3
        assert facade.thread_names == trace.thread_names
        assert len(facade.samples) == len(trace.samples)


class TestRoundTrip:
    def test_from_trace_to_trace_preserves_lines(self):
        trace = sample_trace()
        rebuilt = ColumnarTrace.from_trace(trace).to_trace()
        assert trace_to_lines(rebuilt) == trace_to_lines(trace)

    def test_canonical_lines_match_writer(self):
        trace = sample_trace()
        store = ColumnarTrace.from_trace(trace)
        assert store.canonical_lines() == trace_to_lines(trace)

    def test_canonical_lines_match_writer_on_cache_edge_cases(self):
        trace = tail_cache_trace()
        lines = trace_to_lines(trace)
        # The fixture really holds the cases it claims to.
        assert f"O {ms(5)} listener com.example.Shared.run" in lines
        assert any(line.startswith("O ") and " gc " in line for line in lines)
        assert any(line.startswith("G ") for line in lines)
        empty_tick = lines.index(f"P {ms(50.0)}")
        assert lines[empty_tick + 1].startswith("P ")
        innermost = lines.index(f"O {ms(10)} paint com.example.Shared.run")
        closes = lines[innermost + 1:innermost + 5]
        assert [line[0] for line in closes] == ["C", "C", "C", "O"]
        idle = lines.index("T idle")
        assert [line[0] for line in lines[idle - 4:idle]] == ["O", "C", "C", "C"]
        assert ColumnarTrace.from_trace(trace).canonical_lines() == lines
        streamed = build_store(LinesTraceSource(lines))
        assert streamed.canonical_lines() == lines

    def test_forbidden_symbol_fails_like_the_writer(self):
        trace = make_trace([dispatch(0, 10, [listener_iv("foo\tbar", 1, 5)])])
        with pytest.raises(TraceFormatError) as written:
            trace_to_lines(trace)
        with pytest.raises(TraceFormatError) as serialized:
            ColumnarTrace.from_trace(trace).canonical_lines()
        assert str(serialized.value) == str(written.value)

    def test_streamed_store_matches_from_trace(self):
        trace = sample_trace()
        streamed = build_store(LinesTraceSource(trace_to_lines(trace)))
        converted = ColumnarTrace.from_trace(trace)
        assert streamed.canonical_lines() == converted.canonical_lines()
        assert streamed.interval_count == converted.interval_count
        assert streamed.sample_count == converted.sample_count

    def test_digest_identical_across_representations(self):
        trace = sample_trace()
        facade = build_trace(LinesTraceSource(trace_to_lines(trace)))
        assert trace_digest(facade) == trace_digest(trace)
        # Digesting must not force materialization.
        assert facade.is_materialized is False


class TestPickle:
    def test_facade_pickle_round_trip_stays_lazy(self):
        facade = facade_of(sample_trace())
        clone = pickle.loads(pickle.dumps(facade))
        assert isinstance(clone, FacadeTrace)
        assert clone.is_materialized is False
        assert clone.columnar.canonical_lines() == (
            facade.columnar.canonical_lines()
        )

    def test_facade_pickles_columns_not_objects(self):
        facade = facade_of(sample_trace())
        facade.episodes  # materialize
        payload = pickle.dumps(facade)
        clone = pickle.loads(payload)
        # The materialized caches are dropped on the wire; the clone
        # rebuilds them from its columns on demand.
        assert clone.is_materialized is False
        assert len(clone.episodes) == len(facade.episodes)


class TestAsColumnar:
    def test_wraps_plain_traces(self):
        trace = sample_trace()
        wrapped = as_columnar(trace)
        assert isinstance(wrapped, FacadeTrace)
        assert trace_to_lines(wrapped) == trace_to_lines(trace)

    def test_no_op_on_columnar_backed_traces(self):
        facade = facade_of(sample_trace())
        assert as_columnar(facade) is facade
