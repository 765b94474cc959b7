"""Unit tests for the app/library/GC/native location analysis."""

import pytest

from repro import LagAlyzer
from repro.core.intervals import IntervalKind
from repro.core.location import episode_gc_native_ns, summarize

from helpers import (
    APP_FRAME,
    LIB_FRAME,
    NATIVE_FRAME,
    dispatch,
    episode,
    gc_iv,
    interval,
    gui_sample,
    make_trace,
    ms,
)


def _native_iv(start, end, children=None):
    return interval(IntervalKind.NATIVE, "sun.x.Y.n", start, end, children)


class TestGcNativeAccounting:
    def test_simple_fractions(self):
        ep = episode(dispatch(0.0, 100.0, [
            _native_iv(10.0, 30.0), gc_iv(50.0, 60.0)]))
        gc_ns, native_ns = episode_gc_native_ns(ep)
        assert gc_ns == ms(10.0)
        assert native_ns == ms(20.0)

    def test_gc_nested_in_native_not_double_counted(self):
        # Figure 1's shape: the native call wraps the collection; the
        # collection's time belongs to GC, not to native code. Checked
        # on the object function and on the column kernel every
        # analysis map runs.
        root = dispatch(0.0, 100.0, [
            _native_iv(10.0, 90.0, [gc_iv(40.0, 60.0)])])
        ep = episode(root)
        kernel = LagAlyzer.from_traces([make_trace([root])]).summary(
            "location"
        )
        for gc_ns, native_ns, duration_ns in (
            (*episode_gc_native_ns(ep), ep.duration_ns),
            (kernel.gc_ns, kernel.native_ns, kernel.episode_ns),
        ):
            assert gc_ns == ms(20.0)
            assert native_ns == ms(60.0)
            assert gc_ns + native_ns <= duration_ns

    def test_no_gc_no_native(self):
        ep = episode(dispatch(0.0, 100.0))
        assert episode_gc_native_ns(ep) == (0, 0)


class TestSummarize:
    def test_app_vs_library_split(self):
        samples = [
            gui_sample(10.0, frames=(APP_FRAME,)),
            gui_sample(20.0, frames=(APP_FRAME,)),
            gui_sample(30.0, frames=(LIB_FRAME,)),
        ]
        ep = episode(dispatch(0.0, 100.0), samples=samples)
        summary = summarize([ep])
        assert summary.app_fraction == pytest.approx(2 / 3)
        assert summary.library_fraction == pytest.approx(1 / 3)

    def test_native_samples_excluded_from_split(self):
        samples = [
            gui_sample(10.0, frames=(APP_FRAME,)),
            gui_sample(20.0, frames=(NATIVE_FRAME,)),
        ]
        ep = episode(dispatch(0.0, 100.0), samples=samples)
        summary = summarize([ep])
        assert summary.app_samples == 1
        assert summary.library_samples == 0

    def test_empty_stacks_excluded(self):
        samples = [gui_sample(10.0, frames=())]
        ep = episode(dispatch(0.0, 100.0), samples=samples)
        summary = summarize([ep])
        assert summary.app_samples == summary.library_samples == 0
        assert summary.app_fraction == 0.0

    def test_custom_prefixes(self):
        samples = [gui_sample(10.0, frames=(APP_FRAME,))]
        ep = episode(dispatch(0.0, 100.0), samples=samples)
        summary = summarize([ep], library_prefixes=("com.example.",))
        assert summary.library_samples == 1

    def test_gc_native_fractions(self):
        ep = episode(dispatch(0.0, 100.0, [
            _native_iv(10.0, 20.0), gc_iv(50.0, 75.0)]))
        summary = summarize([ep])
        assert summary.gc_fraction == pytest.approx(0.25)
        assert summary.native_fraction == pytest.approx(0.10)

    def test_aggregates_across_episodes(self):
        ep1 = episode(dispatch(0.0, 100.0, [gc_iv(0.0, 50.0)]))
        ep2 = episode(dispatch(200.0, 300.0))
        summary = summarize([ep1, ep2])
        assert summary.episode_ns == ms(200.0)
        assert summary.gc_fraction == pytest.approx(0.25)

    def test_percentages_labels(self):
        summary = summarize([episode(dispatch(0.0, 100.0))])
        assert set(summary.percentages()) == {
            "Application", "RT Library", "GC", "Native",
        }

    def test_empty_population(self):
        summary = summarize([])
        assert summary.app_fraction == 0.0
        assert summary.gc_fraction == 0.0
