"""Tests for the HTML pattern browser."""

import pytest

from repro.cli import main
from repro import LagAlyzer
from repro.viz.htmlbrowser import render_html_browser, write_html_browser

from helpers import dispatch, listener_iv, make_trace


@pytest.fixture()
def analyzer():
    roots = [
        dispatch(0.0, 150.0, [listener_iv("a.Slow.m", 0.0, 149.0)]),
        dispatch(300.0, 460.0, [listener_iv("a.Slow.m", 300.0, 459.0)]),
        dispatch(600.0, 610.0, [listener_iv("b.Fast.m", 600.0, 609.0)]),
    ]
    return LagAlyzer.from_traces([make_trace(roots, e2e_ms=10_000.0)])


class TestHtmlBrowser:
    def test_complete_document(self, analyzer):
        html = render_html_browser(analyzer)
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("</html>")
        assert "Pattern browser — TestApp" in html

    def test_perceptible_filter_default(self, analyzer):
        html = render_html_browser(analyzer)
        assert "a.Slow.m" in html
        assert "b.Fast.m" not in html

    def test_all_patterns_mode(self, analyzer):
        html = render_html_browser(analyzer, perceptible_only=False)
        assert "b.Fast.m" in html

    def test_sketches_inlined(self, analyzer):
        html = render_html_browser(analyzer)
        # One pattern with two episodes: first + worst sketch = 2 SVGs.
        assert html.count("<svg") == 2
        assert "src=" not in html

    def test_episode_list(self, analyzer):
        html = render_html_browser(analyzer)
        assert "150.0" in html
        assert "160.0" in html

    def test_occurrence_badge(self, analyzer):
        html = render_html_browser(analyzer)
        assert "occ-always" in html

    def test_limit(self, analyzer):
        html = render_html_browser(
            analyzer, perceptible_only=False, max_patterns=1
        )
        assert html.count("<details>") == 1

    def test_write(self, analyzer, tmp_path):
        path = write_html_browser(analyzer, tmp_path / "b.html")
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_cli(self, tmp_path):
        trace_path = tmp_path / "t.lila"
        assert main([
            "simulate", "--app", "CrosswordSage", "--scale", "0.05",
            "-o", str(trace_path),
        ]) == 0
        out = tmp_path / "browser.html"
        assert main(["browse", str(trace_path), "-o", str(out)]) == 0
        assert "<svg" in out.read_text()

    def test_drilldown_included(self, analyzer):
        html = render_html_browser(analyzer)
        assert "diagnosis:" in html
        assert "location:" in html
