"""Tests for JSON/CSV export."""

import csv
import io
import json

import pytest

from repro import LagAlyzer
from repro.core.export import (
    PATTERN_CSV_COLUMNS,
    analysis_to_dict,
    patterns_to_csv,
    write_analysis_json,
    write_patterns_csv,
)

from helpers import dispatch, listener_iv, make_trace


@pytest.fixture()
def analyzer():
    roots = [
        dispatch(0.0, 50.0, [listener_iv("a.A.m", 0.0, 49.0)]),
        dispatch(100.0, 280.0, [listener_iv("b.B.m", 100.0, 279.0)]),
        dispatch(400.0, 420.0, [listener_iv("a.A.m", 400.0, 419.0)]),
    ]
    return LagAlyzer.from_traces([make_trace(roots, e2e_ms=10_000.0)])


class TestJsonExport:
    def test_dict_is_json_serializable(self, analyzer):
        data = analysis_to_dict(analyzer)
        text = json.dumps(data)
        assert "TestApp" in text

    def test_dict_contents(self, analyzer):
        data = analysis_to_dict(analyzer)
        assert data["application"] == "TestApp"
        assert data["sessions"] == 1
        assert data["patterns"]["distinct"] == 2
        assert data["triggers"]["all"]["input"] == 3
        assert data["triggers"]["perceptible"]["input"] == 1
        assert set(data["location"]) == {"all", "perceptible"}
        assert data["session_stats"][0]["traced"] == 3

    def test_write_json(self, analyzer, tmp_path):
        path = write_analysis_json(analyzer, tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded["application"] == "TestApp"


class TestCsvExport:
    def test_header_and_rows(self, analyzer):
        text = patterns_to_csv(analyzer)
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == PATTERN_CSV_COLUMNS
        assert len(rows) == 1 + 2  # header + 2 patterns

    def test_worst_total_lag_first(self, analyzer):
        rows = list(csv.DictReader(io.StringIO(patterns_to_csv(analyzer))))
        totals = [float(row["total_lag_ms"]) for row in rows]
        assert totals == sorted(totals, reverse=True)

    def test_occurrence_column(self, analyzer):
        rows = list(csv.DictReader(io.StringIO(patterns_to_csv(analyzer))))
        occurrences = {row["occurrence"] for row in rows}
        assert occurrences <= {"always", "sometimes", "once", "never"}

    def test_write_csv(self, analyzer, tmp_path):
        path = write_patterns_csv(analyzer, tmp_path / "patterns.csv")
        assert path.read_text().startswith("rank,")
