"""Ablation — the perceptibility threshold.

The paper uses Shneiderman's 100 ms; Dabrowski & Munson suggest 150 ms
for keyboard and 195 ms for mouse input. This ablation re-runs the
occurrence classification at each threshold and quantifies how many
episodes and patterns stop being "problems".
"""

import pytest

from repro.core import occurrence as occurrence_mod
from repro import AnalysisConfig, LagAlyzer


@pytest.mark.parametrize("threshold_ms", [100.0, 150.0, 195.0])
def test_threshold_sensitivity(app_traces, threshold_ms):
    traces = app_traces("GanttProject")
    analyzer = LagAlyzer.from_traces(
        traces, config=AnalysisConfig(perceptible_threshold_ms=threshold_ms)
    )
    perceptible = analyzer.perceptible_episodes()
    summary = analyzer.occurrence_summary()
    ever = summary.ever_perceptible_fraction
    print()
    print(f"threshold {threshold_ms:5.0f} ms: "
          f"{len(perceptible):4d} perceptible episodes, "
          f"{100 * ever:4.0f}% of patterns ever perceptible")
    assert perceptible


def test_thresholds_strictly_ordered(app_traces):
    traces = app_traces("GanttProject")
    counts = []
    for threshold in (100.0, 150.0, 195.0):
        analyzer = LagAlyzer.from_traces(
            traces, config=AnalysisConfig(perceptible_threshold_ms=threshold)
        )
        counts.append(len(analyzer.perceptible_episodes()))
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[0] > counts[2]


def test_occurrence_at_strict_threshold_cost(benchmark, app_analyzer):
    table = app_analyzer("GanttProject").pattern_table()

    def classify():
        return occurrence_mod.summarize(table, threshold_ms=195.0)

    summary = benchmark(classify)
    assert summary.total == table.distinct_count
