"""Scalability — analysis cost versus trace size.

The paper reports that fully automated analysis of about 7.5 hours of
sessions (roughly 250k episodes) took 15 minutes. This bench measures
how our core scales: trace loading (parse + validate), pattern mining,
and the full analysis battery, at increasing session lengths.
"""

import os

import pytest

from repro import LagAlyzer
from repro.apps.sessions import simulate_session
from repro.lila.reader import read_trace_lines
from repro.lila.writer import trace_to_lines
from repro.study.runner import StudyConfig, run_study

BENCH_WORKERS = int(os.environ.get("BENCH_WORKERS", "2"))


@pytest.fixture(scope="module")
def sized_traces():
    cache = {}

    def get(scale):
        if scale not in cache:
            cache[scale] = simulate_session(
                "SwingSet", seed=1, scale=scale
            )
        return cache[scale]

    return get


@pytest.mark.parametrize("scale", [0.05, 0.1, 0.2])
def test_full_analysis_cost(benchmark, sized_traces, scale):
    trace = sized_traces(scale)

    def analyze():
        analyzer = LagAlyzer.from_traces([trace])
        analyzer.pattern_table()
        analyzer.occurrence_summary()
        analyzer.trigger_summary(perceptible_only=True)
        analyzer.location_summary(perceptible_only=True)
        analyzer.concurrency_summary(perceptible_only=True)
        analyzer.threadstate_summary(perceptible_only=True)
        return analyzer.mean_session_stats()

    stats = benchmark(analyze)
    print()
    print(f"scale {scale}: {stats.traced:.0f} episodes analyzed")
    assert stats.traced > 0


def test_trace_parse_cost(benchmark, sized_traces):
    lines = trace_to_lines(sized_traces(0.1))

    trace = benchmark(read_trace_lines, lines)
    assert trace.episodes


def test_trace_serialize_cost(benchmark, sized_traces):
    trace = sized_traces(0.1)
    lines = benchmark(trace_to_lines, trace)
    assert lines[0].startswith("#%lila")


@pytest.mark.parametrize("workers", [1, BENCH_WORKERS])
def test_run_study_workers(benchmark, workers, tmp_path_factory):
    """The engine fan-out: the study at 1 worker versus a small pool.

    The cache directory is fresh per round so every measurement is a
    cold run — this isolates the parallel speedup from cache effects
    (cache behavior is covered by tests/test_engine.py).
    """
    config = StudyConfig(
        sessions=2,
        scale=0.05,
        applications=("CrosswordSage", "JFreeChart", "SwingSet", "JEdit"),
    )
    counter = iter(range(10**9))

    def study():
        cache_dir = tmp_path_factory.mktemp(f"study-cache-{next(counter)}")
        return run_study(config, workers=workers, cache_dir=cache_dir)

    result = benchmark.pedantic(study, rounds=1, iterations=1, warmup_rounds=0)
    assert len(result.apps) == len(config.applications)
