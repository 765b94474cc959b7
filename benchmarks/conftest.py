"""Shared fixtures for the benchmark harness.

Every paper benchmark regenerates one of the paper's tables or figures
(``bench_gates.py`` holds the performance gates and uses none of these
fixtures). The session-scoped fixtures simulate the study once (at a reduced scale so
the whole harness runs in seconds — set ``LAGALYZER_BENCH_SCALE=1.0``
and ``LAGALYZER_BENCH_SESSIONS=4`` for the paper's full setup) and every
bench then measures the *analysis* cost over the shared traces, which is
what LagAlyzer itself does offline.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
regenerated rows printed next to the paper's values.
"""

import os

import pytest

from repro import LagAlyzer
from repro.apps.sessions import simulate_sessions
from repro.study.runner import StudyConfig, run_study

BENCH_SCALE = float(os.environ.get("LAGALYZER_BENCH_SCALE", "0.15"))
BENCH_SESSIONS = int(os.environ.get("LAGALYZER_BENCH_SESSIONS", "1"))
BENCH_SEED = 20100401


@pytest.fixture(scope="session")
def study_config():
    return StudyConfig(
        seed=BENCH_SEED, sessions=BENCH_SESSIONS, scale=BENCH_SCALE
    )


@pytest.fixture(scope="session")
def study_result(study_config):
    """The full 14-application study, simulated once per pytest run."""
    return run_study(study_config)


@pytest.fixture(scope="session")
def app_traces():
    """Per-application trace lists, simulated lazily and cached."""
    cache = {}

    def get(app, sessions=BENCH_SESSIONS, scale=BENCH_SCALE):
        key = (app, sessions, scale)
        if key not in cache:
            cache[key] = simulate_sessions(
                app, count=sessions, seed=BENCH_SEED, scale=scale
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def app_analyzer(app_traces):
    """Per-application LagAlyzer over the cached traces."""
    cache = {}

    def get(app):
        if app not in cache:
            cache[app] = LagAlyzer.from_traces(app_traces(app))
        return cache[app]

    return get
