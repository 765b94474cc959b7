"""Golden-corpus regression gate: checked-in traces, checked-in answers.

``tests/golden/`` holds three simulated CrosswordSage session traces
and the full :func:`~repro.core.export.analysis_to_dict` summary they
produced when checked in. Any code change that drifts a statistic —
episode detection, pattern mining, any reducer, the reader itself —
fails here with a readable unified diff of the JSON, pinpointing which
numbers moved.

To accept intentional drift, regenerate the expectation:

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_baseline.py

and commit the updated ``expected_summary.json`` with the change that
caused it.
"""

from __future__ import annotations

import difflib
import json
import os
from pathlib import Path

from repro import AnalysisConfig, LagAlyzer
from repro.core.export import analysis_to_dict
from repro.apps.sessions import simulate_session
from repro.lila.writer import trace_to_lines

GOLDEN_DIR = Path(__file__).parent / "golden"
EXPECTED_PATH = GOLDEN_DIR / "expected_summary.json"

#: Provenance of the corpus: these exact coordinates wrote the files.
APPLICATION = "CrosswordSage"
SEED = 20100401
SCALE = 0.05
SESSIONS = 3

TRACE_PATHS = [
    GOLDEN_DIR / f"{APPLICATION}-session-{index}.lila"
    for index in range(SESSIONS)
]


def _summary() -> dict:
    analyzer = LagAlyzer.load(
        TRACE_PATHS, config=AnalysisConfig(perceptible_threshold_ms=100.0)
    )
    return analysis_to_dict(analyzer)


def _canonical(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_corpus_files_are_present():
    missing = [path.name for path in TRACE_PATHS if not path.is_file()]
    assert not missing, f"golden corpus incomplete: missing {missing}"
    assert EXPECTED_PATH.is_file(), "expected_summary.json is missing"


def test_corpus_provenance_is_reproducible():
    """The checked-in traces are exactly what the simulator writes.

    Guards the corpus itself: if the simulator changes, this fails
    first, telling you the *inputs* moved (regenerate the corpus), as
    opposed to the summary test failing because the *analysis* moved.
    """
    for index, path in enumerate(TRACE_PATHS):
        trace = simulate_session(
            APPLICATION, session_index=index, seed=SEED, scale=SCALE
        )
        expected = "\n".join(trace_to_lines(trace)) + "\n"
        assert path.read_text(encoding="utf-8") == expected, (
            f"{path.name} no longer matches the simulator output for "
            f"seed={SEED} scale={SCALE}; the trace generator changed"
        )


def test_analysis_matches_golden_summary():
    actual = _canonical(_summary())
    if os.environ.get("GOLDEN_REGEN"):
        EXPECTED_PATH.write_text(actual, encoding="utf-8")
        return
    expected = EXPECTED_PATH.read_text(encoding="utf-8")
    if actual == expected:
        return
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile="expected_summary.json (checked in)",
            tofile="actual (this tree)",
            n=3,
        )
    )
    raise AssertionError(
        "analysis results drifted from the golden baseline; if the "
        "change is intentional, regenerate with GOLDEN_REGEN=1 and "
        "commit the diff:\n" + diff
    )
