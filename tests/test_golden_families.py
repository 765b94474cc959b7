"""Golden-corpus regression gate for the non-gui workload families.

``tests/golden/`` holds seeded ``io_service`` (OrderApi) and
``async_pipeline`` (IndexBuilder) session traces next to the gui
CrosswordSage corpus. This module pins both the corpus provenance (the
checked-in files are exactly what the simulators write for the recorded
seed/scale) and the full analysis summary — including the per-family
cause ranking — against ``expected_families.json``. Because the parity
suite globs ``tests/golden/*.lila``, these traces also ride every
text/``.lilac``/object-oracle parity leg automatically.

To accept intentional drift, regenerate the expectation:

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_families.py

and commit the updated ``expected_families.json`` with the change that
caused it.
"""

from __future__ import annotations

import difflib
import json
import os
from pathlib import Path

import pytest

from repro.apps.async_pipeline import simulate_pipeline_session
from repro.apps.io_service import simulate_service_session
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.export import analysis_to_dict
from repro.core.family import family_of
from repro.lila.reader import read_trace
from repro.lila.writer import trace_to_lines

GOLDEN_DIR = Path(__file__).parent / "golden"
EXPECTED_PATH = GOLDEN_DIR / "expected_families.json"

#: Provenance of the corpora: these exact coordinates wrote the files.
SEED = 20100401
SCALE = 0.05
SESSIONS = 2

FAMILIES = {
    "io_service": ("OrderApi", simulate_service_session),
    "async_pipeline": ("IndexBuilder", simulate_pipeline_session),
}


def _trace_paths(application: str) -> list:
    return [
        GOLDEN_DIR / f"{application}-session-{index}.lila"
        for index in range(SESSIONS)
    ]


def _summary(application: str) -> dict:
    analyzer = LagAlyzer.load(
        _trace_paths(application),
        config=AnalysisConfig(perceptible_threshold_ms=100.0),
    )
    payload = analysis_to_dict(analyzer)
    payload["causes"] = [
        {"label": label, "total_ns": total_ns, "episodes": episodes}
        for label, total_ns, episodes in analyzer.cause_summary().entries
    ]
    return payload


def _canonical(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


@pytest.fixture(params=sorted(FAMILIES), ids=str)
def family(request):
    return request.param


def test_corpus_files_are_present(family):
    application = FAMILIES[family][0]
    missing = [
        path.name for path in _trace_paths(application) if not path.is_file()
    ]
    assert not missing, f"{family} corpus incomplete: missing {missing}"


def test_corpus_provenance_is_reproducible(family):
    """The checked-in traces are exactly what the simulators write.

    Guards the corpus itself: a simulator change fails here first,
    telling you the *inputs* moved (regenerate the corpus), as opposed
    to the summary test failing because the *analysis* moved.
    """
    application, simulate = FAMILIES[family]
    for index, path in enumerate(_trace_paths(application)):
        trace = simulate(
            application, session_index=index, seed=SEED, scale=SCALE
        )
        expected = "\n".join(trace_to_lines(trace)) + "\n"
        assert path.read_text(encoding="utf-8") == expected, (
            f"{path.name} no longer matches the simulator output for "
            f"seed={SEED} scale={SCALE}; the trace generator changed"
        )


def test_corpus_announces_its_family(family):
    """Every trace carries its family in metadata (never for gui)."""
    application = FAMILIES[family][0]
    for path in _trace_paths(application):
        trace = read_trace(path)
        assert trace.metadata.extra.get("family") == family
        assert family_of(trace.metadata).name == family


def test_analysis_matches_golden_summary():
    actual = _canonical(
        {family: _summary(spec[0]) for family, spec in FAMILIES.items()}
    )
    if os.environ.get("GOLDEN_REGEN"):
        EXPECTED_PATH.write_text(actual, encoding="utf-8")
        return
    assert EXPECTED_PATH.is_file(), "expected_families.json is missing"
    expected = EXPECTED_PATH.read_text(encoding="utf-8")
    if actual == expected:
        return
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile="expected_families.json (checked in)",
            tofile="actual (this tree)",
            n=3,
        )
    )
    raise AssertionError(
        "family analysis results drifted from the golden baseline; if "
        "the change is intentional, regenerate with GOLDEN_REGEN=1 and "
        "commit the diff:\n" + diff
    )
