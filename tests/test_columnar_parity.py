"""Text <-> column-file ingestion parity over the golden corpus.

Every golden trace is read through both encodings — the text file as
checked in and an mmap-backed ``.lilac`` column file written from it —
and the paths must be indistinguishable: identical columnar content
(canonical lines, hence content digest) and identical results from
every registered analysis under several configurations.
Another leg compares the column kernels, the only map path, against
the object-model oracle of ``tests/oracle.py``, so a drift in either
the kernels or the object algorithms breaks the bond here. The engine
legs pin mmap-vs-in-memory fan-outs byte-identical across worker pools.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.core.analyses import REGISTRY, get_analysis
from repro import AnalysisConfig, LagAlyzer
from repro.core.export import analysis_to_dict
from repro.engine.engine import AnalysisEngine
from repro.lila.colfile import open_column_trace, write_column_file
from repro.lila.digest import trace_digest
from repro.lila.source import TextTraceSource, build_store, build_trace

from helpers import parity_golden_traces
from oracle import ORACLE_MAPS, OracleAnalyzer, plain

#: ``PARITY_FAMILY`` narrows the corpus to one workload family's traces
#: (the CI family matrix runs one leg per family); unset runs them all.
GOLDEN_TRACES = parity_golden_traces()

CONFIGS = {
    "default": AnalysisConfig(perceptible_threshold_ms=100.0),
    "all-threads": AnalysisConfig(
        perceptible_threshold_ms=100.0, all_dispatch_threads=True
    ),
    "with-gc": AnalysisConfig(
        perceptible_threshold_ms=100.0, include_gc_in_patterns=True
    ),
    "low-threshold": AnalysisConfig(perceptible_threshold_ms=5.0),
}


def text_facade(path: Path):
    return build_trace(TextTraceSource(path))


def lilac_facade(path: Path, tmp_path: Path):
    """The same trace served from an mmap-backed ``.lilac`` file."""
    store = build_store(TextTraceSource(path))
    column_path = write_column_file(store, tmp_path / (path.stem + ".lilac"))
    return open_column_trace(column_path)


@pytest.fixture(params=GOLDEN_TRACES, ids=lambda path: path.stem)
def golden_path(request):
    return request.param


def test_corpus_is_present():
    assert GOLDEN_TRACES, "tests/golden holds no .lila traces"


def summary_of(trace, config) -> dict:
    """Every analysis result of one trace, as comparable plain data."""
    return analysis_to_dict(LagAlyzer.from_traces([trace], config=config))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_all_analyses_agree_across_encodings(
    golden_path, tmp_path, config_name
):
    config = CONFIGS[config_name]
    text = text_facade(golden_path)
    mapped = lilac_facade(golden_path, tmp_path)
    assert summary_of(text, config) == summary_of(mapped, config), (
        f"analysis summaries drifted between encodings ({config_name})"
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_columnar_path_matches_object_path(golden_path, config_name):
    """The column kernels and the object algorithms are one semantics."""
    config = CONFIGS[config_name]
    trace = text_facade(golden_path)
    kernels = LagAlyzer.from_traces([trace], config=config)
    oracle = OracleAnalyzer([trace], config=config)
    assert analysis_to_dict(kernels) == analysis_to_dict(oracle), (
        f"column kernels disagree with the object oracle ({config_name})"
    )
    for name in ORACLE_MAPS:
        flags = [False]
        if get_analysis(name).supports_perceptible_only:
            flags.append(True)
        for flag in flags:
            assert plain(kernels.summary(name, perceptible_only=flag)) == plain(
                oracle.summary(name, perceptible_only=flag)
            ), (
                f"{name} (perceptible_only={flag}) disagrees with the "
                f"object oracle ({config_name})"
            )


# ---------------------------------------------------------------------
# Zero-copy column file (.lilac) parity
# ---------------------------------------------------------------------

#: Engine worker settings: 0 = one worker per CPU (pool), 2 = two.
WORKER_MODES = (0, 2)


def test_column_file_round_trip_is_columnar_identical(golden_path, tmp_path):
    text = text_facade(golden_path)
    mapped = lilac_facade(golden_path, tmp_path)
    assert text.columnar.interval_count == mapped.columnar.interval_count
    assert text.columnar.sample_count == mapped.columnar.sample_count
    assert text.columnar.thread_order == mapped.columnar.thread_order
    assert text.columnar.canonical_lines() == mapped.columnar.canonical_lines()
    assert trace_digest(text) == trace_digest(mapped)
    assert mapped.columnar.backing is not None, (
        "column file opened into a copy, not an mmap view"
    )
    # Parity was established without ever building the object graph.
    assert text.is_materialized is False
    assert mapped.is_materialized is False


def engine_summaries(trace, workers: int) -> bytes:
    """Every analysis summary from one engine fan-out, as pinned bytes."""
    engine = AnalysisEngine(workers=workers, use_cache=False)
    summaries = engine.summarize_all(
        tuple(REGISTRY), [trace], CONFIGS["default"]
    )
    return pickle.dumps(sorted(summaries.items()))


@pytest.mark.parametrize("workers", WORKER_MODES)
def test_mmap_fanout_matches_in_memory(golden_path, tmp_path, workers):
    """A file-backed store must fan out byte-identically to in-memory."""
    in_memory = engine_summaries(text_facade(golden_path), workers)
    mapped = engine_summaries(lilac_facade(golden_path, tmp_path), workers)
    assert in_memory == mapped, (
        f"mmap-backed fan-out drifted (workers={workers})"
    )


def test_truncated_column_file_is_typed(golden_path, tmp_path):
    """A cut-off ``.lilac`` raises TraceFormatError naming path+offset."""
    from repro.core.errors import TraceFormatError

    store = build_store(TextTraceSource(golden_path))
    column_path = write_column_file(store, tmp_path / "t.lilac")
    data = column_path.read_bytes()
    for keep in (0, 7, 16, len(data) // 2, len(data) - 9):
        cut = tmp_path / f"cut-{keep}.lilac"
        cut.write_bytes(data[:keep])
        with pytest.raises(TraceFormatError) as error:
            open_column_trace(cut)
        assert str(error.value.path) == str(cut), (
            f"error lost its file provenance: {error.value}"
        )
        assert error.value.offset is not None, (
            f"error lost its byte offset: {error.value}"
        )
        assert error.value.locate() == f"{cut}:@{error.value.offset}"


def test_garbled_column_file_is_typed(golden_path, tmp_path):
    """Flipped header/segment bytes raise TraceFormatError, never crash."""
    from repro.core.errors import TraceFormatError

    store = build_store(TextTraceSource(golden_path))
    column_path = write_column_file(store, tmp_path / "t.lilac")
    data = bytearray(column_path.read_bytes())
    for position in (0, 4, 6, 12, 40, 80):
        garbled = bytearray(data)
        garbled[position] ^= 0xFF
        bad = tmp_path / f"bad-{position}.lilac"
        bad.write_bytes(bytes(garbled))
        try:
            trace = open_column_trace(bad)
            # A flip the header CRC cannot see (e.g. inside a segment)
            # may still load; it must at least stay structurally sound.
            assert trace.columnar.interval_count == store.interval_count
        except TraceFormatError as error:
            assert str(error.path) == str(bad), (
                f"error lost its file provenance: {error}"
            )
