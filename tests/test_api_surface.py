"""The stable top-level API surface.

``repro.__all__`` is the compatibility contract: every name must
resolve (the heavy ones lazily) and be documented in ``docs/api.md``.
Paths removed at an ``API_VERSION`` bump stay removed.
"""

import inspect
import pathlib

import pytest

import repro

DOCS_API = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"


class TestTopLevelSurface:
    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_every_name_resolves(self):
        for name in repro.__all__:
            value = getattr(repro, name)
            assert value is not None, name

    def test_lazy_names_cached_after_first_access(self):
        # First access resolves via module __getattr__; afterwards the
        # object lives in the module dict like any eager attribute.
        assert repro.TraceClient is repro.__dict__["TraceClient"]
        assert repro.run_study is repro.__dict__["run_study"]

    def test_api_version_is_int(self):
        assert isinstance(repro.API_VERSION, int)
        assert repro.API_VERSION == 7

    def test_version_is_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__

    def test_dir_includes_all(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert name in listed

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name

    def test_facade_names_are_the_canonical_objects(self):
        from repro.core.analyzer import AnalysisConfig, LagAlyzer
        from repro.engine.engine import AnalysisEngine
        from repro.ingest.client import TraceClient
        from repro.ingest.server import IngestServer
        from repro.lila.source import build_store, open_source
        from repro.study.runner import StudyConfig, run_study

        assert repro.LagAlyzer is LagAlyzer
        assert repro.AnalysisConfig is AnalysisConfig
        assert repro.AnalysisEngine is AnalysisEngine
        assert repro.TraceClient is TraceClient
        assert repro.IngestServer is IngestServer
        assert repro.open_source is open_source
        assert repro.build_store is build_store
        assert repro.run_study is run_study
        assert repro.StudyConfig is StudyConfig


class TestDocsStayInSync:
    def test_every_public_name_is_documented(self):
        text = DOCS_API.read_text(encoding="utf-8")
        missing = [name for name in repro.__all__ if name not in text]
        assert not missing, f"docs/api.md does not mention: {missing}"

    def test_docs_state_current_api_version(self):
        text = DOCS_API.read_text(encoding="utf-8")
        assert f"`{repro.API_VERSION}`" in text


class TestRemovedPaths:
    def test_core_api_shim_is_gone(self):
        # Deprecated since the facade moved to repro.core.analyzer;
        # removed in API_VERSION 2.
        with pytest.raises(ModuleNotFoundError):
            import repro.core.api  # noqa: F401

    def test_intra_trace_shards_are_gone(self):
        # Removed in API_VERSION 3: every trace maps as one task.
        with pytest.raises(TypeError):
            repro.AnalysisEngine(shards=2)

    def test_numpy_kernels_are_gone(self):
        # Removed in API_VERSION 3: the kernels are pure Python.
        with pytest.raises(ModuleNotFoundError):
            import repro.core.store.accel  # noqa: F401

    def test_binary_encoding_and_streaming_reader_are_gone(self):
        # Removed in API_VERSION 4: text is the interchange encoding,
        # .lilac the analysis encoding.
        with pytest.raises(ModuleNotFoundError):
            import repro.lila.binary  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.lila.streaming  # noqa: F401

    def test_push_mode_record_parser_is_gone(self):
        # Removed in API_VERSION 5: text parses straight into columns,
        # live sessions included (IncrementalSessionAnalyzer.push_line).
        import repro.lila
        import repro.lila.source

        assert "RecordFeed" not in repro.lila.__all__
        assert not hasattr(repro.lila, "RecordFeed")
        assert not hasattr(repro.lila.source, "RecordFeed")

    def test_study_compact_and_column_file_options_are_gone(self):
        # Removed in API_VERSION 6: retention is prune, and a spool is
        # compacted from its text alone.
        from repro.ingest.server import IngestServer
        from repro.warehouse import StudyWarehouse

        assert not hasattr(StudyWarehouse, "compact")
        spool = inspect.signature(StudyWarehouse.ingest_spool).parameters
        assert "column_file" not in spool
        assert "column_dir" not in inspect.signature(IngestServer).parameters

    def test_daemon_incremental_mode_is_gone(self):
        # Removed in API_VERSION 7: the daemon only spools, and the
        # rolling analysis is `ingest tail` over a spool.
        from repro.cli import main
        from repro.ingest.incremental import IncrementalSessionAnalyzer
        from repro.ingest.server import IngestServer

        assert "incremental" not in inspect.signature(IngestServer).parameters
        assert not hasattr(IngestServer, "rolling_summaries")
        assert not hasattr(IncrementalSessionAnalyzer, "summaries")
        with pytest.raises(SystemExit) as info:
            main(["ingest", "serve", "--incremental"])
        assert info.value.code == 2
