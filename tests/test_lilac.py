"""The ``.lilac`` mmap column file: format, faults, CLI, and plumbing.

Structural coverage for the zero-copy column file that
``tests/test_columnar_parity.py`` pins semantically: write/open round
trips, digest adoption, pickling of file-backed stores, the
byteswap-copy fallback for alien-endian files, intern blocks decoded on
first read (and damage inside them surfacing there), the ``lila.mmap``
fault site, the ``convert`` CLI, atomic trace writers, encoding
autodetection (text, `.lilac`, and the refused binary encoding), and
``ingest replay`` of a `.lilac`.
"""

from __future__ import annotations

import json
import pickle
import sys
import threading
import time
from array import array
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.errors import TraceFormatError
from repro.core.samples import StackFrame
from repro.core.store import ColumnarTrace, FacadeTrace
from repro.engine.engine import AnalysisEngine
from repro.lila import colfile
from repro.lila.autodetect import detect_format, load_trace
from repro.lila.colfile import (
    open_column_store,
    open_column_trace,
    store_digest,
    write_column_file,
)
from repro.lila.digest import trace_digest
from repro.lila.source import TextTraceSource, build_store, open_source
from repro.lila.writer import write_trace

from helpers import (
    dispatch,
    gc_iv,
    gui_sample,
    listener_iv,
    make_trace,
    paint_iv,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture()
def trace_path(tmp_path):
    roots = [
        dispatch(0.0, 50.0, [listener_iv("a.A.m", 0.0, 49.0)]),
        gc_iv(60.0, 80.0),
        dispatch(100.0, 280.0, [listener_iv("b.B.m", 100.0, 279.0)]),
        dispatch(400.0, 420.0),
    ]
    samples = [gui_sample(t) for t in (10.0, 40.0, 70.0, 150.0, 410.0)]
    trace = make_trace(roots, samples=samples, e2e_ms=1000.0, short_count=9)
    return write_trace(trace, tmp_path / "t.lila")


@pytest.fixture()
def column_path(trace_path, tmp_path):
    store = build_store(TextTraceSource(trace_path))
    return write_column_file(store, tmp_path / "t.lilac")


@pytest.fixture()
def other_column_path(tmp_path):
    """A second, different trace of the same application."""
    roots = [
        dispatch(0.0, 30.0, [paint_iv("c.C.paint", 0.0, 29.0)]),
        dispatch(200.0, 450.0, [listener_iv("d.D.m", 200.0, 449.0)]),
    ]
    trace = make_trace(roots, samples=[gui_sample(t) for t in (10.0, 300.0)])
    store = build_store(TextTraceSource(write_trace(trace, tmp_path / "o.lila")))
    return write_column_file(store, tmp_path / "o.lilac")


def _layout(data):
    """``(header, data base)`` of a ``.lilac`` image."""
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(bytes(data[16:16 + header_len]))
    return header, (16 + header_len + 7) & ~7


def _damage_string(data):
    """Make the first non-empty string invalid UTF-8; its offset."""
    header, base = _layout(data)
    pos = base + header["blocks"]["strings"]["offset"]
    while True:
        length = int.from_bytes(data[pos:pos + 4], "little")
        pos += 4
        if length:
            data[pos] = 0xFF
            return "column file string is not valid UTF-8", pos
        pos += length


def _damage_stack(data):
    """Point the first non-empty stack at a missing frame; its offset."""
    header, base = _layout(data)
    pos = base + header["blocks"]["stacks"]["offset"]
    while True:
        depth = int.from_bytes(data[pos:pos + 2], "little")
        pos += 2
        if depth:
            data[pos:pos + 4] = (0xFFFFFFFF).to_bytes(4, "little")
            return "column file stack frame id 4294967295 out of range", pos
        pos += 4 * depth


@pytest.fixture(params=("string", "stack"))
def damaged(request, column_path, tmp_path):
    """``(path, message, offset)`` of a file with one damaged intern block."""
    data = bytearray(column_path.read_bytes())
    damage = _damage_string if request.param == "string" else _damage_stack
    message, offset = damage(data)
    path = tmp_path / f"damaged-{request.param}.lilac"
    path.write_bytes(bytes(data))
    return path, message, offset


def _count_decodes(monkeypatch, delay=0.0):
    """Count ``_parse_strings`` / ``_parse_stacks`` calls from now on."""
    calls = {"strings": 0, "stacks": 0}
    parse_strings = colfile._parse_strings
    parse_stacks = colfile._parse_stacks

    def counted_strings(*args):
        calls["strings"] += 1
        time.sleep(delay)
        return parse_strings(*args)

    def counted_stacks(*args):
        calls["stacks"] += 1
        return parse_stacks(*args)

    monkeypatch.setattr(colfile, "_parse_strings", counted_strings)
    monkeypatch.setattr(colfile, "_parse_stacks", counted_stacks)
    return calls


class TestRoundTrip:
    def test_digest_survives_the_column_file(self, trace_path, column_path):
        original = load_trace(trace_path)
        mapped = open_column_trace(column_path)
        assert trace_digest(mapped) == trace_digest(original)

    def test_canonical_content_is_identical(self, trace_path, column_path):
        original = build_store(TextTraceSource(trace_path))
        mapped = open_column_store(column_path)
        assert mapped.canonical_lines() == original.canonical_lines()
        assert mapped.thread_order == original.thread_order
        assert mapped.interval_count == original.interval_count
        assert mapped.sample_count == original.sample_count

    def test_detect_format_sniffs_lilac(self, column_path):
        assert detect_format(column_path) == "lilac"

    def test_load_trace_autodetects_lilac(self, trace_path, column_path):
        assert len(load_trace(column_path).episodes) == len(
            load_trace(trace_path).episodes
        )

    def test_store_is_mmap_backed(self, column_path):
        store = open_column_store(column_path)
        assert store.backing is not None
        assert store.backing.nbytes == column_path.stat().st_size
        assert str(store.backing.path) == str(column_path)

    def test_analyses_match_the_text_path(self, trace_path, column_path):
        from repro.core.plan import build_plan

        config = AnalysisConfig(perceptible_threshold_ms=100.0)
        plan = build_plan(("statistics", "occurrence"))
        text_result = plan.execute(load_trace(trace_path), config)
        mapped_result = plan.execute(open_column_trace(column_path), config)
        assert pickle.dumps(sorted(text_result.items())) == pickle.dumps(
            sorted(mapped_result.items())
        )


#: The head of a file in the binary encoding removed in API version 4.
_REMOVED_BINARY = b"LILB\x01\x00" + bytes(16)


class TestAutodetect:
    def test_detects_both_formats(self, trace_path, column_path):
        assert detect_format(trace_path) == "text"
        assert detect_format(column_path) == "lilac"

    def test_rejects_garbage(self, tmp_path):
        garbage = tmp_path / "x.bin"
        garbage.write_bytes(b"garbage here")
        with pytest.raises(TraceFormatError, match="any encoding"):
            detect_format(garbage)

    def test_analyzer_loads_mixed_formats(self, trace_path, column_path):
        analyzer = LagAlyzer.load([trace_path, column_path])
        assert len(analyzer.episodes) == 6

    @pytest.mark.parametrize("read", (detect_format, load_trace, open_source))
    def test_removed_binary_encoding_is_refused_typed(self, tmp_path, read):
        old = tmp_path / "t.lilb"
        old.write_bytes(_REMOVED_BINARY)
        with pytest.raises(TraceFormatError, match="API version 4") as error:
            read(old)
        assert ".lilb" in str(error.value)
        assert error.value.path == old

    @pytest.mark.parametrize("workers", (1, 2))
    def test_directory_holding_a_binary_trace_fails_typed(
        self, trace_path, tmp_path, workers
    ):
        (tmp_path / "u.lilb").write_bytes(_REMOVED_BINARY)
        with pytest.raises(TraceFormatError, match="API version 4") as error:
            LagAlyzer.load(tmp_path, workers=workers)
        assert str(error.value.path) == str(tmp_path / "u.lilb")


class TestAlienEndian:
    def test_byteswapped_copy_of_a_golden_file(self, tmp_path):
        """A file from an opposite-endian host opens as an in-memory copy."""
        golden = sorted(GOLDEN_DIR.glob("*.lila"))[0]
        text_store = build_store(TextTraceSource(golden))
        data = bytearray(
            write_column_file(text_store, tmp_path / "native.lilac").read_bytes()
        )
        header, base = _layout(data)
        data[6] = 1 if sys.byteorder == "little" else 0
        for entry in header["segments"]:
            start = base + entry["offset"]
            end = start + entry["nbytes"]
            column = array(entry["typecode"])
            column.frombytes(bytes(data[start:end]))
            column.byteswap()
            data[start:end] = column.tobytes()
        alien = tmp_path / "alien.lilac"
        alien.write_bytes(bytes(data))

        store = open_column_store(alien)
        assert store.backing is None
        assert store.canonical_lines() == text_store.canonical_lines()
        expected = trace_digest(load_trace(golden))
        assert trace_digest(open_column_trace(alien)) == expected
        del store._content_digest
        assert store_digest(store) == expected
        revived = pickle.loads(pickle.dumps(store))
        assert revived.canonical_lines() == text_store.canonical_lines()
        assert pickle.dumps(revived) == pickle.dumps(store)


class TestDeferredInterns:
    def test_warm_reopen_never_decodes(
        self, column_path, other_column_path, tmp_path, monkeypatch
    ):
        paths = [column_path, other_column_path]
        cache = tmp_path / "cache"
        cold = LagAlyzer.load(paths).summaries(
            engine=AnalysisEngine(workers=1, cache_dir=cache)
        )
        calls = _count_decodes(monkeypatch)
        warm = LagAlyzer.load(paths).summaries(
            engine=AnalysisEngine(workers=1, cache_dir=cache)
        )
        assert calls == {"strings": 0, "stacks": 0}
        assert pickle.dumps(sorted(warm.items())) == pickle.dumps(
            sorted(cold.items())
        )

    def test_first_kernel_use_decodes_once(self, column_path, monkeypatch):
        calls = _count_decodes(monkeypatch)
        store = open_column_store(column_path)
        assert calls == {"strings": 0, "stacks": 0}
        store.pattern_counts(100.0)
        store.threadstate_summary(store.episode_rows())
        store.canonical_lines()
        assert calls == {"strings": 1, "stacks": 1}
        assert store.interns.strings is store.strings
        assert store.interns.ids is store._strings_map

    def test_racing_first_reads_decode_once(self, column_path, monkeypatch):
        calls = _count_decodes(monkeypatch, delay=0.05)
        store = open_column_store(column_path)
        readers = 8
        barrier = threading.Barrier(readers, timeout=10)
        seen = []

        def read():
            barrier.wait()
            seen.append(store.strings)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == {"strings": 1, "stacks": 1}
        assert len(seen) == readers
        assert all(strings is seen[0] for strings in seen)
        assert store.interns.strings is store.strings is seen[0]

    def test_state_for_pickling_by_value_is_decoded(self, column_path):
        state = open_column_store(column_path).__getstate__()
        assert "_pending_interns" not in state
        text = build_store(TextTraceSource(column_path.with_suffix(".lila")))
        # The file's pool is the store's own, then any frame names.
        assert state["strings"][:len(text.strings)] == text.strings
        assert state["stacks"] == text.stacks

    @pytest.mark.parametrize("attr", ("strings", "stacks"))
    def test_damage_opens_then_raises_on_first_read(self, damaged, attr):
        path, message, offset = damaged
        store = open_column_store(path)
        assert "deferred" in repr(store)
        for _attempt in range(2):
            with pytest.raises(TraceFormatError) as error:
                getattr(store, attr)
            assert str(error.value) == message
            assert error.value.offset == offset
            assert str(error.value.path) == str(path)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_engine_quarantines_a_damaged_block(
        self, damaged, other_column_path, tmp_path, workers
    ):
        path, message, _offset = damaged
        analyzer = LagAlyzer.load([path, other_column_path])
        engine = AnalysisEngine(workers=workers, cache_dir=tmp_path / "cache")
        summaries = analyzer.summaries(engine=engine)
        assert [entry.index for entry in engine.quarantined] == [0]
        assert message in engine.quarantined[0].error
        alone = LagAlyzer.load([other_column_path]).summaries()
        assert pickle.dumps(sorted(summaries.items())) == pickle.dumps(
            sorted(alone.items())
        )

    @pytest.mark.parametrize("to", ("text", "lilac"))
    def test_convert_of_a_damaged_block_exits_2_and_writes_nothing(
        self, damaged, tmp_path, capsys, to
    ):
        path, message, _offset = damaged
        out = tmp_path / "out" / f"converted.{to}"
        assert main(["convert", str(path), "--to", to, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.parent.exists() or list(out.parent.iterdir()) == []


def _space_in_symbol():
    """A symbol the whitespace-delimited text format cannot carry."""
    return make_trace([dispatch(0.0, 10.0, [listener_iv("a b", 0.0, 9.0)])])


def _too_deep_stack():
    """A stack deeper than the column file's u16 depth field."""
    sample = gui_sample(5.0, frames=[StackFrame("a.A", "m")] * 70_000)
    return make_trace([dispatch(0.0, 10.0)], samples=[sample])


def _too_deep_store():
    return ColumnarTrace.from_trace(_too_deep_stack())


class TestAtomicWriters:
    @pytest.mark.parametrize("writer, make_bad, error", (
        (write_trace, _space_in_symbol, TraceFormatError),
        (write_column_file, _too_deep_store, TraceFormatError),
    ))
    @pytest.mark.parametrize("existing", (False, True))
    def test_failed_write_keeps_the_target(
        self, tmp_path, writer, make_bad, error, existing
    ):
        target = tmp_path / "target"
        if existing:
            target.write_bytes(b"previous content")
        with pytest.raises(error):
            writer(make_bad(), target)
        if existing:
            assert target.read_bytes() == b"previous content"
        assert list(tmp_path.iterdir()) == ([target] if existing else [])


class TestPickling:
    def test_file_backed_store_pickles_as_its_path(
        self, trace_path, column_path
    ):
        trace = open_column_trace(column_path)
        shipped = pickle.dumps(trace)
        # The columns never travel: a file-backed facade pickles to a
        # couple hundred bytes regardless of trace size, at least 2x
        # fewer than the same trace held in memory.
        assert len(shipped) < 4 * column_path.stat().st_size
        in_memory = pickle.dumps(FacadeTrace(build_store(TextTraceSource(trace_path))))
        assert 2 * len(shipped) <= len(in_memory)
        assert str(column_path.name).encode() in shipped
        revived = pickle.loads(shipped)
        assert trace_digest(revived) == trace_digest(trace)
        assert revived.columnar.backing is not None

    def test_unpickling_a_deleted_column_file_is_typed(self, column_path):
        shipped = pickle.dumps(open_column_trace(column_path))
        column_path.unlink()
        with pytest.raises(TraceFormatError):
            pickle.loads(shipped)


class TestFaultSite:
    def test_mmap_error_fault_fires_typed(self, column_path):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, FaultRule
        from repro.faults import runtime as faults_runtime

        plan = FaultPlan(seed=7, rules=(
            FaultRule(kind="mmap_error", at=(column_path.name,)),
        ))
        with faults_runtime.installed(FaultInjector(plan)):
            with pytest.raises(TraceFormatError):
                open_column_store(column_path)

    def test_engine_quarantines_an_unreadable_column_file(
        self, column_path, tmp_path
    ):
        from repro.engine.engine import AnalysisEngine

        cut = tmp_path / "cut.lilac"
        cut.write_bytes(column_path.read_bytes()[:24])
        engine = AnalysisEngine(workers=1, use_cache=False)
        traces = engine.load_traces(
            [column_path, cut], on_error="quarantine"
        )
        assert len(traces) == 1
        assert trace_digest(traces[0]) == trace_digest(
            open_column_trace(column_path)
        )
        assert len(engine.quarantined) == 1
        assert engine.quarantined[0].session_id == "cut.lilac"
        assert "truncated" in engine.quarantined[0].error


class TestConvertCli:
    def test_convert_to_lilac_and_back(self, trace_path, tmp_path, capsys):
        out = tmp_path / "c.lilac"
        assert main([
            "convert", str(trace_path), "--to", "lilac", "-o", str(out)
        ]) == 0
        assert detect_format(out) == "lilac"
        back = tmp_path / "back.lila"
        assert main([
            "convert", str(out), "--to", "text", "-o", str(back)
        ]) == 0
        assert trace_digest(load_trace(back)) == trace_digest(
            load_trace(trace_path)
        )
        assert "wrote" in capsys.readouterr().out

    def test_convert_default_output_swaps_suffix(self, trace_path, capsys):
        assert main(["convert", str(trace_path), "--to", "lilac"]) == 0
        assert trace_path.with_suffix(".lilac").exists()

    def test_convert_unreadable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lila"
        bad.write_bytes(b"not a trace at all")
        assert main(["convert", str(bad), "--to", "lilac"]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.lilac"
        assert main(["convert", str(missing), "--to", "text"]) == 2

    def test_convert_of_a_too_deep_stack_exits_2_and_writes_nothing(
        self, tmp_path, capsys
    ):
        deep = write_trace(_too_deep_stack(), tmp_path / "deep.lila")
        out = tmp_path / "out" / "deep.lilac"
        assert main([
            "convert", str(deep), "--to", "lilac", "-o", str(out)
        ]) == 2
        assert "70000 frames" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_convert_refuses_overwriting_input(self, trace_path, capsys):
        assert main([
            "convert", str(trace_path), "--to", "text",
            "-o", str(trace_path),
        ]) == 1
        assert "refusing" in capsys.readouterr().err


class TestIngestPlumbing:
    def test_replay_sends_a_column_file_as_text_lines(
        self, trace_path, column_path, tmp_path
    ):
        from repro.ingest.server import IngestServer

        replay_dir = tmp_path / "replay"
        replay_dir.mkdir()
        for source in (trace_path, column_path):
            (replay_dir / ("s0" + source.suffix)).write_bytes(
                source.read_bytes()
            )
        with IngestServer(spool_dir=tmp_path / "spools") as server:
            host, port = server.address
            assert main([
                "ingest", "replay", str(replay_dir),
                "--address", f"{host}:{port}",
            ]) == 0
            spooled = {
                state.session: state.spool.path.read_text().splitlines()
                for state in server.sessions()
            }
        assert sorted(spooled) == ["replay-0", "replay-1"]
        assert spooled["replay-0"] == trace_path.read_text().splitlines()
        assert spooled["replay-1"] == spooled["replay-0"]
