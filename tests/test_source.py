"""The :mod:`repro.lila.source` streaming layer: records and errors.

Covers the reference record stream's shape — text file and in-memory
lines — plus the provenance contract: every ingestion failure surfaces
as :class:`TraceFormatError` stamped with the source's path and line,
a byte that is not UTF-8 included. (Byte-offset provenance of `.lilac`
damage is pinned in ``tests/test_columnar_parity.py`` and
``tests/test_lilac.py``; the line kernel is held to the reference
stream in ``tests/test_parse_kernel.py``.)
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import LagAlyzer
from repro.apps.sessions import simulate_session
from repro.core.errors import TraceFormatError
from repro.core.intervals import IntervalKind
from repro.core.samples import ThreadState
from repro.core.store import (
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
)
from repro.engine.engine import AnalysisEngine
from repro.faults import runtime as faults_runtime
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.lila.colfile import ColumnTraceSource, write_column_file
from repro.lila.reader import read_trace
from repro.lila.source import (
    LinesTraceSource,
    TextTraceSource,
    TraceSource,
    build_store,
    build_trace,
    open_source,
)
from repro.ingest.incremental import IncrementalSessionAnalyzer
from repro.lila.writer import trace_to_lines
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer

from oracle import reference_build_store


TINY = """\
#%lila 1
M application App
M session_id s0
M start_ns 0
M end_ns 100000000
M gui_thread gui
M x.build nightly
F 2
T gui
O 1000000 dispatch java.awt.EventQueue#dispatchEvent
O 2000000 listener app.Editor#run
C 5000000
C 10000000
G 12000000 13000000 gc.Coll#minor
P 3000000
t gui runnable app.Editor#run;java.awt.EventQueue#dispatchEvent
"""


def tiny_lines():
    return TINY.splitlines()


# ----------------------------------------------------------------------
# Record stream shape
# ----------------------------------------------------------------------


class TestRecordStream:
    def test_lines_source_yields_expected_records(self):
        records = list(LinesTraceSource(tiny_lines()).records())
        tags = [record[0] for record in records]
        assert tags == [
            REC_META, REC_META, REC_META, REC_META, REC_META, REC_META,
            REC_FILTERED, REC_THREAD, REC_OPEN, REC_OPEN, REC_CLOSE,
            REC_CLOSE, REC_GC, REC_TICK, REC_ENTRY,
        ]
        assert records[0] == (REC_META, "application", "App", False)
        assert records[5] == (REC_META, "build", "nightly", True)
        assert records[6] == (REC_FILTERED, 2)
        assert records[7] == (REC_THREAD, "gui")
        tag, start_ns, kind, symbol = records[8]
        assert (start_ns, kind) == (1_000_000, IntervalKind.DISPATCH)
        assert symbol == "java.awt.EventQueue#dispatchEvent"
        assert records[10] == (REC_CLOSE, 5_000_000)
        tag, t0, t1, gc_symbol = records[12]
        assert (t0, t1) == (12_000_000, 13_000_000)
        assert records[13] == (REC_TICK, 3_000_000)
        tag, thread, state, stack = records[14]
        assert (thread, state) == ("gui", ThreadState.RUNNABLE)
        assert [frame.method_name for frame in stack.frames] == [
            "run", "dispatchEvent"
        ]

    def test_text_file_matches_lines_source(self, tmp_path):
        path = tmp_path / "t.lila"
        path.write_text(TINY, encoding="utf-8")
        from_file = list(TextTraceSource(path).records())
        from_lines = list(LinesTraceSource(tiny_lines()).records())
        assert from_file == from_lines

    def test_open_source_autodetects_encoding(self, tmp_path):
        text_path = tmp_path / "t.lila"
        text_path.write_text(TINY, encoding="utf-8")
        column_path = write_column_file(
            build_store(TextTraceSource(text_path)), tmp_path / "t.lilac"
        )
        assert isinstance(open_source(text_path), TextTraceSource)
        assert isinstance(open_source(column_path), ColumnTraceSource)

    def test_labels(self, tmp_path):
        path = tmp_path / "session.lila"
        path.write_text(TINY, encoding="utf-8")
        assert TextTraceSource(path).label() == "session.lila"
        assert LinesTraceSource([]).label() == "<lines>"


# ----------------------------------------------------------------------
# Error provenance
# ----------------------------------------------------------------------


class TestErrorProvenance:
    def damage(self, line_index, replacement):
        lines = tiny_lines()
        lines[line_index] = replacement
        return lines

    def test_text_error_carries_path_and_line(self, tmp_path):
        path = tmp_path / "bad.lila"
        path.write_text(
            "\n".join(self.damage(9, "O nonsense dispatch a#b")) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError) as info:
            build_store(TextTraceSource(path))
        error = info.value
        assert error.path == path
        assert error.line == 10
        assert error.locate() == f"{path}:10"
        assert "line 10" in str(error)

    def test_lines_error_has_no_path(self):
        with pytest.raises(TraceFormatError) as info:
            build_store(
                LinesTraceSource(self.damage(10, "O 2000000 bogus a#b"))
            )
        error = info.value
        assert error.path is None
        assert error.line == 11
        assert "unknown interval kind" in str(error)

    def test_unknown_thread_state_is_line_stamped(self):
        with pytest.raises(TraceFormatError) as info:
            build_store(
                LinesTraceSource(self.damage(15, "t gui R a.B#c"))
            )
        assert info.value.line == 16
        assert "unknown thread state" in str(info.value)

    def test_nesting_violation_is_line_stamped(self):
        # A close with no matching open is a nesting violation raised by
        # the builder; text sources re-type it with the line it hit.
        lines = tiny_lines()
        lines.insert(9, "C 500000")
        with pytest.raises(TraceFormatError) as info:
            build_store(LinesTraceSource(lines))
        assert info.value.line == 10

    def test_truncated_file_fails_without_line(self):
        # Damage only discoverable at end of stream (an unclosed
        # interval) is typed but not pinned to a line.
        lines = tiny_lines()[:10]
        with pytest.raises(TraceFormatError) as info:
            build_store(LinesTraceSource(lines))
        assert info.value.line is None

    def test_fault_injected_damage_surfaces_as_format_error(self, tmp_path):
        path = tmp_path / "s.lila"
        path.write_text(TINY, encoding="utf-8")
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(kind="trace_garbled", at=(path.name,)),
            ),
        )
        with faults_runtime.installed(FaultInjector(plan)):
            with pytest.raises(TraceFormatError) as info:
                build_store(TextTraceSource(path, faults=True))
        assert info.value.line is not None


class TestRepeatedSampleLines:
    """The kernel keeps each ``t`` line its fast path resolved, keyed by
    the raw line, and consults it only inside a tick."""

    T_LINE = TINY.splitlines()[-1]

    def lines(self, *tail):
        # TINY's tick resolves the t line by the reference path; a
        # second tick resolves it by the fast path, which keeps it.
        return tiny_lines() + ["P 4000000", self.T_LINE, *tail]

    def test_repeat_after_a_thread_record_is_outside_a_tick(self, tmp_path):
        lines = self.lines("T worker", self.T_LINE)
        message = f"line {len(lines)}: t record outside a tick"
        path = tmp_path / "stray.lila"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for source in (LinesTraceSource(lines), TextTraceSource(path)):
            with pytest.raises(TraceFormatError) as info:
                build_store(source)
            assert message in str(info.value)
            assert info.value.line == len(lines)
        with pytest.raises(TraceFormatError) as info:
            IncrementalSessionAnalyzer().push_lines(lines)
        assert message in str(info.value)

    def test_repeat_in_a_later_tick_yields_the_same_entry(self):
        lines = self.lines("T worker", "P 5000000", self.T_LINE)
        store = build_store(LinesTraceSource(lines))
        reference = reference_build_store(LinesTraceSource(lines))
        entries = list(
            zip(store.entry_thread, store.entry_state, store.entry_stack)
        )
        assert list(store.sample_ts) == [3000000, 4000000, 5000000]
        assert len(entries) == 3 and len(set(entries)) == 1
        assert entries == list(zip(
            reference.entry_thread, reference.entry_state,
            reference.entry_stack,
        ))


class TestUndecodableByte:
    """A byte that is not UTF-8 is damage like any other: typed, with
    the path and the line that holds it, however far the decoder had
    read ahead of the parse."""

    @pytest.fixture(scope="class")
    def session_lines(self):
        return trace_to_lines(simulate_session("CrosswordSage", scale=0.01))

    @staticmethod
    def write(path, lines, damaged_line, newline="\n"):
        data = b"".join(
            line.encode("utf-8") + newline.encode("ascii") for line in lines
        )
        lines_bytes = data.split(newline.encode("ascii"))
        lines_bytes[damaged_line - 1] += b"\xff"
        path.write_bytes(newline.encode("ascii").join(lines_bytes))
        return path

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "damaged_line", [2, 41, -1], ids=["line2", "line41", "last"]
    )
    @pytest.mark.parametrize(
        "read",
        [read_trace, lambda path: build_store(open_source(path))],
        ids=["read_trace", "build_store"],
    )
    def test_error_is_typed_with_path_and_line(
        self, tmp_path, session_lines, read, damaged_line, newline
    ):
        if damaged_line < 0:
            damaged_line += len(session_lines) + 1
        path = self.write(
            tmp_path / "bad.lila", session_lines, damaged_line, newline
        )
        with pytest.raises(TraceFormatError) as info:
            read(path)
        assert info.value.path == path
        assert info.value.line == damaged_line
        assert str(info.value) == (
            f"line {damaged_line}: byte 0xff is not UTF-8 (invalid start byte)"
        )

    @pytest.mark.parametrize("workers", (1, 2))
    def test_load_fails_typed_with_the_bad_path(
        self, tmp_path, session_lines, workers
    ):
        good = tmp_path / "good.lila"
        good.write_text("\n".join(session_lines) + "\n", encoding="utf-8")
        bad = self.write(tmp_path / "bad.lila", session_lines, 41)
        with pytest.raises(TraceFormatError, match="line 41: byte 0xff") as info:
            LagAlyzer.load([bad, good], workers=workers)
        assert Path(info.value.path) == bad
        assert info.value.line == 41


class TestDamageOutsideTheColumns:
    """A session that ends before it starts and a timestamp past the
    64-bit columns are typed damage, so a quarantining load sets the
    trace aside instead of dying on it."""

    GOLDEN = Path(__file__).parent / "golden" / "CrosswordSage-session-0.lila"

    @staticmethod
    def damaged(lines, damage):
        lines = list(lines)
        if damage == "end-before-start":
            index = next(
                i for i, line in enumerate(lines) if line.startswith("M end_ns ")
            )
            lines[index] = "M end_ns -5"
        else:
            index = next(
                i for i, line in enumerate(lines) if line.startswith("O ")
            )
            parts = lines[index].split(" ")
            parts[1] = str(2**63 + 5)
            lines[index] = " ".join(parts)
        return lines, index + 1

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize(
        "damage", ["end-before-start", "timestamp-beyond-int64"]
    )
    def test_load_quarantines_the_damaged_trace(self, tmp_path, damage, workers):
        lines = self.GOLDEN.read_text(encoding="utf-8").splitlines()
        bad_lines, bad_line = self.damaged(lines, damage)
        bad = tmp_path / "bad.lila"
        bad.write_text("\n".join(bad_lines) + "\n", encoding="utf-8")
        good = tmp_path / "good.lila"
        good.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError) as info:
            read_trace(bad)
        assert info.value.path == bad
        if damage == "timestamp-beyond-int64":
            assert info.value.line == bad_line
        engine = AnalysisEngine(workers=workers, use_cache=False)
        traces = engine.load_traces([bad, good], on_error="quarantine")
        assert [trace.metadata.session_id for trace in traces] == ["session-0"]
        assert [entry.session_id for entry in engine.quarantined] == ["bad.lila"]
        assert "TraceFormatError" in engine.quarantined[0].error


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------


class TestBuildStore:
    def test_text_sources_never_read_the_record_stream(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "t.lila"
        path.write_text(TINY, encoding="utf-8")
        expected = build_store(LinesTraceSource(tiny_lines())).canonical_lines()

        def refuse(self):
            raise AssertionError("build_store read the record stream")

        for cls in (TraceSource, TextTraceSource, LinesTraceSource):
            monkeypatch.setattr(cls, "records", refuse)
        for source in (TextTraceSource(path), LinesTraceSource(tiny_lines())):
            assert build_store(source).canonical_lines() == expected
            assert source.line == len(tiny_lines())

    def test_build_trace_returns_lazy_facade(self):
        trace = build_trace(LinesTraceSource(tiny_lines()))
        assert trace.is_materialized is False
        assert trace.metadata.application == "App"
        assert trace.short_episode_count == 2

    def test_obs_metrics_record_stream_and_store_size(self):
        observer = Observer()
        with obs_runtime.installed(observer):
            store = build_store(LinesTraceSource(tiny_lines()))
        registry = observer.metrics
        assert registry.counter_value("lila.records_streamed") == 15
        assert registry.gauge("store.bytes").value == store.nbytes
        assert store.nbytes > 0
