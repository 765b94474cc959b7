"""Streaming construction of the columnar store.

:class:`ColumnarBuilder` accumulates a trace into the columns of a
:class:`~repro.core.store.columns.ColumnarTrace`, enforcing the
proper-nesting invariant as intervals open and close. Text traces reach
it through the line kernel :class:`~repro.lila.source.TextParser`,
which applies the hot records straight through the interval and tick
methods here (:meth:`ColumnarBuilder._open_interval`,
:meth:`ColumnarBuilder._close_interval`, :meth:`ColumnarBuilder._new_tick`)
and hands every other record to :meth:`ColumnarBuilder.feed`, the
intake of the ``REC_*`` record vocabulary; :func:`columnarize` drives
``feed`` from an already-materialized object-model :class:`Trace`.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import AnalysisError, NestingError, TraceFormatError
from repro.core.intervals import Interval
from repro.core.samples import StackTrace
from repro.core.store.buffers import InternTable
from repro.core.store.columns import (
    ColumnarTrace,
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
    _GC_CODE,
    _KIND_CODES,
    _KIND_VALUES,
    _REQUIRED_META,
    _RUNNABLE_CODE,
    _STATE_CODES,
    _ThreadColumns,
)
from repro.core.trace import Trace, TraceMetadata


class ColumnarBuilder:
    """Accumulates one trace into the columns of a :class:`ColumnarTrace`.

    The builder enforces the proper-nesting invariant while streaming,
    with exactly the error messages of
    :class:`~repro.core.intervals.IntervalTreeBuilder` (nesting damage)
    and the classic reader (structural damage), so swapping it in is
    invisible to everything that matches on messages.
    """

    def __init__(
        self,
        interns: Optional[InternTable] = None,
        stack_interns: Optional[InternTable] = None,
    ) -> None:
        self.meta: Dict[str, Any] = {}
        self.extra: Dict[str, Any] = {}
        self.short_count = 0
        self.record_count = 0
        # One table may be shared across the builders of a whole study
        # (ids are internal, so sharing never changes serialization).
        self.interns = interns if interns is not None else InternTable()
        self._strings: List[str] = self.interns.strings
        self._strings_map: Dict[str, int] = self.interns.ids
        #: Each thread's columns so far, in first-appearance order; its
        #: ``root_rows`` gains each root as the root closes.
        self.threads: List[_ThreadColumns] = []
        self._thread_map: Dict[str, int] = {}
        # Per thread: a stack of [row, kind code, symbol id, start_ns,
        # children_end] frames for the currently open intervals.
        self._open: List[List[list]] = []
        self._last_root_end: List[Optional[int]] = []
        self._current: Optional[int] = None
        # Bound per REC_THREAD so the per-interval hot path does no
        # list indexing: the current thread's columns and open frames.
        self._cur_columns: Optional[_ThreadColumns] = None
        self._cur_frames: Optional[List[list]] = None
        self._ticks: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        self._pending_tick: Optional[int] = None
        self._pending_entries: List[Tuple[int, int, int]] = []
        self.stack_interns = (
            stack_interns if stack_interns is not None else InternTable()
        )
        self._stacks: List[StackTrace] = self.stack_interns.strings
        self._stacks_map: Dict[StackTrace, int] = self.stack_interns.ids

    # -- interning -----------------------------------------------------

    def _intern(self, text: str) -> int:
        index = self._strings_map.get(text)
        if index is None:
            index = len(self._strings)
            self._strings_map[text] = index
            self._strings.append(text)
        return index

    def _intern_stack(self, stack: StackTrace) -> int:
        index = self._stacks_map.get(stack)
        if index is None:
            index = len(self._stacks)
            self._stacks_map[stack] = index
            self._stacks.append(stack)
        return index

    # -- record intake -------------------------------------------------

    def feed(self, record: tuple) -> None:
        """Apply one source record to the store under construction."""
        self.record_count += 1
        tag = record[0]
        if tag == REC_OPEN:
            _, start_ns, kind, symbol = record
            self._open_interval(
                _KIND_CODES[kind], self._intern(symbol), start_ns
            )
        elif tag == REC_CLOSE:
            self._close_interval(record[1])
        elif tag == REC_GC:
            _, start_ns, end_ns, symbol = record
            self._open_interval(_GC_CODE, self._intern(symbol), start_ns)
            self._close_interval(end_ns)
        elif tag == REC_ENTRY:
            if self._pending_tick is None:
                raise TraceFormatError("t record outside a tick")
            _, thread_name, state, stack = record
            self._pending_entries.append(
                (
                    self._intern(thread_name),
                    _STATE_CODES[state],
                    self._intern_stack(stack),
                )
            )
        elif tag == REC_TICK:
            self._new_tick(record[1])
        elif tag == REC_THREAD:
            self.flush_samples()
            name = record[1]
            index = self._thread_map.get(name)
            if index is None:
                index = len(self.threads)
                self._thread_map[name] = index
                self.threads.append(_ThreadColumns(name))
                self._open.append([])
                self._last_root_end.append(None)
                self._intern(name)
            self._current = index
            self._cur_columns = self.threads[index]
            self._cur_frames = self._open[index]
        elif tag == REC_META:
            _, key, value, is_extra = record
            if is_extra:
                self.extra[key] = value
            else:
                self.meta[key] = value
        elif tag == REC_FILTERED:
            self.short_count = record[1]
        else:
            raise TraceFormatError(f"unknown source record tag {tag!r}")

    def _open_interval(self, code: int, symbol: int, start_ns: int) -> None:
        """Open an interval of kind ``code`` and interned ``symbol``."""
        frames = self._cur_frames
        if frames is None:
            raise TraceFormatError("interval record before any T record")
        if frames:
            top = frames[-1]
            if start_ns < top[3]:
                raise NestingError(
                    f"interval {self._label(code, symbol)} starts at "
                    f"{start_ns}, before its enclosing interval ({top[3]})"
                )
            if top[4] is not None and start_ns < top[4]:
                raise NestingError(
                    f"interval {self._label(code, symbol)} starts at "
                    f"{start_ns}, inside the previous sibling"
                )
            parent_row = top[0]
        else:
            last_end = self._last_root_end[self._current]
            if last_end is not None and start_ns < last_end:
                raise NestingError(
                    f"root interval {self._label(code, symbol)} starts at "
                    f"{start_ns}, inside the previous root"
                )
            parent_row = -1
        columns = self._cur_columns
        row = len(columns.start)
        columns.start.append(start_ns)
        columns.end.append(0)
        columns.kind.append(code)
        columns.symbol.append(symbol)
        columns.parent.append(parent_row)
        columns.size.append(0)
        frames.append([row, code, symbol, start_ns, None])

    def _close_interval(self, end_ns: int) -> None:
        """Close the innermost open interval of the current thread."""
        frames = self._cur_frames
        if frames is None:
            raise TraceFormatError("interval record before any T record")
        if not frames:
            raise NestingError("close without a matching open")
        row, code, symbol, start_ns, children_end = frames.pop()
        if children_end is not None and end_ns < children_end:
            raise NestingError(
                f"interval {self._label(code, symbol)} closes at "
                f"{end_ns}, before its last child ends"
            )
        if end_ns < start_ns:
            raise NestingError(
                f"interval {self._label(code, symbol)} ends before it "
                f"starts ({end_ns} < {start_ns})"
            )
        columns = self._cur_columns
        columns.end[row] = end_ns
        columns.size[row] = len(columns.start) - row
        if frames:
            frames[-1][4] = end_ns
        else:
            self._last_root_end[self._current] = end_ns
            columns.root_rows.append(row)

    def _new_tick(self, ns: int) -> List[Tuple[int, int, int]]:
        """Seal the pending tick and open one at ``ns``.

        Returns the new tick's entry list, which stays the pending one
        until the next tick or thread record.
        """
        self.flush_samples()
        self._pending_tick = ns
        return self._pending_entries

    def _label(self, code: int, symbol: int) -> str:
        """``kind:symbol`` of an interval, as nesting errors name it."""
        return f"{_KIND_VALUES[code]}:{self._strings[symbol]}"

    # -- finishing -----------------------------------------------------

    def flush_samples(self) -> None:
        """Seal the pending sampling tick, if any."""
        if self._pending_tick is not None:
            self._ticks.append((self._pending_tick, self._pending_entries))
            self._pending_tick = None
            self._pending_entries = []

    def check_required_meta(self) -> None:
        """Raise for metadata the format requires but the stream lacked."""
        for key in _REQUIRED_META:
            if key not in self.meta:
                raise TraceFormatError(f"missing required metadata {key!r}")

    def build_metadata(self) -> TraceMetadata:
        """Construct the validated :class:`TraceMetadata`."""
        try:
            return TraceMetadata(
                application=self.meta["application"],
                session_id=self.meta["session_id"],
                start_ns=int(self.meta["start_ns"]),
                end_ns=int(self.meta["end_ns"]),
                gui_thread=self.meta["gui_thread"],
                sample_period_ns=int(
                    self.meta.get("sample_period_ns", 10_000_000)
                ),
                filter_ms=float(self.meta.get("filter_ms", 3.0)),
                extra=self.extra,
            )
        except ValueError as error:
            raise TraceFormatError(f"bad metadata value: {error}") from None
        except AnalysisError as error:
            raise TraceFormatError(f"bad metadata: {error}") from None

    def finish(self, metadata: TraceMetadata) -> ColumnarTrace:
        """Seal the store: closure, ordering, and bounds invariants.

        Raises:
            NestingError: intervals left open at end of stream.
            AnalysisError: episodes outside the session bounds.
        """
        for frames in self._open:
            if frames:
                open_names = ", ".join(
                    self._label(frame[1], frame[2]) for frame in frames
                )
                raise NestingError(
                    f"unclosed intervals at end of trace: {open_names}"
                )

        self._ticks.sort(key=lambda tick: tick[0])
        sample_ts = array("q")
        sample_offsets = array("i", [0])
        entry_thread = array("i")
        entry_state = array("b")
        entry_stack = array("i")
        sample_runnable = array("i")
        for ts, entries in self._ticks:
            sample_ts.append(ts)
            runnable = 0
            for thread_id, state_code, stack_id in entries:
                entry_thread.append(thread_id)
                entry_state.append(state_code)
                entry_stack.append(stack_id)
                if state_code == _RUNNABLE_CODE:
                    runnable += 1
            sample_runnable.append(runnable)
            sample_offsets.append(len(entry_thread))

        gui_index = self._thread_map.get(metadata.gui_thread)
        if gui_index is not None:
            from repro.core.family import family_of

            root_code = _KIND_CODES[family_of(metadata).root_kind]
            columns = self.threads[gui_index]
            episode_index = 0
            for row in columns.root_rows:
                if columns.kind[row] != root_code:
                    continue
                if columns.start[row] < metadata.start_ns or (
                    columns.end[row] > metadata.end_ns
                ):
                    raise AnalysisError(
                        f"episode #{episode_index} "
                        f"[{columns.start[row]}, {columns.end[row]}) lies "
                        f"outside the session bounds"
                    )
                episode_index += 1

        return ColumnarTrace(
            metadata=metadata,
            strings=self.interns,
            strings_map=None,
            threads=self.threads,
            thread_map=self._thread_map,
            sample_ts=sample_ts,
            sample_offsets=sample_offsets,
            entry_thread=entry_thread,
            entry_state=entry_state,
            entry_stack=entry_stack,
            sample_runnable=sample_runnable,
            stacks=self._stacks,
            short_episode_count=self.short_count,
        )


def columnarize(
    trace: Trace,
    interns: Optional[InternTable] = None,
    stack_interns: Optional[InternTable] = None,
) -> ColumnarTrace:
    """Columnarize an existing object-model trace.

    Threads keep the ``thread_roots`` iteration order and samples
    their sorted order, so ``to_trace`` round-trips and
    ``canonical_lines`` matches ``trace_to_lines(trace)`` exactly.
    ``interns``/``stack_interns`` let a study run share one string and
    one stack table across all of its traces (ids are internal, so
    sharing never changes what any store serializes to).
    """
    builder = ColumnarBuilder(interns=interns, stack_interns=stack_interns)
    meta = trace.metadata
    feed = builder.feed
    feed((REC_META, "application", meta.application, False))
    feed((REC_META, "session_id", meta.session_id, False))
    feed((REC_META, "start_ns", meta.start_ns, False))
    feed((REC_META, "end_ns", meta.end_ns, False))
    feed((REC_META, "gui_thread", meta.gui_thread, False))
    feed((REC_META, "sample_period_ns", meta.sample_period_ns, False))
    feed((REC_META, "filter_ms", meta.filter_ms, False))
    for key, value in meta.extra.items():
        feed((REC_META, key, value, True))
    feed((REC_FILTERED, trace.short_episode_count))

    def emit(interval: Interval) -> None:
        feed((REC_OPEN, interval.start_ns, interval.kind, interval.symbol))
        for child in interval.children:
            emit(child)
        feed((REC_CLOSE, interval.end_ns))

    for name, roots in trace.thread_roots.items():
        feed((REC_THREAD, name))
        for root in roots:
            emit(root)

    for sample in trace.samples:
        feed((REC_TICK, sample.timestamp_ns))
        for entry in sample.threads:
            feed((REC_ENTRY, entry.thread_name, entry.state, entry.stack))

    builder.flush_samples()
    builder.check_required_meta()
    return builder.finish(builder.build_metadata())
