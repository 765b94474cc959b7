"""Text traces into columns: the trace sources and the line kernel.

A :class:`TraceSource` names one trace — a text file, an in-memory
iterable of format lines, or a `.lilac` column file — and
:func:`build_store` turns it into a sealed
:class:`~repro.core.store.ColumnarTrace`; :func:`build_trace` wraps
that in a :class:`~repro.core.store.FacadeTrace`, the classic ``Trace``
API over the columns, built without materializing an object per
interval.

Text is parsed by one line kernel, :class:`TextParser`, which writes
each line straight into a :class:`~repro.core.store.ColumnarBuilder`'s
columns. The same kernel reads a whole file, a list of lines, and —
one pushed batch at a time — a growing session spool
(:class:`~repro.ingest.incremental.IncrementalSessionAnalyzer`, which
``lagalyzer ingest tail`` runs).
Record syntax is checked as each line is read, so damage surfaces with
its position attached: every
:class:`~repro.core.errors.TraceFormatError` carries the 1-based line
number and, for files, the path. A `.lilac` column file *is* a store:
:func:`build_store` adopts it as-is.

:meth:`TraceSource.records` is the reference record stream: the same
lines as validated ``REC_*`` records (the vocabulary of
:mod:`repro.core.store`), for :meth:`ColumnarBuilder.feed` to fold. No
production path reads it; tests hold the kernel to it. The legacy entry
points (``read_trace``, ``read_trace_lines``, ``load_trace``) are thin
wrappers over this module and raise exactly the errors they always did.
"""

from __future__ import annotations

import re
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import (
    ContextManager, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.core.errors import LagAlyzerError, TraceFormatError
from repro.core.intervals import IntervalKind
from repro.core.samples import StackTrace, ThreadState
from repro.core.store import (
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
    ColumnarBuilder,
    ColumnarTrace,
    FacadeTrace,
)
from repro.core.store.columns import _GC_CODE, _KIND_CODES, _STATE_CODES
from repro.faults import runtime as faults_runtime
from repro.lila.format import decode_stack, parse_header


class TraceSource:
    """One trace to ingest, with the position of the line last read.

    Attributes:
        path: the backing file, or None for in-memory input.
        encoding: ``"text"``, ``"lines"``, or ``"columns"``.
        line: 1-based number of the line last read.
    """

    encoding = "unknown"
    path: Optional[Path] = None
    line: Optional[int] = None

    def open_lines(self) -> ContextManager[Iterable[str]]:
        """The trace's text-format lines, for the span of a ``with``."""
        raise NotImplementedError

    def records(self) -> Iterator[tuple]:
        """Yield validated ``REC_*`` records in stream order.

        The reference record stream: :func:`build_store` parses with
        :class:`TextParser` instead, and tests hold the two to the same
        stores and the same errors.
        """
        with self.open_lines() as lines:
            yield from _text_records(self, lines)

    def open_store(self) -> Optional[ColumnarTrace]:
        """A ready-made store, bypassing the text parse, or ``None``.

        Sources whose on-disk layout *is* the columnar store (the
        `.lilac` column file) override this;
        :func:`build_store` then adopts the store directly instead of
        building one line by line.
        """
        return None

    def annotate(self, error: TraceFormatError) -> TraceFormatError:
        """Stamp this source's position onto ``error`` (idempotent)."""
        if error.path is None:
            error.path = self.path
        if error.line is None and error.offset is None:
            error.line = self.line
        return error

    def label(self) -> str:
        """Short human-readable identity for logs and quarantine."""
        return self.path.name if self.path is not None else f"<{self.encoding}>"


#: The timestamps a column holds: signed 64-bit nanoseconds.
_NS_MIN, _NS_MAX = -(2**63), 2**63 - 1


def _parse_ns(token: str, line_no: int, path: Optional[Path]) -> int:
    try:
        ns = int(token)
    except ValueError:
        raise TraceFormatError(
            f"line {line_no}: bad timestamp {token!r}",
            path=path,
            line=line_no,
        ) from None
    if not _NS_MIN <= ns <= _NS_MAX:
        raise TraceFormatError(
            f"line {line_no}: timestamp {token!r} is outside the signed"
            f" 64-bit range",
            path=path,
            line=line_no,
        )
    return ns


#: Successful kind/state token lookups, memoized process-wide: the
#: token vocabulary is tiny and hot (one lookup per O and per t record).
_KINDS_BY_TOKEN: Dict[str, IntervalKind] = {}
_STATES_BY_TOKEN: Dict[str, ThreadState] = {}


class _ParseState:
    """Cross-line state of one text parse."""

    __slots__ = ("in_tick", "stacks")

    def __init__(self) -> None:
        self.in_tick = False
        #: Decoded stacks by their text token.
        self.stacks: Dict[str, StackTrace] = {}


def _parse_body_line(
    source: "TraceSource", line_no: int, line: str, state: _ParseState
) -> Optional[tuple]:
    """Parse one non-header format line into a validated record.

    Returns ``None`` for blank/comment lines; raises line-stamped
    :class:`TraceFormatError` for any damage — exactly the classic text
    reader's contract, shared by the reference record stream and the
    lines :class:`TextParser` leaves off its fast path.
    """
    if not line or line.startswith("#"):
        return None
    path = source.path
    stack_cache = state.stacks
    in_tick = state.in_tick
    record, _, rest = line.partition(" ")
    if record == "t":
        if not in_tick:
            raise TraceFormatError(
                f"line {line_no}: t record outside a tick",
                path=path,
                line=line_no,
            )
        parts = rest.split(" ", 2)
        if len(parts) != 3:
            raise TraceFormatError(
                f"line {line_no}: malformed t record",
                path=path,
                line=line_no,
            )
        thread_state = _STATES_BY_TOKEN.get(parts[1])
        if thread_state is None:
            try:
                thread_state = ThreadState.from_name(parts[1])
            except ValueError as error:
                raise TraceFormatError(
                    f"line {line_no}: {error}", path=path, line=line_no
                ) from None
            _STATES_BY_TOKEN[parts[1]] = thread_state
        token = parts[2]
        stack = stack_cache.get(token)
        if stack is None:
            try:
                stack = decode_stack(token)
            except TraceFormatError as error:
                raise source.annotate(error)
            stack_cache[token] = stack
        return (REC_ENTRY, parts[0], thread_state, stack)
    elif record == "O":
        parts = rest.split(" ", 2)
        if len(parts) != 3:
            raise TraceFormatError(
                f"line {line_no}: malformed O record",
                path=path,
                line=line_no,
            )
        start_ns = _parse_ns(parts[0], line_no, path)
        kind = _KINDS_BY_TOKEN.get(parts[1])
        if kind is None:
            try:
                kind = IntervalKind.from_name(parts[1])
            except ValueError as error:
                raise TraceFormatError(
                    f"line {line_no}: {error}", path=path, line=line_no
                ) from None
            _KINDS_BY_TOKEN[parts[1]] = kind
        return (REC_OPEN, start_ns, kind, parts[2])
    elif record == "C":
        return (REC_CLOSE, _parse_ns(rest, line_no, path))
    elif record == "P":
        state.in_tick = True
        return (REC_TICK, _parse_ns(rest, line_no, path))
    elif record == "G":
        parts = rest.split(" ", 2)
        if len(parts) != 3:
            raise TraceFormatError(
                f"line {line_no}: malformed G record",
                path=path,
                line=line_no,
            )
        return (
            REC_GC,
            _parse_ns(parts[0], line_no, path),
            _parse_ns(parts[1], line_no, path),
            parts[2],
        )
    elif record == "T":
        thread = rest.strip()
        if not thread:
            raise TraceFormatError(
                f"line {line_no}: empty thread name",
                path=path,
                line=line_no,
            )
        state.in_tick = False
        return (REC_THREAD, thread)
    elif record == "M":
        key, _, value = rest.partition(" ")
        if not key or not value:
            raise TraceFormatError(
                f"line {line_no}: malformed M record",
                path=path,
                line=line_no,
            )
        if key.startswith("x."):
            return (REC_META, key[2:], value, True)
        return (REC_META, key, value, False)
    elif record == "F":
        try:
            count = int(rest)
        except ValueError:
            raise TraceFormatError(
                f"line {line_no}: bad filtered-episode count {rest!r}",
                path=path,
                line=line_no,
            ) from None
        return (REC_FILTERED, count)
    raise TraceFormatError(
        f"line {line_no}: unknown record type {record!r}",
        path=path,
        line=line_no,
    )


def _text_records(
    source: "TraceSource", lines: Iterable[str]
) -> Iterator[tuple]:
    """The shared text-format record generator (strict, line-stamped)."""
    iterator = iter(lines)
    try:
        first = next(iterator)
    except StopIteration:
        raise TraceFormatError("empty trace input", path=source.path) from None
    source.line = 1
    try:
        parse_header(first.rstrip("\n"))
    except TraceFormatError as error:
        raise source.annotate(error)

    state = _ParseState()
    for line_no, raw in enumerate(iterator, start=2):
        source.line = line_no
        record = _parse_body_line(source, line_no, raw.rstrip("\n"), state)
        if record is not None:
            yield record


class TextParser:
    """The line kernel: text-format lines straight into a builder's columns.

    One parser reads one trace. It keeps its state across
    :meth:`feed_lines` calls — the line number, the header check, the
    open sampling tick — so it parses a whole file in one call or a
    live session one pushed batch at a time.

    The records that make up nearly every trace (``t``, ``O``, ``C``,
    ``P`` and ``G``) take a fast path: the line is split once, its
    tokens are resolved through per-parser caches keyed by the raw
    token (stack token to stack id, state token to state code, kind
    token to kind code, symbol token to string id), and the builder's
    own interval and tick methods apply it, so nesting keeps one
    implementation. A trace repeats few distinct ``t`` lines, so the
    fast path also keeps each ``t`` line's resolved entry keyed by the
    raw line; inside a tick, a line found there is appended as that
    entry, unsplit. Outside a tick the map is not consulted, so a
    stray ``t`` line still fails as below. Every other line — ``T``,
    ``M`` and ``F`` records, blank and comment lines, unknown tags, and
    any line the fast path rejects (a wrong field count, a bad integer,
    a timestamp outside the signed 64 bits a column holds, a token not
    seen yet, a ``t`` outside a tick) — goes through
    :func:`_parse_body_line` and :meth:`ColumnarBuilder.feed`, the
    reference stream's own code, which then teaches the caches the
    tokens it resolved. A line is tokenized in full before the builder
    sees it, so no record is applied twice.
    """

    def __init__(self, builder: ColumnarBuilder, source: TraceSource) -> None:
        self.builder = builder
        self.source = source
        #: Lines read so far, the header included.
        self.line_no = 0
        self._state = _ParseState()
        self._stack_ids: Dict[str, int] = {}
        self._state_codes: Dict[str, int] = {}
        self._kind_codes: Dict[str, int] = {}
        self._symbol_ids: Dict[str, int] = {}
        #: Resolved sample entries by raw ``t`` line, filled by the fast path.
        self._t_entries: Dict[str, Tuple[int, int, int]] = {}

    def feed_lines(self, lines: Iterable[str]) -> None:
        """Parse ``lines`` into the builder, continuing the trace so far.

        Raises:
            TraceFormatError: for any damage, stamped with the source's
                path and the line it hit; a nesting violation is re-typed
                with a ``line N:`` prefix.
        """
        source = self.source
        iterator = iter(lines)
        if self.line_no == 0:
            for first in iterator:
                self.line_no = source.line = 1
                try:
                    parse_header(first.rstrip("\n"))
                except TraceFormatError as error:
                    raise source.annotate(error)
                break
            else:
                return
        builder = self.builder
        state = self._state
        open_interval = builder._open_interval
        close_interval = builder._close_interval
        new_tick = builder._new_tick
        intern = builder._intern
        string_ids = builder._strings_map
        stack_ids = self._stack_ids
        state_codes = self._state_codes
        kind_codes = self._kind_codes
        symbol_ids = self._symbol_ids
        t_entries = self._t_entries
        entries = builder._pending_entries
        ns_min, ns_max = _NS_MIN, _NS_MAX
        in_tick = state.in_tick
        line_no = self.line_no
        records = 0
        try:
            for raw in iterator:
                line_no += 1
                if in_tick:
                    entry = t_entries.get(raw)
                    if entry is not None:
                        records += 1
                        entries.append(entry)
                        continue
                # The last field keeps the line's newline: caches are
                # keyed by the raw token, and ``int`` ignores it.
                parts = raw.split(" ")
                tag = parts[0]
                try:
                    if tag == "t":
                        if in_tick and len(parts) == 4:
                            code = state_codes.get(parts[2])
                            stack = stack_ids.get(parts[3])
                            if code is not None and stack is not None:
                                thread = string_ids.get(parts[1])
                                if thread is None:
                                    thread = intern(parts[1])
                                entry = t_entries[raw] = (thread, code, stack)
                                records += 1
                                entries.append(entry)
                                continue
                    elif tag == "O":
                        if len(parts) == 4:
                            code = kind_codes.get(parts[2])
                            if code is not None:
                                try:
                                    start = int(parts[1])
                                except ValueError:
                                    pass
                                else:
                                    if ns_min <= start <= ns_max:
                                        token = parts[3]
                                        symbol = symbol_ids.get(token)
                                        if symbol is None:
                                            symbol = intern(token.rstrip("\n"))
                                            symbol_ids[token] = symbol
                                        records += 1
                                        open_interval(code, symbol, start)
                                        continue
                    elif tag == "C":
                        if len(parts) == 2:
                            try:
                                end = int(parts[1])
                            except ValueError:
                                pass
                            else:
                                if ns_min <= end <= ns_max:
                                    records += 1
                                    close_interval(end)
                                    continue
                    elif tag == "P":
                        if len(parts) == 2:
                            try:
                                tick = int(parts[1])
                            except ValueError:
                                pass
                            else:
                                if ns_min <= tick <= ns_max:
                                    records += 1
                                    entries = new_tick(tick)
                                    in_tick = state.in_tick = True
                                    continue
                    elif tag == "G":
                        if len(parts) == 4:
                            try:
                                start = int(parts[1])
                                end = int(parts[2])
                            except ValueError:
                                pass
                            else:
                                if (
                                    ns_min <= start <= ns_max
                                    and ns_min <= end <= ns_max
                                ):
                                    token = parts[3]
                                    symbol = symbol_ids.get(token)
                                    if symbol is None:
                                        symbol = intern(token.rstrip("\n"))
                                        symbol_ids[token] = symbol
                                    records += 1
                                    open_interval(_GC_CODE, symbol, start)
                                    close_interval(end)
                                    continue
                    # A rare record or a rejected line: the reference path.
                    source.line = line_no
                    record = _parse_body_line(
                        source, line_no, raw.rstrip("\n"), state
                    )
                    in_tick = state.in_tick
                    if record is not None:
                        builder.feed(record)
                        entries = builder._pending_entries
                        self._learn(parts, record)
                except TraceFormatError as error:
                    source.line = line_no
                    raise source.annotate(error)
                except LagAlyzerError as error:
                    # Nesting violations from the builder carry no
                    # position; re-typing them here pins the damage to a
                    # line.
                    raise TraceFormatError(
                        f"line {line_no}: {error}",
                        path=source.path,
                        line=line_no,
                    ) from None
        finally:
            self.line_no = source.line = line_no
            builder.record_count += records

    def _learn(self, parts: List[str], record: tuple) -> None:
        """Cache the tokens of a ``t`` or ``O`` record the reference
        path resolved, so the same tokens take the fast path next."""
        if len(parts) != 4:
            return
        tag = record[0]
        if tag == REC_ENTRY:
            self._state_codes[parts[2]] = _STATE_CODES[record[2]]
            self._stack_ids[parts[3]] = self.builder.stack_interns.ids[
                record[3]
            ]
        elif tag == REC_OPEN:
            self._kind_codes[parts[2]] = _KIND_CODES[record[2]]

    def finish(self) -> ColumnarTrace:
        """Seal the store once every line is in.

        Raises:
            TraceFormatError: no line at all, missing or bad metadata,
                intervals left open, or episodes outside the session
                bounds, stamped with the source's path.
        """
        source = self.source
        builder = self.builder
        if self.line_no == 0:
            raise TraceFormatError("empty trace input", path=source.path)
        builder.flush_samples()
        try:
            builder.check_required_meta()
            metadata = builder.build_metadata()
        except TraceFormatError as error:
            raise source.annotate(error)
        try:
            return builder.finish(metadata)
        except TraceFormatError as error:
            raise source.annotate(error)
        except LagAlyzerError as error:
            # Intervals left open by a truncated file (or an impossible
            # structure) surface at finish time; same contract: damage
            # always raises the typed parse error.
            raise TraceFormatError(str(error), path=source.path) from None


#: Universal-newline line ends, as text-mode reading splits lines.
_LINE_ENDS = re.compile("\r\n|\r|\n")


class TextTraceSource(TraceSource):
    """A text-format (``.lila``) trace file.

    With ``faults=True`` the ``lila.read`` fault-injection site is armed
    exactly as the classic reader armed it: a pre-read check plus the
    line filter, so injected damage surfaces as line-stamped
    :class:`TraceFormatError` from the parse.
    """

    encoding = "text"

    def __init__(self, path: Union[str, Path], faults: bool = False) -> None:
        self.path = Path(path)
        self.line = None
        self._faults = faults

    @contextmanager
    def open_lines(self) -> Iterator[Iterable[str]]:
        """The file's lines; a byte that is not UTF-8 raises typed."""
        if self._faults:
            faults_runtime.check("lila.read", key=self.path.name)
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                lines: Iterable[str] = handle
                if self._faults:
                    lines = faults_runtime.filter_lines(
                        "lila.read", self.path.name, handle
                    )
                yield lines
        except UnicodeDecodeError as error:
            raise self._undecodable(error) from None

    def _undecodable(self, error: UnicodeDecodeError) -> TraceFormatError:
        """The typed error for a byte that is not UTF-8.

        The decoder reads ahead of the parse, so the line is found by
        rescanning the file's bytes: this runs only on the error path.
        """
        data = self.path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as found:
            line = len(_LINE_ENDS.findall(data[:found.start].decode("utf-8")))
            return TraceFormatError(
                f"line {line + 1}: byte 0x{data[found.start]:02x} is not "
                f"UTF-8 ({found.reason})",
                path=self.path,
                line=line + 1,
            )
        # The file no longer holds the bad byte the read hit.
        return TraceFormatError(f"not UTF-8 text: {error}", path=self.path)


class LinesTraceSource(TraceSource):
    """An in-memory iterable of format lines."""

    encoding = "lines"

    def __init__(self, lines: Iterable[str]) -> None:
        self.path = None
        self.line = None
        self._lines = lines

    def open_lines(self) -> ContextManager[Iterable[str]]:
        return nullcontext(self._lines)


def open_source(
    path: Union[str, Path], faults: bool = False
) -> TraceSource:
    """A :class:`TraceSource` over ``path``, encoding autodetected.

    Raises:
        TraceFormatError: when no encoding's magic matches, or the file
            uses an encoding this version no longer reads.
    """
    from repro.lila.autodetect import detect_format

    path = Path(path)
    if detect_format(path) == "lilac":
        from repro.lila.colfile import ColumnTraceSource

        return ColumnTraceSource(path)
    return TextTraceSource(path, faults=faults)


def build_store(source: TraceSource) -> ColumnarTrace:
    """Parse ``source`` into a sealed :class:`ColumnarTrace`.

    This is the single ingestion driver behind every reader: it runs
    :class:`TextParser` over the source's lines. Error contract
    (identical to the pre-columnar readers, message for message):

    - record-level damage raises :class:`TraceFormatError` stamped with
      the source's position;
    - nesting violations raised mid-stream are re-typed as
      line-prefixed ``TraceFormatError``, and end-of-stream violations
      (unclosed intervals, bad bounds) as unprefixed
      ``TraceFormatError``.

    Sources that *are* a serialized store (`.lilac`) short-circuit:
    their :meth:`TraceSource.open_store` result is adopted as-is, with
    no line parsed and no columns copied.
    """
    from repro.obs import runtime as obs_runtime

    direct = source.open_store()
    if direct is not None:
        if obs_runtime.current() is not None:
            obs_runtime.set_gauge("store.bytes", direct.nbytes)
        return direct
    parser = TextParser(ColumnarBuilder(), source)
    with source.open_lines() as lines:
        parser.feed_lines(lines)
    store = parser.finish()
    if obs_runtime.current() is not None:
        obs_runtime.count("lila.records_streamed", parser.builder.record_count)
        obs_runtime.set_gauge("store.bytes", store.nbytes)
    return store


def build_trace(source: TraceSource) -> FacadeTrace:
    """Parse ``source`` into a columnar-backed :class:`FacadeTrace`."""
    return FacadeTrace(build_store(source))
