"""One streaming ingestion abstraction over the text trace encoding.

A :class:`TraceSource` turns a trace — a text file or an in-memory
iterable of format lines — into a single validated stream of records
(the ``REC_*`` vocabulary of :mod:`repro.core.store`). Record syntax is
checked as each record is produced, so damage surfaces while streaming
with its position attached: every source stamps the 1-based line
number, and file sources the path, onto every
:class:`~repro.core.errors.TraceFormatError`. The `.lilac` column file
is a source too, but one that *is* a store: it has no record stream,
and :func:`build_store` adopts its store as-is.

:func:`build_trace` is the one ingestion driver: it feeds any source
into a :class:`~repro.core.store.ColumnarBuilder` and returns a
:class:`~repro.core.store.FacadeTrace` — the classic ``Trace`` API over
a columnar store, built in one pass without materializing an object per
interval. The legacy entry points (``read_trace``, ``read_trace_lines``,
``load_trace``) are thin wrappers over this module and raise exactly
the errors they always did.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.core.errors import LagAlyzerError, TraceFormatError
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
    ColumnarBuilder,
    ColumnarTrace,
    FacadeTrace,
)
from repro.faults import runtime as faults_runtime
from repro.lila.format import decode_stack, parse_header


class TraceSource:
    """A one-pass, validated record stream over one trace.

    Attributes:
        path: the backing file, or None for in-memory input.
        encoding: ``"text"``, ``"lines"``, ``"push"``, or ``"columns"``.
        line: 1-based line number of the record last produced.
    """

    encoding = "unknown"
    path: Optional[Path] = None
    line: Optional[int] = None

    def records(self) -> Iterator[tuple]:
        """Yield validated ``REC_*`` records in stream order."""
        raise NotImplementedError

    def open_store(self) -> Optional[ColumnarTrace]:
        """A ready-made store, bypassing the record stream, or ``None``.

        Sources whose on-disk layout *is* the columnar store (the
        `.lilac` column file) override this;
        :func:`build_store` then adopts the store directly instead of
        building one record by record.
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


def _parse_ns(token: str, line_no: int, path: Optional[Path]) -> int:
    try:
        return int(token)
    except ValueError:
        raise TraceFormatError(
            f"line {line_no}: bad timestamp {token!r}",
            path=path,
            line=line_no,
        ) from None


#: Successful kind/state token lookups, memoized process-wide: the
#: token vocabulary is tiny and hot (one lookup per O and per t record).
_KINDS_BY_TOKEN: Dict[str, IntervalKind] = {}
_STATES_BY_TOKEN: Dict[str, ThreadState] = {}


class _ParseState:
    """Cross-line parser state shared by pull and push text parsing."""

    __slots__ = ("in_tick",)

    def __init__(self) -> None:
        self.in_tick = False


def _parse_body_line(
    source: "TraceSource", line_no: int, line: str, state: _ParseState
) -> Optional[tuple]:
    """Parse one non-header format line into a validated record.

    Returns ``None`` for blank/comment lines; raises line-stamped
    :class:`TraceFormatError` for any damage — exactly the classic text
    reader's contract, shared by the streaming sources and the push-mode
    :class:`RecordFeed` the ingest daemon drives.
    """
    if not line or line.startswith("#"):
        return None
    path = source.path
    stack_cache = source._stack_cache
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


class RecordFeed(TraceSource):
    """Push-mode text-format parser: feed lines, receive records.

    The pull sources above wrap an iterable that must be complete before
    parsing starts; the ingest daemon instead receives lines a batch at
    a time from a live client and needs records *as they arrive*.
    :meth:`feed` accepts one format line (the first must be the header)
    and returns the validated record it encodes, or ``None`` for the
    header and for blank/comment lines. Validation, error messages, and
    line stamping are identical to :class:`TextTraceSource` — both run
    :func:`_parse_body_line`.
    """

    encoding = "push"

    def __init__(self, label: Optional[str] = None) -> None:
        self.path = None
        self.line = None
        self._label = label
        self._stack_cache: dict = {}
        self._state = _ParseState()
        self._line_no = 0

    def label(self) -> str:
        return self._label if self._label is not None else "<push>"

    def feed(self, raw: str) -> Optional[tuple]:
        """Parse the next format line; return its record (or ``None``)."""
        self._line_no += 1
        line_no = self._line_no
        self.line = line_no
        line = raw.rstrip("\n")
        if line_no == 1:
            try:
                parse_header(line)
            except TraceFormatError as error:
                raise self.annotate(error)
            return None
        return _parse_body_line(self, line_no, line, self._state)


class TextTraceSource(TraceSource):
    """Record stream over a text-format (``.lila``) trace file.

    With ``faults=True`` the ``lila.read`` fault-injection site is armed
    exactly as the classic reader armed it: a pre-read check plus the
    line filter, so injected damage surfaces as line-stamped
    :class:`TraceFormatError` from this source's validation.
    """

    encoding = "text"

    def __init__(self, path: Union[str, Path], faults: bool = False) -> None:
        self.path = Path(path)
        self.line = None
        self._faults = faults
        self._stack_cache: dict = {}

    def records(self) -> Iterator[tuple]:
        if self._faults:
            faults_runtime.check("lila.read", key=self.path.name)
        with self.path.open("r", encoding="utf-8") as handle:
            lines: Iterable[str] = handle
            if self._faults:
                lines = faults_runtime.filter_lines(
                    "lila.read", self.path.name, handle
                )
            yield from _text_records(self, lines)


class LinesTraceSource(TraceSource):
    """Record stream over an in-memory iterable of format lines."""

    encoding = "lines"

    def __init__(self, lines: Iterable[str]) -> None:
        self.path = None
        self.line = None
        self._lines = lines
        self._stack_cache: dict = {}

    def records(self) -> Iterator[tuple]:
        return _text_records(self, self._lines)


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
    """Stream ``source`` into a sealed :class:`ColumnarTrace`.

    This is the single ingestion driver behind every reader. Error
    contract (identical to the pre-columnar readers, message for
    message):

    - record-level damage raises :class:`TraceFormatError` stamped with
      the source's position;
    - nesting violations raised mid-stream are re-typed as
      line-prefixed ``TraceFormatError``, and end-of-stream violations
      (unclosed intervals, bad bounds) as unprefixed
      ``TraceFormatError``.

    Sources that *are* a serialized store (`.lilac`) short-circuit:
    their :meth:`TraceSource.open_store` result is adopted as-is, with
    no records streamed and no columns copied.
    """
    direct = source.open_store()
    if direct is not None:
        from repro.obs import runtime as obs_runtime

        if obs_runtime.current() is not None:
            obs_runtime.set_gauge("store.bytes", direct.nbytes)
        return direct
    builder = ColumnarBuilder()
    feed = builder.feed
    for record in source.records():
        try:
            feed(record)
        except TraceFormatError as error:
            raise source.annotate(error)
        except LagAlyzerError as error:
            # Nesting violations from the columnar builder carry no
            # position; re-typing them here pins the damage to a line.
            raise TraceFormatError(
                f"line {source.line}: {error}",
                path=source.path,
                line=source.line,
            ) from None
    builder.flush_samples()

    try:
        builder.check_required_meta()
        metadata = builder.build_metadata()
    except TraceFormatError as error:
        raise source.annotate(error)
    try:
        store = builder.finish(metadata)
    except TraceFormatError as error:
        raise source.annotate(error)
    except LagAlyzerError as error:
        # Intervals left open by a truncated file (or an impossible
        # structure) surface at finish time; same contract: damage
        # always raises the typed parse error.
        raise TraceFormatError(str(error), path=source.path) from None

    from repro.obs import runtime as obs_runtime

    if obs_runtime.current() is not None:
        obs_runtime.count("lila.records_streamed", builder.record_count)
        obs_runtime.set_gauge("store.bytes", store.nbytes)
    return store


def build_trace(source: TraceSource) -> FacadeTrace:
    """Stream ``source`` into a columnar-backed :class:`FacadeTrace`."""
    return FacadeTrace(build_store(source))
