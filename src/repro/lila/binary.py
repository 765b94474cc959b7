"""A compact binary trace encoding.

The paper's limitations section notes that LiLa "produces relatively
large traces for real-world sessions", which constrains session length.
This module provides a binary sibling of the text format that attacks
the dominant redundancy: symbols, stack frames, and whole call stacks
repeat constantly, so the encoding interns all three —

1. a **string table** (every symbol, class, method, thread name once),
2. a **frame table** of (class, method, native) triples over string ids,
3. a **stack table** of frame-id tuples —

and samples then cost a few integers each. Interval events use fixed-
width records. The reader reconstructs exactly the same
:class:`~repro.core.trace.Trace` as the text reader (round-trip
tested); ``bench_binary_format.py`` measures the size and speed win.

Layout (little-endian):

=======  =============================================
header   magic ``LILB``, u16 version
strings  u32 count; per string: u32 length + UTF-8 bytes
frames   u32 count; per frame: u32 class, u32 method, u8 native
stacks   u32 count; per stack: u16 depth + depth * u32 frame
meta     u32 string ids: application, session id, gui thread;
         u64 start/end/sample-period; f64 filter;
         u64 filtered-count; u32 extra-count + id pairs
threads  u32 count; per thread: u32 name, u32 event count, events
samples  u32 count; per tick: u64 t, u16 entries,
         per entry: u32 thread, u8 state, u32 stack
footer   u32 CRC-32 of everything after the 6-byte header
=======  =============================================

Interval events: u8 tag (1 open / 2 close / 3 complete-GC), then
open: u64 t + u8 kind + u32 symbol; close: u64 t; GC: u64 t0 + u64 t1
+ u32 symbol.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, Hashable, List, Tuple, Union

from repro.core.intervals import Interval, IntervalKind
from repro.core.samples import StackFrame, StackTrace, ThreadState
from repro.core.trace import Trace
from repro.lila.writer import replace_on_success

MAGIC = b"LILB"
VERSION = 1

_TAG_OPEN = 1
_TAG_CLOSE = 2
_TAG_GC = 3

_KIND_CODES = {kind: index for index, kind in enumerate(IntervalKind)}
_KINDS_BY_CODE = {index: kind for kind, index in _KIND_CODES.items()}
_STATE_CODES = {state: index for index, state in enumerate(ThreadState)}
_STATES_BY_CODE = {index: state for state, index in _STATE_CODES.items()}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_U8 = struct.Struct("<B")


class _Interner:
    """Assigns dense ids to hashable values in first-seen order."""

    def __init__(self) -> None:
        self._ids: Dict = {}
        self.values: List = []

    def intern(self, value: Hashable) -> int:
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        index = len(self.values)
        self._ids[value] = index
        self.values.append(value)
        return index


class _Writer:
    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.strings = _Interner()
        self.frames = _Interner()
        self.stacks = _Interner()

    # -- interning --------------------------------------------------------

    def _frame_id(self, frame: StackFrame) -> int:
        return self.frames.intern(
            (
                self.strings.intern(frame.class_name),
                self.strings.intern(frame.method_name),
                frame.is_native,
            )
        )

    def _stack_id(self, stack: StackTrace) -> int:
        return self.stacks.intern(
            tuple(self._frame_id(frame) for frame in stack.frames)
        )

    # -- encoding ----------------------------------------------------------

    def _interval_events(self, interval: Interval, out: List[bytes]) -> None:
        if interval.kind is IntervalKind.GC and not interval.children:
            out.append(
                _U8.pack(_TAG_GC)
                + _U64.pack(interval.start_ns)
                + _U64.pack(interval.end_ns)
                + _U32.pack(self.strings.intern(interval.symbol))
            )
            return
        out.append(
            _U8.pack(_TAG_OPEN)
            + _U64.pack(interval.start_ns)
            + _U8.pack(_KIND_CODES[interval.kind])
            + _U32.pack(self.strings.intern(interval.symbol))
        )
        for child in interval.children:
            self._interval_events(child, out)
        out.append(_U8.pack(_TAG_CLOSE) + _U64.pack(interval.end_ns))

    def write(self, handle: BinaryIO) -> None:
        import io

        payload = io.BytesIO()
        self._write_payload(payload)
        data = payload.getvalue()
        handle.write(MAGIC)
        handle.write(_U16.pack(VERSION))
        handle.write(data)
        handle.write(_U32.pack(zlib.crc32(data) & 0xFFFFFFFF))

    def _write_payload(self, handle: BinaryIO) -> None:
        trace = self.trace
        meta = trace.metadata

        # Pass 1: build all sections (interning fills the tables).
        thread_sections: List[Tuple[int, List[bytes]]] = []
        for thread_name in trace.thread_names:
            events: List[bytes] = []
            for root in trace.thread_roots[thread_name]:
                self._interval_events(root, events)
            thread_sections.append(
                (self.strings.intern(thread_name), events)
            )

        sample_blobs: List[bytes] = []
        for sample in trace.samples:
            entry_parts = [
                _U64.pack(sample.timestamp_ns),
                _U16.pack(len(sample.threads)),
            ]
            for entry in sample.threads:
                entry_parts.append(
                    _U32.pack(self.strings.intern(entry.thread_name))
                    + _U8.pack(_STATE_CODES[entry.state])
                    + _U32.pack(self._stack_id(entry.stack))
                )
            sample_blobs.append(b"".join(entry_parts))

        meta_ids = (
            self.strings.intern(meta.application),
            self.strings.intern(meta.session_id),
            self.strings.intern(meta.gui_thread),
        )
        extra_ids = [
            (self.strings.intern(key), self.strings.intern(value))
            for key, value in sorted(meta.extra.items())
        ]

        # Pass 2: emit.
        handle.write(_U32.pack(len(self.strings.values)))
        for text in self.strings.values:
            data = text.encode("utf-8")
            handle.write(_U32.pack(len(data)))
            handle.write(data)

        handle.write(_U32.pack(len(self.frames.values)))
        for class_id, method_id, native in self.frames.values:
            handle.write(_U32.pack(class_id))
            handle.write(_U32.pack(method_id))
            handle.write(_U8.pack(1 if native else 0))

        handle.write(_U32.pack(len(self.stacks.values)))
        for frame_ids in self.stacks.values:
            handle.write(_U16.pack(len(frame_ids)))
            for frame_id in frame_ids:
                handle.write(_U32.pack(frame_id))

        for meta_id in meta_ids:
            handle.write(_U32.pack(meta_id))
        handle.write(_U64.pack(meta.start_ns))
        handle.write(_U64.pack(meta.end_ns))
        handle.write(_U64.pack(meta.sample_period_ns))
        handle.write(_F64.pack(meta.filter_ms))
        handle.write(_U64.pack(trace.short_episode_count))
        handle.write(_U32.pack(len(extra_ids)))
        for key_id, value_id in extra_ids:
            handle.write(_U32.pack(key_id))
            handle.write(_U32.pack(value_id))

        handle.write(_U32.pack(len(thread_sections)))
        for name_id, events in thread_sections:
            handle.write(_U32.pack(name_id))
            handle.write(_U32.pack(len(events)))
            for event in events:
                handle.write(event)

        handle.write(_U32.pack(len(sample_blobs)))
        for blob in sample_blobs:
            handle.write(blob)


def write_trace_binary(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` in the binary format.

    The write is atomic: on any error ``path`` is left untouched.
    """
    path = Path(path)
    with replace_on_success(path, "wb") as handle:
        _Writer(trace).write(handle)
    return path


def read_trace_binary(path: Union[str, Path]) -> Trace:
    """Read and validate a binary trace file.

    The decode is one streaming pass through
    :class:`~repro.lila.source.BinaryTraceSource` into a columnar
    store; the result is a :class:`~repro.core.store.FacadeTrace` that
    reconstructs exactly the same :class:`Trace` the eager reader
    produced. Structural damage raises :class:`TraceFormatError`
    stamped with the byte offset; nesting and bounds violations
    propagate raw, as they always did for the binary path.
    """
    from repro.lila.source import BinaryTraceSource, build_trace

    return build_trace(BinaryTraceSource(path))
