"""The mmap-backed `.lilac` column file.

The text (``.lila``) encoding serializes the *event stream*: loading it
means re-parsing every record back into the columnar store, and
shipping a loaded trace to a worker process means pickling every column
by value. This module is the analysis-side encoding, which serializes
the **store itself**: the typed column buffers
of a :class:`~repro.core.store.ColumnarTrace` are written once, raw and
8-byte aligned, and :func:`open_column_store` maps them back with
``mmap`` + ``memoryview.cast`` — zero bytes copied, zero records
re-parsed, and workers that re-open the same file share the OS page
cache. File-backed stores pickle as just their path (see
``ColumnarTrace.__reduce__``), so engine fan-out ships a few hundred
bytes instead of the columns.

Layout (fixed 16-byte prologue, then a JSON header, then raw data)::

    0   magic ``LILC``, u16 version, u8 byteorder (0 little / 1 big),
        u8 pad, u32 header length, u32 header CRC-32
    16  header JSON (UTF-8): content digest, trace metadata, thread
        names, per-segment table (name/typecode/count/offset/nbytes),
        and the intern-block table
    ..  zero padding to an 8-byte boundary (= the data base)
    ..  column segments: each thread's seven columns then the six
        sample columns, raw native-endian bytes, 8-byte aligned
    ..  intern blocks: strings (u32 length + UTF-8 each), frames
        (u32 class id, u32 method id, u8 native), stacks (u16 depth +
        u32 frame ids) — fixed little-endian

Segment offsets in the header are relative to the data base, so the
header's own length never feeds back into the offsets it records. The
header CRC makes damage to the structural metadata loud; the column
bytes themselves are deliberately *not* checksummed — verifying them
would force a full read of every column.

Opening reads the header only: the prologue, the header CRC, and the
bounds of every column segment and intern block are checked there, so
a truncated file fails at open. The intern blocks are decoded on the
first read of the store's ``strings``, ``_strings_map``, ``interns``
or ``stacks`` — a reopen whose results all come from the engine's
cache never reads them, so damage inside a block surfaces only when
something needs the strings or stacks. Either way damage raises a
:class:`~repro.core.errors.TraceFormatError` stamped with the path and
byte offset.

Writing refuses a stack deeper than the u16 depth field can count
(65,535 frames) with a :class:`~repro.core.errors.TraceFormatError`,
before the target is opened.

A file written on an alien-endian host still opens: the reader detects
the byteorder flag and falls back to a byteswapped *copy* (the store is
then in-memory, not file-backed). That path closes the mapping at open,
so it decodes the intern blocks there too.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
import zlib
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from array import array

from repro.core.errors import LagAlyzerError, TraceFormatError
from repro.core.samples import StackFrame, StackTrace
from repro.core.store import ColumnarTrace, FacadeTrace
from repro.core.store.buffers import ITEM_SIZES, ColumnBuffer
from repro.core.store.columns import (
    SAMPLE_COLUMN_SPECS,
    THREAD_COLUMN_SPECS,
    _ThreadColumns,
)
from repro.core.trace import TraceMetadata
from repro.faults import runtime as faults_runtime
from repro.lila.digest import lines_digest
from repro.lila.source import TraceSource
from repro.lila.writer import replace_on_success
from repro.obs import runtime as obs_runtime

MAGIC = b"LILC"
VERSION = 1
SUFFIX = ".lilac"

_PROLOGUE = struct.Struct("<4sHBBII")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")

#: The deepest stack the stacks block can carry (its depth is a u16).
MAX_STACK_DEPTH = 0xFFFF


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def store_digest(store: ColumnarTrace) -> str:
    """The store's canonical content digest (memoized on the store).

    Identical to :func:`repro.lila.digest.trace_digest` over a facade of
    the store — the same hash over the same canonical lines — so a
    `.lilac` file carries exactly the digest the engine's cache keys on.
    """
    memo = getattr(store, "_content_digest", None)
    if memo is not None:
        return memo
    value = lines_digest(store.canonical_lines())
    store._content_digest = value
    return value


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def _segment_plan(
    store: ColumnarTrace,
) -> List[Tuple[str, str, ColumnBuffer]]:
    """``(name, typecode, buffer)`` of every column, in file order."""
    plan: List[Tuple[str, str, ColumnBuffer]] = []
    for index, columns in enumerate(store.threads):
        buffers = columns.buffers()
        for attr, typecode in THREAD_COLUMN_SPECS:
            plan.append((f"t{index}.{attr}", typecode, buffers[attr]))
    sample = store.sample_buffers()
    for attr, typecode in SAMPLE_COLUMN_SPECS:
        plan.append((f"s.{attr}", typecode, sample[attr]))
    return plan


def _intern_blocks(
    store: ColumnarTrace,
) -> Tuple[List[str], bytes, bytes, bytes]:
    """The strings / frames / stacks blocks of ``store``.

    The strings block starts with the store's own intern pool (column
    symbol ids index it positionally, so existing ids must be
    preserved) and appends any stack-frame names not already pooled.

    Raises:
        TraceFormatError: when a stack is deeper than
            :data:`MAX_STACK_DEPTH` frames.
    """
    strings: List[str] = list(store.strings)
    string_ids: Dict[str, int] = dict(store._strings_map)

    def intern(text: str) -> int:
        index = string_ids.get(text)
        if index is None:
            index = len(strings)
            string_ids[text] = index
            strings.append(text)
        return index

    frames: List[Tuple[int, int, bool]] = []
    frame_ids: Dict[Tuple[int, int, bool], int] = {}
    stack_rows: List[List[int]] = []
    for stack in store.stacks:
        if len(stack.frames) > MAX_STACK_DEPTH:
            raise TraceFormatError(
                f"stack of {len(stack.frames)} frames is deeper than the "
                f"column file's {MAX_STACK_DEPTH:,}-frame limit"
            )
        row: List[int] = []
        for frame in stack.frames:
            key = (
                intern(frame.class_name),
                intern(frame.method_name),
                frame.is_native,
            )
            frame_id = frame_ids.get(key)
            if frame_id is None:
                frame_id = len(frames)
                frame_ids[key] = frame_id
                frames.append(key)
            row.append(frame_id)
        stack_rows.append(row)

    strings_blob = bytearray()
    for text in strings:
        data = text.encode("utf-8")
        strings_blob += _U32.pack(len(data))
        strings_blob += data
    frames_blob = bytearray()
    for class_id, method_id, native in frames:
        frames_blob += _U32.pack(class_id)
        frames_blob += _U32.pack(method_id)
        frames_blob += _U8.pack(1 if native else 0)
    stacks_blob = bytearray()
    for row in stack_rows:
        stacks_blob += _U16.pack(len(row))
        for frame_id in row:
            stacks_blob += _U32.pack(frame_id)
    return strings, bytes(strings_blob), bytes(frames_blob), bytes(stacks_blob)


def write_column_file(
    store: ColumnarTrace, path: Union[str, Path]
) -> Path:
    """Write ``store`` to ``path`` as a `.lilac` column file.

    The write is atomic (temp file + rename), so readers never observe
    a half-written file; the content digest is computed (or reused from
    the store's memo) and carried in the header, so opening the file
    never re-derives it.

    Raises:
        TraceFormatError: when a stack is too deep for the stacks block;
            the target is not touched.
    """
    path = Path(path)
    segments = _segment_plan(store)
    strings, strings_blob, frames_blob, stacks_blob = _intern_blocks(store)

    cursor = 0
    segment_table: List[Dict[str, Any]] = []
    for name, typecode, buffer in segments:
        cursor = _align8(cursor)
        segment_table.append(
            {
                "name": name,
                "typecode": typecode,
                "count": len(buffer),
                "offset": cursor,
                "nbytes": buffer.nbytes,
            }
        )
        cursor += buffer.nbytes
    blocks: Dict[str, Dict[str, int]] = {}
    for name, blob, count in (
        ("strings", strings_blob, len(strings)),
        ("frames", frames_blob, len(frames_blob) // 9),
        ("stacks", stacks_blob, len(store.stacks)),
    ):
        cursor = _align8(cursor)
        blocks[name] = {"count": count, "offset": cursor,
                        "nbytes": len(blob)}
        cursor += len(blob)

    meta = store.metadata
    header = {
        "digest": store_digest(store),
        "metadata": {
            "application": meta.application,
            "session_id": meta.session_id,
            "start_ns": meta.start_ns,
            "end_ns": meta.end_ns,
            "gui_thread": meta.gui_thread,
            "sample_period_ns": meta.sample_period_ns,
            "filter_ms": meta.filter_ms,
            "extra": dict(meta.extra),
        },
        "short_episode_count": store.short_episode_count,
        "threads": [columns.name for columns in store.threads],
        "segments": segment_table,
        "blocks": blocks,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    with replace_on_success(path, "wb") as handle:
        handle.write(
            _PROLOGUE.pack(
                MAGIC,
                VERSION,
                0 if sys.byteorder == "little" else 1,
                0,
                len(header_bytes),
                zlib.crc32(header_bytes) & 0xFFFFFFFF,
            )
        )
        handle.write(header_bytes)
        data_base = _align8(_PROLOGUE.size + len(header_bytes))
        handle.write(b"\0" * (data_base - _PROLOGUE.size - len(header_bytes)))
        position = 0
        for entry, (_name, _typecode, buffer) in zip(segment_table, segments):
            handle.write(b"\0" * (entry["offset"] - position))
            handle.write(buffer.tobytes())
            position = entry["offset"] + entry["nbytes"]
        for name, blob in (
            ("strings", strings_blob),
            ("frames", frames_blob),
            ("stacks", stacks_blob),
        ):
            entry = blocks[name]
            handle.write(b"\0" * (entry["offset"] - position))
            handle.write(blob)
            position = entry["offset"] + entry["nbytes"]
    return path


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


class ColumnFileBacking:
    """The open `.lilac` file behind a file-backed store.

    Holding this object keeps the mapping alive for as long as any
    column view does; ``nbytes`` is the whole file size — the bytes a
    worker re-maps instead of receiving through the task pipe.
    """

    __slots__ = ("path", "map", "nbytes", "digest")

    def __init__(
        self, path: Path, map_obj: mmap.mmap, nbytes: int, digest: str
    ) -> None:
        self.path = path
        self.map = map_obj
        self.nbytes = nbytes
        self.digest = digest

    def __repr__(self) -> str:
        return f"ColumnFileBacking({str(self.path)!r}, {self.nbytes} bytes)"


class _BlockCursor:
    """Bounds-checked little-endian reads over one intern block."""

    __slots__ = ("path", "data", "pos", "base")

    def __init__(self, path: Path, data: bytes, base: int) -> None:
        self.path = path
        self.data = data
        self.pos = 0
        self.base = base

    def read(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise TraceFormatError(
                f"truncated column file block (wanted {n} bytes, "
                f"got {len(self.data) - self.pos})",
                path=self.path,
                offset=self.base + self.pos,
            )
        data = self.data[self.pos:end]
        self.pos = end
        return data

    def u8(self) -> int:
        return _U8.unpack(self.read(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.read(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.read(4))[0]


def _header_fail(
    path: Path, message: str, offset: Optional[int] = None
) -> TraceFormatError:
    return TraceFormatError(message, path=path, offset=offset)


def _parse_prologue(path: Path, size: int, head: bytes) -> Tuple[int, int, int]:
    """``(byteorder_flag, header_length, header_crc)`` or raise."""
    if size < _PROLOGUE.size:
        raise _header_fail(
            path, f"truncated column file ({size} bytes)", offset=0
        )
    magic, version, bo_flag, _pad, header_len, header_crc = _PROLOGUE.unpack(
        head
    )
    if magic != MAGIC:
        raise _header_fail(
            path, "not a LiLa column file (bad magic)", offset=0
        )
    if version != VERSION:
        raise _header_fail(
            path, f"unsupported column file version {version}", offset=4
        )
    if bo_flag not in (0, 1):
        raise _header_fail(path, f"bad byteorder flag {bo_flag}", offset=6)
    return bo_flag, header_len, header_crc


def _load_header(path: Path, raw: memoryview, size: int) -> Tuple[dict, int, int]:
    """Validate the prologue + JSON header; ``(header, bo_flag, data_base)``."""
    bo_flag, header_len, header_crc = _parse_prologue(
        path, size, bytes(raw[: _PROLOGUE.size]) if size >= _PROLOGUE.size else b""
    )
    header_end = _PROLOGUE.size + header_len
    if header_end > size:
        raise _header_fail(
            path,
            f"truncated column file (header wants {header_len} bytes)",
            offset=_PROLOGUE.size,
        )
    header_bytes = bytes(raw[_PROLOGUE.size:header_end])
    actual = zlib.crc32(header_bytes) & 0xFFFFFFFF
    if actual != header_crc:
        raise _header_fail(
            path,
            f"column file header is corrupt (CRC {actual:#010x}, "
            f"expected {header_crc:#010x})",
            offset=_PROLOGUE.size,
        )
    try:
        header = json.loads(header_bytes)
    except ValueError:
        raise _header_fail(
            path, "column file header is not valid JSON",
            offset=_PROLOGUE.size,
        ) from None
    if not isinstance(header, dict):
        raise _header_fail(
            path, "column file header is not an object",
            offset=_PROLOGUE.size,
        )
    return header, bo_flag, _align8(header_end)


def _parse_strings(
    path: Path, entry: Dict[str, int], data: bytes, base: int
) -> List[str]:
    cursor = _BlockCursor(path, data, base)
    strings: List[str] = []
    for _ in range(entry["count"]):
        length = cursor.u32()
        try:
            strings.append(cursor.read(length).decode("utf-8"))
        except UnicodeDecodeError:
            raise TraceFormatError(
                "column file string is not valid UTF-8",
                path=path,
                offset=base + cursor.pos - length,
            ) from None
    return strings


def _parse_stacks(
    path: Path,
    strings: List[str],
    frames_entry: Dict[str, int],
    frames_data: bytes,
    frames_base: int,
    stacks_entry: Dict[str, int],
    stacks_data: bytes,
    stacks_base: int,
) -> List[StackTrace]:
    cursor = _BlockCursor(path, frames_data, frames_base)
    frames: List[StackFrame] = []
    for _ in range(frames_entry["count"]):
        class_id, method_id = cursor.u32(), cursor.u32()
        native = cursor.u8() == 1
        if class_id >= len(strings) or method_id >= len(strings):
            raise TraceFormatError(
                f"column file frame string id out of range "
                f"({class_id}/{method_id} of {len(strings)})",
                path=path,
                offset=frames_base + cursor.pos - 9,
            )
        frames.append(StackFrame(strings[class_id], strings[method_id], native))
    cursor = _BlockCursor(path, stacks_data, stacks_base)
    stacks: List[StackTrace] = []
    for _ in range(stacks_entry["count"]):
        depth = cursor.u16()
        row: List[StackFrame] = []
        for _ in range(depth):
            frame_id = cursor.u32()
            if frame_id >= len(frames):
                raise TraceFormatError(
                    f"column file stack frame id {frame_id} out of range",
                    path=path,
                    offset=stacks_base + cursor.pos - 4,
                )
            row.append(frames[frame_id])
        stacks.append(StackTrace(row))
    return stacks


def _decode_interns(
    path: Path,
    map_obj: mmap.mmap,
    spans: Dict[str, Tuple[Dict[str, int], int, int]],
) -> Tuple[List[str], List[StackTrace]]:
    """The ``(strings, stacks)`` tables of a mapped file's intern blocks.

    ``spans`` maps each block name to ``(header entry, start, end)``,
    bounds already checked at open. Slicing the mapping copies the
    block, so no view into it outlives the call.
    """

    def block(name: str) -> Tuple[Dict[str, int], bytes, int]:
        entry, start, end = spans[name]
        return entry, map_obj[start:end], start

    strings = _parse_strings(path, *block("strings"))
    stacks = _parse_stacks(path, strings, *block("frames"), *block("stacks"))
    return strings, stacks


def open_column_store(path: Union[str, Path]) -> ColumnarTrace:
    """Open a `.lilac` file as a zero-copy, file-backed store.

    The column segments stay in the file: every numeric column is a
    ``memoryview.cast`` over the shared mapping, and the intern blocks
    are decoded on the store's first read of its strings or stacks, so
    opening costs the header alone — and a store opened here pickles as
    its *path* (workers re-map, nothing is copied). Damage the open
    checks (prologue, header CRC, segment and block bounds) raises
    :class:`TraceFormatError` stamped with the path and byte offset
    here; damage inside an intern block raises the same error from that
    first read. On a byteorder-alien file the columns are byteswap-copied
    and the blocks decoded at once (in-memory store, ``backing`` stays
    None).

    The ``lila.mmap`` fault site is ambient (checked on every open,
    like the engine's ``trace.map``), so injected map failures exercise
    the worker-side re-open path too.
    """
    path = Path(path)
    faults_runtime.check("lila.mmap", key=path.name)
    try:
        with path.open("rb") as handle:
            try:
                map_obj = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError:
                raise _header_fail(
                    path, "truncated column file (0 bytes)", offset=0
                ) from None
    except OSError as error:
        raise TraceFormatError(
            f"cannot open column file: {error}", path=path
        ) from None

    try:
        store = _open_mapped(path, map_obj)
    except Exception:
        try:
            map_obj.close()
        except BufferError:
            # The failing frame's traceback still references column
            # views; the mapping is freed when the exception is.
            pass
        raise
    if store.backing is None:
        # Byteswap-copy fallback took ownership of nothing: the mapping
        # is no longer referenced by any column view.
        map_obj.close()
    if obs_runtime.current() is not None:
        obs_runtime.count("lila.mmap_opens")
        obs_runtime.count("lila.mmap_bytes", path.stat().st_size)
    return store


def _open_mapped(path: Path, map_obj: mmap.mmap) -> ColumnarTrace:
    size = len(map_obj)
    raw = memoryview(map_obj)
    header, bo_flag, data_base = _load_header(path, raw, size)
    native_flag = 0 if sys.byteorder == "little" else 1
    copy_mode = bo_flag != native_flag

    try:
        thread_names = list(header["threads"])
        segment_entries = list(header["segments"])
        blocks = header["blocks"]
        digest = header["digest"]
        meta_dict = dict(header["metadata"])
        short_count = int(header["short_episode_count"])
    except (KeyError, TypeError, ValueError) as error:
        raise _header_fail(
            path, f"column file header is incomplete: {error!r}",
            offset=_PROLOGUE.size,
        ) from None

    def bounds(entry: Dict[str, Any], what: str) -> Tuple[int, int]:
        """``[start, end)`` of one segment or block in the file."""
        try:
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as error:
            raise _header_fail(
                path, f"bad {what} descriptor: {error!r}",
                offset=_PROLOGUE.size,
            ) from None
        absolute = data_base + offset
        if offset < 0 or nbytes < 0 or absolute + nbytes > size:
            raise TraceFormatError(
                f"truncated column file ({what} wants "
                f"[{absolute}, {absolute + nbytes}) of {size} bytes)",
                path=path,
                offset=absolute,
            )
        return absolute, absolute + nbytes

    segments: Dict[str, ColumnBuffer] = {}
    for entry in segment_entries:
        name = entry.get("name")
        typecode = entry.get("typecode")
        if typecode not in ("b", "i", "q", "d"):
            raise _header_fail(
                path,
                f"bad segment typecode {typecode!r} for {name!r}",
                offset=_PROLOGUE.size,
            )
        absolute, end = bounds(entry, f"segment {name!r}")
        view = raw[absolute:end]
        expected = int(entry.get("count", -1)) * ITEM_SIZES[typecode]
        if expected != len(view):
            raise TraceFormatError(
                f"segment {name!r} length mismatch "
                f"({len(view)} bytes for {entry.get('count')} items)",
                path=path,
                offset=absolute,
            )
        if copy_mode:
            copied = array(typecode)
            copied.frombytes(bytes(view))
            copied.byteswap()
            segments[name] = ColumnBuffer(typecode, copied)
        else:
            segments[name] = ColumnBuffer.view(typecode, view)

    # Intern blocks are bounds-checked now but decoded on first read.
    spans: Dict[str, Tuple[Dict[str, int], int, int]] = {
        block: (blocks[block], *bounds(blocks[block], f"{block} block"))
        for block in ("strings", "frames", "stacks")
    }

    threads: List[_ThreadColumns] = []
    for index, name in enumerate(thread_names):
        buffers: Dict[str, ColumnBuffer] = {}
        for attr, _typecode in THREAD_COLUMN_SPECS:
            buffer = segments.get(f"t{index}.{attr}")
            if buffer is None:
                raise _header_fail(
                    path,
                    f"column file is missing segment t{index}.{attr}",
                    offset=_PROLOGUE.size,
                )
            buffers[attr] = buffer
        threads.append(_ThreadColumns.from_buffers(name, buffers))
    sample_columns: Dict[str, Any] = {}
    for attr, _typecode in SAMPLE_COLUMN_SPECS:
        buffer = segments.get(f"s.{attr}")
        if buffer is None:
            raise _header_fail(
                path, f"column file is missing segment s.{attr}",
                offset=_PROLOGUE.size,
            )
        sample_columns[attr] = buffer.data

    try:
        metadata = TraceMetadata(
            application=meta_dict["application"],
            session_id=meta_dict["session_id"],
            start_ns=int(meta_dict["start_ns"]),
            end_ns=int(meta_dict["end_ns"]),
            gui_thread=meta_dict["gui_thread"],
            sample_period_ns=int(meta_dict["sample_period_ns"]),
            filter_ms=float(meta_dict["filter_ms"]),
            extra=meta_dict.get("extra") or {},
        )
    except (KeyError, TypeError, ValueError) as error:
        raise _header_fail(
            path, f"bad column file metadata: {error!r}",
            offset=_PROLOGUE.size,
        ) from None
    except LagAlyzerError as error:
        raise _header_fail(
            path, f"bad column file metadata: {error}",
            offset=_PROLOGUE.size,
        ) from None

    store = ColumnarTrace(
        metadata=metadata,
        strings=[],
        strings_map=None,
        threads=threads,
        thread_map={name: index for index, name in enumerate(thread_names)},
        sample_ts=sample_columns["sample_ts"],
        sample_offsets=sample_columns["sample_offsets"],
        entry_thread=sample_columns["entry_thread"],
        entry_state=sample_columns["entry_state"],
        entry_stack=sample_columns["entry_stack"],
        sample_runnable=sample_columns["sample_runnable"],
        stacks=[],
        short_episode_count=short_count,
    )
    store._content_digest = digest
    store._defer_interns(partial(_decode_interns, path, map_obj, spans))
    if copy_mode:
        # The mapping closes right after open, so decode from it now.
        store._load_interns()
    else:
        store.backing = ColumnFileBacking(path, map_obj, size, digest)
    return store


def open_column_trace(path: Union[str, Path]) -> FacadeTrace:
    """Open a `.lilac` file as a lazy :class:`FacadeTrace`.

    Its store carries the header's content digest, so the engine's
    cache probe never re-serializes the trace just to key it.
    """
    return FacadeTrace(open_column_store(path))


# ----------------------------------------------------------------------
# The TraceSource view (for open_source and uniform consumers)
# ----------------------------------------------------------------------


class ColumnTraceSource(TraceSource):
    """A :class:`~repro.lila.source.TraceSource` over a `.lilac` file.

    A column file has no text to parse: :func:`~repro.lila.source.build_store`
    short-circuits through :meth:`open_store` — ingesting a column file
    *is* opening it. Consumers that need the events back (``convert
    --to text``) read the trace with ``load_trace`` and write it with
    ``write_trace``.
    """

    encoding = "columns"

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.line = None
        self._store: Optional[ColumnarTrace] = None

    def open_store(self) -> ColumnarTrace:
        """The mmap-backed store (opened once, then reused)."""
        if self._store is None:
            self._store = open_column_store(self.path)
        return self._store
