"""Column containers: the record vocabulary and the parallel arrays.

This module holds the *data* half of the columnar store — the
``REC_*`` record vocabulary :meth:`~repro.core.store.ColumnarBuilder.feed`
applies, the stable integer codes for the enum vocabularies, the
per-thread :class:`_ThreadColumns` arrays, and :class:`ColumnarTrace`
itself (construction, pickling, size accounting, and episode
enumeration). The analysis kernels that *read* the columns live in
:mod:`repro.core.store.kernels`; the lazy ``Trace`` facade in
:mod:`repro.core.store.facade`; the streaming builder in
:mod:`repro.core.store.build`.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.intervals import IntervalKind, NS_PER_MS
from repro.core.samples import StackTrace, ThreadState
from repro.core.store.buffers import ColumnBuffer, InternTable
from repro.core.trace import Trace, TraceMetadata

# ----------------------------------------------------------------------
# The record vocabulary of the reference record stream and of
# ColumnarBuilder.feed.
# ----------------------------------------------------------------------

REC_META = 0
"""``(REC_META, key, value, is_extra)`` — one metadata entry."""
REC_FILTERED = 1
"""``(REC_FILTERED, count)`` — episodes filtered at trace time."""
REC_THREAD = 2
"""``(REC_THREAD, name)`` — start (or resumption) of a thread section."""
REC_OPEN = 3
"""``(REC_OPEN, start_ns, kind, symbol)`` — open an interval."""
REC_CLOSE = 4
"""``(REC_CLOSE, end_ns)`` — close the innermost open interval."""
REC_GC = 5
"""``(REC_GC, start_ns, end_ns, symbol)`` — a complete GC interval."""
REC_TICK = 6
"""``(REC_TICK, ns)`` — a sampling tick."""
REC_ENTRY = 7
"""``(REC_ENTRY, thread_name, state, stack)`` — one thread's tick entry."""

_REQUIRED_META = (
    "application",
    "session_id",
    "start_ns",
    "end_ns",
    "gui_thread",
)

#: Stable integer codes for the enum vocabularies (enumeration order;
#: `.lilac` files store them raw, so they are part of that format).
_KIND_CODES: Dict[IntervalKind, int] = {
    kind: index for index, kind in enumerate(IntervalKind)
}
_KINDS: List[IntervalKind] = list(IntervalKind)
_KIND_VALUES: List[str] = [kind.value for kind in IntervalKind]
_STATE_CODES: Dict[ThreadState, int] = {
    state: index for index, state in enumerate(ThreadState)
}
_STATES: List[ThreadState] = list(ThreadState)

_DISPATCH_CODE = _KIND_CODES[IntervalKind.DISPATCH]
_GC_CODE = _KIND_CODES[IntervalKind.GC]
_NATIVE_CODE = _KIND_CODES[IntervalKind.NATIVE]
_LISTENER_CODE = _KIND_CODES[IntervalKind.LISTENER]
_PAINT_CODE = _KIND_CODES[IntervalKind.PAINT]
_ASYNC_CODE = _KIND_CODES[IntervalKind.ASYNC]
_REQUEST_CODE = _KIND_CODES[IntervalKind.REQUEST]
_IOWAIT_CODE = _KIND_CODES[IntervalKind.IOWAIT]
_STAGE_CODE = _KIND_CODES[IntervalKind.STAGE]
_TRIGGER_CODES = (_LISTENER_CODE, _PAINT_CODE, _ASYNC_CODE)
_RUNNABLE_CODE = _STATE_CODES[ThreadState.RUNNABLE]


#: ``(attribute, typecode)`` of every per-thread column, in the `.lilac`
#: segment serialization order.
THREAD_COLUMN_SPECS: Tuple[Tuple[str, str], ...] = (
    ("start", "q"),
    ("end", "q"),
    ("kind", "b"),
    ("symbol", "i"),
    ("parent", "i"),
    ("size", "i"),
    ("root_rows", "i"),
)

#: ``(attribute, typecode)`` of every trace-level sample column, in the
#: `.lilac` segment serialization order.
SAMPLE_COLUMN_SPECS: Tuple[Tuple[str, str], ...] = (
    ("sample_ts", "q"),
    ("sample_offsets", "i"),
    ("entry_thread", "i"),
    ("entry_state", "b"),
    ("entry_stack", "i"),
    ("sample_runnable", "i"),
)


class _ThreadColumns:
    """One thread's interval rows as parallel arrays (rows in pre-order).

    The column attributes hold the *raw* typed sequence of a
    :class:`~repro.core.store.buffers.ColumnBuffer` — an appendable
    ``array`` when built by the streaming builder, a zero-copy
    ``memoryview`` cast when opened from an mmap'd `.lilac` file. The
    two are duck-type compatible for every kernel access pattern
    (indexing, ``len``, iteration, ``bisect``), so the hot paths never
    pay a wrapper call.
    """

    __slots__ = ("name", "start", "end", "kind", "symbol", "parent", "size",
                 "root_rows")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = array("q")
        self.end = array("q")
        self.kind = array("b")
        self.symbol = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.root_rows = array("i")

    @classmethod
    def from_buffers(
        cls, name: str, buffers: Dict[str, ColumnBuffer]
    ) -> "_ThreadColumns":
        """Wire a thread's columns straight onto existing buffers."""
        columns = cls.__new__(cls)
        columns.name = name
        for attr, _typecode in THREAD_COLUMN_SPECS:
            setattr(columns, attr, buffers[attr].data)
        return columns

    def buffers(self) -> Dict[str, ColumnBuffer]:
        """This thread's columns wrapped as typed buffers."""
        return {
            attr: ColumnBuffer(typecode, getattr(self, attr))
            for attr, typecode in THREAD_COLUMN_SPECS
        }

    def __len__(self) -> int:
        return len(self.start)

    @property
    def nbytes(self) -> int:
        return sum(
            len(column) * column.itemsize
            for column in (self.start, self.end, self.kind, self.symbol,
                           self.parent, self.size, self.root_rows)
        )


class ColumnarTrace:
    """One session trace stored as columns (see the package docstring).

    Instances are immutable once built (like :class:`Trace`); every
    accessor is safe to call from any number of analyses, and caches on
    the instance never need invalidation. The analysis kernels
    (pattern mining, triggers, thread states, concurrency, location,
    session statistics) are implemented as functions over the columns in
    :mod:`repro.core.store.kernels`; the methods here are thin
    delegations kept for API stability.
    """

    def __init__(
        self,
        metadata: TraceMetadata,
        strings: Union[List[str], InternTable],
        strings_map: Optional[Dict[str, int]],
        threads: List[_ThreadColumns],
        thread_map: Dict[str, int],
        sample_ts: "array[int]",
        sample_offsets: "array[int]",
        entry_thread: "array[int]",
        entry_state: "array[int]",
        entry_stack: "array[int]",
        sample_runnable: "array[int]",
        stacks: List[StackTrace],
        short_episode_count: int = 0,
    ) -> None:
        self.metadata = metadata
        if isinstance(strings, InternTable):
            interns = strings
        else:
            interns = InternTable.adopt(
                strings,
                strings_map
                if strings_map is not None
                else {text: index for index, text in enumerate(strings)},
            )
        #: The string intern table; ``strings``/``_strings_map`` alias
        #: its list and id map so kernels index plain containers.
        self.interns = interns
        self.strings = interns.strings
        self._strings_map = interns.ids
        self.threads = threads
        self._thread_map = thread_map
        self.sample_ts = sample_ts
        self.sample_offsets = sample_offsets
        self.entry_thread = entry_thread
        self.entry_state = entry_state
        self.entry_stack = entry_stack
        self.sample_runnable = sample_runnable
        self.stacks = stacks
        self.short_episode_count = short_episode_count
        #: The on-disk `.lilac` file backing this store's columns, or
        #: ``None`` for in-memory (array-backed) stores. Set by
        #: :func:`repro.lila.colfile.open_column_store`.
        self.backing: Optional[Any] = None
        self._episode_rows_cache: Dict[bool, List[Tuple[int, int, int, int, int]]] = {}
        self._key_cache: Dict[Tuple[int, int, bool], str] = {}

    # -- deferred intern tables ------------------------------------------
    #
    # A store opened from a `.lilac` mapping does not decode its string
    # and stack tables at open: a reopen served from the result cache
    # never reads them. The first read of any attribute below decodes
    # them once (mirroring ``FacadeTrace._LAZY``).

    _LAZY = frozenset(("strings", "_strings_map", "interns", "stacks"))

    def _defer_interns(
        self, loader: Callable[[], Tuple[List[str], List[StackTrace]]]
    ) -> None:
        """Replace the intern tables with ``loader``, run on first read.

        ``loader`` returns ``(strings, stacks)``. It runs under a
        per-store lock, so threads racing the first read decode once and
        all see one table. If it raises, the store stays deferred and
        the next read raises again.
        """
        for name in ColumnarTrace._LAZY:
            self.__dict__.pop(name, None)
        self._pending_interns = (loader, threading.Lock())

    def _load_interns(self) -> None:
        """Decode deferred intern tables now (a no-op once decoded)."""
        pending = self.__dict__.get("_pending_interns")
        if pending is None:
            return
        loader, lock = pending
        with lock:
            if "_pending_interns" not in self.__dict__:
                return
            strings, stacks = loader()
            interns = InternTable.adopt(
                strings, {text: index for index, text in enumerate(strings)}
            )
            self.interns = interns
            self.strings = interns.strings
            self._strings_map = interns.ids
            self.stacks = stacks
            del self.__dict__["_pending_interns"]

    def __getattr__(self, name: str) -> Any:
        if name in ColumnarTrace._LAZY and "_pending_interns" in self.__dict__:
            self._load_interns()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # -- pickling ------------------------------------------------------
    #
    # File-backed stores pickle as just their `.lilac` path: the worker
    # re-opens the file via mmap (zero copied column bytes, shared page
    # cache) instead of receiving the columns by value. In-memory
    # stores ship their columns as before, minus derived caches and
    # the partials a pooled load memoized for its dispatcher
    # (``_partials_memo``, see AnalysisEngine.load_traces).

    def __getstate__(self) -> dict:
        # A store pickled by value carries decoded tables, never a loader.
        self._load_interns()
        state = self.__dict__.copy()
        state["_episode_rows_cache"] = {}
        state["_key_cache"] = {}
        state["backing"] = None
        state.pop("_partials_memo", None)
        # The intern table is pure aliasing over ``strings`` /
        # ``_strings_map``; rebuilding it on restore keeps the pickle
        # byte-stable (and smaller) across pickling round-trips.
        state.pop("interns", None)
        return state

    def __reduce__(self) -> tuple:
        if self.backing is not None:
            return (_reopen_store, (str(self.backing.path),))
        return (_restore_store, (self.__getstate__(),))

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def interval_count(self) -> int:
        return sum(len(columns) for columns in self.threads)

    @property
    def sample_count(self) -> int:
        return len(self.sample_ts)

    @property
    def thread_order(self) -> List[str]:
        """Thread names in first-appearance (T record) order."""
        return [columns.name for columns in self.threads]

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the columns (not the facade)."""
        total = sum(columns.nbytes for columns in self.threads)
        for arr in (self.sample_ts, self.sample_offsets, self.entry_thread,
                    self.entry_state, self.entry_stack, self.sample_runnable):
            total += len(arr) * arr.itemsize
        total += sum(len(text) for text in self.strings)
        return total

    # ------------------------------------------------------------------
    # Episode enumeration (columnar twin of Trace episode splitting)
    # ------------------------------------------------------------------

    def episode_rows(
        self, all_dispatch_threads: bool = False
    ) -> List[Tuple[int, int, int, int, int]]:
        """Episode descriptors ``(thread_idx, row, index, start, end)``.

        With ``all_dispatch_threads`` False, only the GUI thread's
        episodes; otherwise every dispatch thread's, merged in time
        order with the same (stable) sort the object model uses.
        """
        cached = self._episode_rows_cache.get(all_dispatch_threads)
        if cached is not None:
            return cached
        gui = self.metadata.gui_thread
        root_code = _KIND_CODES[_family.family_of(self.metadata).root_kind]
        merged: List[Tuple[int, int, int, int, int]] = []
        for thread_idx, columns in enumerate(self.threads):
            if not all_dispatch_threads and columns.name != gui:
                continue
            index = 0
            kind = columns.kind
            start = columns.start
            end = columns.end
            for row in columns.root_rows:
                if kind[row] != root_code:
                    continue
                merged.append((thread_idx, row, index, start[row], end[row]))
                index += 1
        if all_dispatch_threads:
            merged.sort(key=lambda item: item[3])
        self._episode_rows_cache[all_dispatch_threads] = merged
        return merged

    def split_episode_rows(self, config: Any) -> Tuple[list, list]:
        """(all episode rows, perceptible episode rows) under ``config``."""
        rows = self.episode_rows(
            all_dispatch_threads=config.all_dispatch_threads
        )
        threshold = config.perceptible_threshold_ms
        perceptible = [
            item for item in rows
            if (item[4] - item[3]) / NS_PER_MS >= threshold
        ]
        return list(rows), perceptible

    def _tick_range(self, start_ns: int, end_ns: int) -> Tuple[int, int]:
        """Sample tick indices in ``[start_ns, end_ns)``."""
        lo = bisect_left(self.sample_ts, start_ns)
        hi = bisect_left(self.sample_ts, end_ns, lo)
        return lo, hi

    def _gui_entry(self, tick: int, gui_id: int) -> int:
        """Entry index of the GUI thread in one tick, or -1."""
        entry_thread = self.entry_thread
        for entry in range(self.sample_offsets[tick],
                           self.sample_offsets[tick + 1]):
            if entry_thread[entry] == gui_id:
                return entry
        return -1

    # ------------------------------------------------------------------
    # Analysis kernels (delegations; implementations in .kernels)
    # ------------------------------------------------------------------

    def pattern_key_of(
        self, thread_idx: int, row: int, include_gc: bool = False
    ) -> str:
        return _kernels.pattern_key_of(self, thread_idx, row, include_gc)

    def pattern_counts(
        self,
        threshold_ms: float,
        include_gc: bool = False,
        all_dispatch_threads: bool = False,
    ) -> Tuple[Dict[str, Tuple[int, int]], int]:
        return _kernels.pattern_counts(
            self, threshold_ms, include_gc, all_dispatch_threads
        )

    def trigger_summary(
        self, episode_rows: List[Tuple[int, int, int, int, int]]
    ) -> Any:
        return _kernels.trigger_summary(self, episode_rows)

    def cause_tally(
        self, episode_rows: List[Tuple[int, int, int, int, int]]
    ) -> Any:
        return _kernels.cause_tally(self, episode_rows)

    def threadstate_summary(
        self, episode_rows: List[Tuple[int, int, int, int, int]]
    ) -> Any:
        return _kernels.threadstate_summary(self, episode_rows)

    def concurrency_summary(
        self, episode_rows: List[Tuple[int, int, int, int, int]]
    ) -> Any:
        return _kernels.concurrency_summary(self, episode_rows)

    def location_summary(
        self,
        episode_rows: List[Tuple[int, int, int, int, int]],
        library_prefixes: Tuple[str, ...],
    ) -> Any:
        return _kernels.location_summary(self, episode_rows, library_prefixes)

    def session_stats_row(self, threshold_ms: float) -> Any:
        return _kernels.session_stats_row(self, threshold_ms)

    # ------------------------------------------------------------------
    # Serialization and materialization (implementations in .facade)
    # ------------------------------------------------------------------

    def canonical_lines(self) -> List[str]:
        from repro.core.store import facade

        return facade.canonical_lines(self)

    def to_trace(self) -> Trace:
        from repro.core.store import facade

        return facade.to_trace(self)

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        interns: Optional[InternTable] = None,
        stack_interns: Optional[InternTable] = None,
    ) -> "ColumnarTrace":
        from repro.core.store import build

        return build.columnarize(
            trace, interns=interns, stack_interns=stack_interns
        )

    def sample_buffers(self) -> Dict[str, ColumnBuffer]:
        """The trace-level sample columns wrapped as typed buffers."""
        return {
            attr: ColumnBuffer(typecode, getattr(self, attr))
            for attr, typecode in SAMPLE_COLUMN_SPECS
        }

    def __repr__(self) -> str:
        # Never decodes deferred tables: a damaged block must not make
        # the store unprintable.
        strings = self.__dict__.get("strings")
        interned = "deferred" if strings is None else len(strings)
        return (
            f"ColumnarTrace({self.metadata.application!r}, "
            f"{self.interval_count} intervals, {self.sample_count} samples, "
            f"{interned} strings)"
        )


def _reopen_store(path: str) -> ColumnarTrace:
    """Unpickle hook: re-open a file-backed store from its `.lilac` path.

    The receiving process maps the column file instead of copying the
    columns; damage (or a vanished file) surfaces as the same typed
    :class:`~repro.core.errors.TraceFormatError` the reader raises, so
    the engine's quarantine path handles it like any other bad trace.
    """
    from repro.lila.colfile import open_column_store

    return open_column_store(path)


def _restore_store(state: dict) -> ColumnarTrace:
    """Unpickle hook: rebuild an in-memory store from its state dict."""
    store = ColumnarTrace.__new__(ColumnarTrace)
    # Intern attribute names like pickle's BUILD opcode does, so a
    # round-tripped store repickles byte-identically to a fresh one.
    store.__dict__.update(
        (sys.intern(key), value) for key, value in state.items()
    )
    store.interns = InternTable.adopt(store.strings, store._strings_map)
    return store


# Bound after the class definitions so the kernels module (which imports
# the code tables above) can resolve this module from sys.modules; the
# delegation methods then pay one attribute lookup, not an import, per
# call.
from repro.core import family as _family  # noqa: E402
from repro.core.store import kernels as _kernels  # noqa: E402
