"""The lazy Trace facade and column↔object materialization.

:class:`FacadeTrace` keeps the classic ``Trace``/``Episode``/``Interval``
API alive over a :class:`~repro.core.store.columns.ColumnarTrace`
without building the object graph up front; :func:`to_trace` and
:func:`canonical_lines` are the materialization and serialization halves
that back it (both bit-identical to the pre-columnar reader/writer).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.intervals import Interval
from repro.core.samples import Sample, ThreadSample
from repro.core.store.columns import (
    ColumnarTrace,
    _GC_CODE,
    _KINDS,
    _KIND_VALUES,
    _STATES,
)
from repro.core.trace import Trace

# ----------------------------------------------------------------------
# Canonical serialization (digest) without materializing objects
# ----------------------------------------------------------------------


def canonical_lines(store: ColumnarTrace) -> List[str]:
    """The canonical text serialization, byte-identical to
    :func:`repro.lila.writer.trace_to_lines` over the materialized
    trace — computed straight from the columns.

    Each thread's columns are walked with ``zip``. The text after the
    timestamps of an ``O`` line is built once per (kind, symbol), of a
    ``G`` line once per symbol, and a whole ``t`` line once per
    (thread, state, stack); every string passes ``check_symbol`` once,
    in the order the writer would check it, so a symbol the format
    cannot carry fails with the writer's message.
    """
    from repro.lila.format import check_symbol, encode_stack, header_line

    meta = store.metadata
    lines = [header_line()]
    lines.append(
        f"M application {check_symbol(meta.application, 'application')}"
    )
    lines.append(
        f"M session_id {check_symbol(meta.session_id, 'session id')}"
    )
    lines.append(f"M start_ns {meta.start_ns}")
    lines.append(f"M end_ns {meta.end_ns}")
    lines.append(
        f"M gui_thread {check_symbol(meta.gui_thread, 'thread name')}"
    )
    lines.append(f"M sample_period_ns {meta.sample_period_ns}")
    lines.append(f"M filter_ms {meta.filter_ms!r}")
    for key in sorted(meta.extra):
        lines.append(
            f"M x.{check_symbol(key, 'metadata key')} "
            f"{check_symbol(meta.extra[key], 'metadata value')}"
        )
    lines.append(f"F {store.short_episode_count}")

    names = sorted(store._thread_map)
    gui = meta.gui_thread
    if gui in names:
        names.remove(gui)
        names.insert(0, gui)
    strings = store.strings
    # Interned strings that already passed ``check_symbol``.
    checked: Dict[int, str] = {}

    def text_of(string_id: int, what: str) -> str:
        text = checked.get(string_id)
        if text is None:
            text = checked[string_id] = check_symbol(strings[string_id], what)
        return text

    # ``" <kind> <symbol>"`` per kind code, keyed by symbol id, and
    # ``" <symbol>"`` of leaf GC lines.
    open_tails: List[Dict[int, str]] = [{} for _ in _KIND_VALUES]
    gc_tails: Dict[int, str] = {}
    gc_code = _GC_CODE
    append = lines.append
    for name in names:
        columns = store.threads[store._thread_map[name]]
        append(f"T {check_symbol(name, 'thread name')}")
        # (close row, end) of the open non-leaf intervals, innermost
        # last; a leaf closes on the line after its own.
        closes: List[Tuple[int, int]] = []
        for row, (start, end, kind, symbol, size) in enumerate(zip(
            columns.start, columns.end, columns.kind, columns.symbol,
            columns.size,
        )):
            while closes and row >= closes[-1][0]:
                append(f"C {closes.pop()[1]}")
            if size == 1 and kind == gc_code:
                tail = gc_tails.get(symbol)
                if tail is None:
                    tail = gc_tails[symbol] = f" {text_of(symbol, 'symbol')}"
                append(f"G {start} {end}{tail}")
                continue
            tails = open_tails[kind]
            tail = tails.get(symbol)
            if tail is None:
                tail = tails[symbol] = (
                    f" {_KIND_VALUES[kind]} {text_of(symbol, 'symbol')}"
                )
            append(f"O {start}{tail}")
            if size == 1:
                append(f"C {end}")
            else:
                closes.append((row + size, end))
        while closes:
            append(f"C {closes.pop()[1]}")

    stacks = store.stacks
    entry_lines: List[str] = []
    built: Dict[Tuple[int, int, int], str] = {}
    for entry in zip(store.entry_thread, store.entry_state, store.entry_stack):
        line = built.get(entry)
        if line is None:
            thread, state, stack = entry
            line = built[entry] = (
                f"t {text_of(thread, 'thread name')} {_STATES[state].value} "
                f"{encode_stack(stacks[stack])}"
            )
        entry_lines.append(line)
    offsets = store.sample_offsets
    for stamp, first, last in zip(store.sample_ts, offsets, offsets[1:]):
        append(f"P {stamp}")
        lines += entry_lines[first:last]
    return lines


# ----------------------------------------------------------------------
# Materialization (the facade's backing)
# ----------------------------------------------------------------------


def to_trace(store: ColumnarTrace) -> Trace:
    """Materialize the classic object model from the columns.

    The result is exactly what the pre-columnar reader produced:
    same tree shapes, same thread order, same samples.
    """
    thread_roots: Dict[str, List[Interval]] = {}
    for columns in store.threads:
        nodes: List[Interval] = []
        roots: List[Interval] = []
        kind = columns.kind
        start = columns.start
        end = columns.end
        symbol = columns.symbol
        parent = columns.parent
        strings = store.strings
        for row in range(len(columns)):
            node = Interval(
                _KINDS[kind[row]],
                strings[symbol[row]],
                start[row],
                end[row],
            )
            nodes.append(node)
            parent_row = parent[row]
            if parent_row < 0:
                roots.append(node)
            else:
                parent_node = nodes[parent_row]
                parent_node.children.append(node)
                node.parent = parent_node
        thread_roots[columns.name] = roots

    samples: List[Sample] = []
    strings = store.strings
    stacks = store.stacks
    for tick in range(len(store.sample_ts)):
        entries = [
            ThreadSample(
                strings[store.entry_thread[entry]],
                _STATES[store.entry_state[entry]],
                stacks[store.entry_stack[entry]],
            )
            for entry in range(store.sample_offsets[tick],
                               store.sample_offsets[tick + 1])
        ]
        samples.append(Sample(store.sample_ts[tick], entries))

    return Trace(
        store.metadata,
        thread_roots,
        samples=samples,
        short_episode_count=store.short_episode_count,
    )


class FacadeTrace(Trace):
    """A :class:`Trace` whose object graph is built only on demand.

    Construction stores just the columnar store and the metadata; the
    first access to ``thread_roots``, ``samples``, ``episodes``, or the
    per-thread episode table materializes the classic object model via
    :meth:`ColumnarTrace.to_trace` and caches it on the instance.
    Analyses that understand the columnar store (everything in
    :mod:`repro.core.analyses`) never trigger materialization.
    """

    _LAZY = frozenset(
        ("thread_roots", "samples", "episodes", "_episodes_by_thread")
    )

    def __init__(self, store: ColumnarTrace) -> None:
        # Deliberately not calling Trace.__init__: the whole point is
        # to defer building interval/sample objects.
        self.columnar = store
        self.metadata = store.metadata
        self.short_episode_count = store.short_episode_count

    def __getattr__(self, name: str) -> Any:
        if name in FacadeTrace._LAZY:
            materialized = self.columnar.to_trace()
            self.__dict__["thread_roots"] = materialized.thread_roots
            self.__dict__["samples"] = materialized.samples
            self.__dict__["episodes"] = materialized.episodes
            self.__dict__["_episodes_by_thread"] = (
                materialized._episodes_by_thread
            )
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def is_materialized(self) -> bool:
        """True once the object graph has been built."""
        return "thread_roots" in self.__dict__

    def __reduce__(self) -> tuple:
        # The store pickles its own digest memo (or its `.lilac` path).
        return (FacadeTrace, (self.columnar,))

    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else "columnar"
        return (
            f"FacadeTrace({self.metadata.application!r}, "
            f"{self.columnar.interval_count} intervals, {state})"
        )


def as_columnar(
    trace: Trace,
    interns: Optional[Any] = None,
    stack_interns: Optional[Any] = None,
) -> Trace:
    """``trace`` as a columnar-backed facade (no-op when it already is).

    Used by the study runner so simulated traces ship to workers as
    compact columns, with the memoized content digest carried over.
    ``interns``/``stack_interns`` (:class:`InternTable`) let one study
    run share its string and stack tables across every trace it
    columnarizes — ids are store-internal, so sharing never changes
    what any store serializes (or pickles) to.
    """
    if getattr(trace, "columnar", None) is not None:
        return trace
    store = ColumnarTrace.from_trace(
        trace, interns=interns, stack_interns=stack_interns
    )
    digest = getattr(trace, "_content_digest", None)
    if digest is not None:
        store._content_digest = digest
    return FacadeTrace(store)
