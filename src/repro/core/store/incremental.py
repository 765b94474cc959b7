"""Incremental appends into the columnar store.

The one-shot :class:`~repro.core.store.build.ColumnarBuilder` takes a
complete trace and only then seals a
:class:`~repro.core.store.columns.ColumnarTrace`. The ingest daemon
pushes the same text lines *as they arrive* over the wire through the
same line kernel (:class:`~repro.lila.source.TextParser`) and needs to
know, mid-stream, which interval trees are already complete — every
root interval that has closed is final (the nesting invariant
guarantees nothing can reopen it), so episode splitting and pattern
tallies can advance per completed episode instead of per completed
trace.

:class:`IncrementalColumnarBuilder` is the one-shot builder plus that
completion signal, hooked into the one method the kernel closes every
interval with (:meth:`_close_interval`): :meth:`take_completed_roots`
drains the roots closed since the last call, and
:meth:`materialize_root` builds the classic
:class:`~repro.core.intervals.Interval` tree for one completed root
straight from the columns (the arrays are append-only, so rows of a
closed subtree never change afterwards). Sealing via ``finish`` is
unchanged, which is what makes incremental-mode final summaries
byte-identical to a one-shot build over the same lines.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.intervals import Interval
from repro.core.store.build import ColumnarBuilder
from repro.core.store.columns import _KINDS


class IncrementalColumnarBuilder(ColumnarBuilder):
    """A :class:`ColumnarBuilder` that reports root completions."""

    def __init__(self) -> None:
        super().__init__()
        #: (thread index, row) of roots closed since the last drain.
        self._completed_roots: List[Tuple[int, int]] = []

    def _close_interval(self, end_ns: int) -> None:
        frames = self._cur_frames
        closes_root = frames is not None and len(frames) == 1
        super()._close_interval(end_ns)
        if closes_root:
            self._completed_roots.append(
                (self._current, self._cur_columns.root_rows[-1])
            )

    def take_completed_roots(self) -> List[Tuple[int, int]]:
        """Drain ``(thread index, row)`` of roots completed so far."""
        completed = self._completed_roots
        self._completed_roots = []
        return completed

    def thread_name(self, thread_index: int) -> str:
        """The name of the thread at ``thread_index``."""
        return self._threads[thread_index].name

    def materialize_root(self, thread_index: int, row: int) -> Interval:
        """The :class:`Interval` tree of one *completed* root.

        Only valid for rows returned by :meth:`take_completed_roots`:
        a still-open subtree has placeholder end timestamps.
        """
        columns = self._threads[thread_index]
        strings = self._strings
        kind = columns.kind
        start = columns.start
        end = columns.end
        symbol = columns.symbol
        parent = columns.parent
        size = columns.size[row]
        nodes: dict = {}
        for index in range(row, row + size):
            node = Interval(
                _KINDS[kind[index]],
                strings[symbol[index]],
                start[index],
                end[index],
            )
            nodes[index] = node
            if index != row:
                parent_node = nodes[parent[index]]
                parent_node.children.append(node)
                node.parent = parent_node
        return nodes[row]
