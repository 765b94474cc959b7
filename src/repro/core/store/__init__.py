"""The columnar trace store: one-pass ingestion, array-backed analysis.

The object model (:class:`~repro.core.trace.Trace` holding one
:class:`~repro.core.intervals.Interval` per traced interval and one
object per sample entry) is pleasant to program against but expensive to
build: parsing a large session allocates millions of small objects
before the first analysis runs. This package stores the same information
as parallel arrays instead:

- per thread, six columns over interval *rows* in open order (which is
  pre-order): ``start``/``end`` (ns, int64), ``kind`` (int8 code),
  ``symbol`` (interned string id), ``parent`` (thread-local row index,
  ``-1`` for roots) and ``size`` (rows in the subtree including the row
  itself, so a subtree is the contiguous slice ``[row, row + size)``);
- one global string intern pool shared by symbols and thread names;
- samples as a flat entry table (thread id, state code, stack id) with
  per-tick offsets, plus interned :class:`~repro.core.samples.StackTrace`
  objects (stacks repeat constantly, so each distinct stack is one
  shared object).

The package is split by role:

- :mod:`~repro.core.store.columns` — the ``REC_*`` record vocabulary,
  enum code tables, and :class:`ColumnarTrace` itself (the data);
- :mod:`~repro.core.store.kernels` — the analysis kernels reading the
  columns (pattern mining, triggers, thread states, concurrency,
  location, session statistics), as free functions the fused plan
  executor composes;
- :mod:`~repro.core.store.facade` — :class:`FacadeTrace`, the lazy
  ``Trace`` view (object graph materialized only when touched), plus
  canonical serialization;
- :mod:`~repro.core.store.build` — :class:`ColumnarBuilder`, which the
  text line kernel (:class:`~repro.lila.source.TextParser`) fills
  straight from the lines of a :class:`~repro.lila.source.TraceSource`,
  with exactly the invariants (and error messages) of
  :class:`~repro.core.intervals.IntervalTreeBuilder`.

Everything importable from the old single-module ``repro.core.store`` is
re-exported here, so existing imports keep working unchanged.
"""

from repro.core.store.buffers import ColumnBuffer, InternTable
from repro.core.store.columns import (
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
    SAMPLE_COLUMN_SPECS,
    THREAD_COLUMN_SPECS,
    ColumnarTrace,
    _ThreadColumns,
)
from repro.core.store.build import ColumnarBuilder
from repro.core.store.facade import FacadeTrace, as_columnar
from repro.core.store import kernels

__all__ = [
    "REC_META",
    "REC_FILTERED",
    "REC_THREAD",
    "REC_OPEN",
    "REC_CLOSE",
    "REC_GC",
    "REC_TICK",
    "REC_ENTRY",
    "SAMPLE_COLUMN_SPECS",
    "THREAD_COLUMN_SPECS",
    "ColumnBuffer",
    "ColumnarTrace",
    "ColumnarBuilder",
    "FacadeTrace",
    "InternTable",
    "as_columnar",
    "kernels",
]
