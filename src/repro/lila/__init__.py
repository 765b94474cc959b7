"""LiLa-style trace file format.

The paper's traces are produced by LiLa, a listener-latency profiler.
This package defines a textual, versioned trace format with the same
record vocabulary LiLa gives LagAlyzer — session metadata, per-thread
interval open/close events, complete GC intervals, multi-thread stack
samples, and the count of episodes filtered at trace time — plus a
writer and reader with a round-trip guarantee. Text is the interchange
encoding; the mmap-backed `.lilac` column file (:mod:`repro.lila.colfile`)
is the analysis encoding.
"""

from repro.lila.autodetect import detect_format, expand_trace_paths, load_trace
from repro.lila.colfile import (
    ColumnTraceSource,
    open_column_store,
    open_column_trace,
    write_column_file,
)
from repro.lila.digest import file_digest, trace_digest
from repro.lila.format import FORMAT_VERSION, MAGIC
from repro.lila.reader import read_trace, read_trace_lines
from repro.lila.source import (
    LinesTraceSource,
    TextTraceSource,
    TraceSource,
    build_store,
    build_trace,
    open_source,
)
from repro.lila.validation import lint_trace
from repro.lila.writer import write_trace, trace_to_lines

__all__ = [
    "ColumnTraceSource",
    "FORMAT_VERSION",
    "LinesTraceSource",
    "MAGIC",
    "TextTraceSource",
    "TraceSource",
    "build_store",
    "build_trace",
    "detect_format",
    "expand_trace_paths",
    "file_digest",
    "lint_trace",
    "open_column_store",
    "open_column_trace",
    "open_source",
    "trace_digest",
    "load_trace",
    "read_trace",
    "read_trace_lines",
    "trace_to_lines",
    "write_column_file",
    "write_trace",
]
