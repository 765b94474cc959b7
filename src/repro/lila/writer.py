"""Serializing a :class:`~repro.core.trace.Trace` to the LiLa format.

Interval trees are flattened back to the open/close event stream a
profiler would have produced, thread by thread; complete GC intervals
use the dedicated ``G`` record so readers can re-insert them with
:meth:`IntervalTreeBuilder.add_complete`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator, List, Union

from repro.core.intervals import Interval, IntervalKind
from repro.core.trace import Trace
from repro.lila.format import (
    check_symbol,
    encode_stack,
    header_line,
)


def _interval_lines(interval: Interval) -> Iterator[str]:
    """Yield open/close (or G) records for one interval subtree."""
    if interval.kind is IntervalKind.GC and not interval.children:
        yield (
            f"G {interval.start_ns} {interval.end_ns} "
            f"{check_symbol(interval.symbol)}"
        )
        return
    yield (
        f"O {interval.start_ns} {interval.kind.value} "
        f"{check_symbol(interval.symbol)}"
    )
    for child in interval.children:
        yield from _interval_lines(child)
    yield f"C {interval.end_ns}"


def trace_to_lines(trace: Trace) -> List[str]:
    """Serialize ``trace`` to format lines (without line terminators)."""
    meta = trace.metadata
    lines = [header_line()]
    lines.append(f"M application {check_symbol(meta.application, 'application')}")
    lines.append(f"M session_id {check_symbol(meta.session_id, 'session id')}")
    lines.append(f"M start_ns {meta.start_ns}")
    lines.append(f"M end_ns {meta.end_ns}")
    lines.append(f"M gui_thread {check_symbol(meta.gui_thread, 'thread name')}")
    lines.append(f"M sample_period_ns {meta.sample_period_ns}")
    lines.append(f"M filter_ms {meta.filter_ms!r}")
    for key in sorted(meta.extra):
        lines.append(
            f"M x.{check_symbol(key, 'metadata key')} "
            f"{check_symbol(meta.extra[key], 'metadata value')}"
        )
    lines.append(f"F {trace.short_episode_count}")
    for thread_name in trace.thread_names:
        lines.append(f"T {check_symbol(thread_name, 'thread name')}")
        for root in trace.thread_roots[thread_name]:
            lines.extend(_interval_lines(root))
    for sample in trace.samples:
        lines.append(f"P {sample.timestamp_ns}")
        for entry in sample.threads:
            lines.append(
                f"t {check_symbol(entry.thread_name, 'thread name')} "
                f"{entry.state.value} {encode_stack(entry.stack)}"
            )
    return lines


@contextmanager
def replace_on_success(path: Path, mode: str) -> Iterator[IO[Any]]:
    """A handle on a temp file beside ``path``, renamed over it on success.

    Readers never observe a half-written file, and an error part-way
    (say, a symbol the format cannot carry) leaves an existing ``path``
    as it was and no temp file behind. ``mode`` is ``"w"`` (UTF-8
    text) or ``"wb"``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` in the LiLa text format.

    The write is atomic: on any error ``path`` is left untouched.

    Returns:
        The path written, as a :class:`~pathlib.Path`.
    """
    path = Path(path)
    with replace_on_success(path, "w") as handle:
        for line in trace_to_lines(trace):
            handle.write(line)
            handle.write("\n")
    return path
