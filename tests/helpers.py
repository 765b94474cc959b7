"""Shared builders for tests: tiny hand-made traces and episodes, the
golden corpus the parity suites run over, and a SQLite file's schema."""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.episodes import Episode
from repro.core.intervals import Interval, IntervalKind, NS_PER_MS
from repro.core.samples import (
    Sample,
    StackFrame,
    StackTrace,
    ThreadSample,
    ThreadState,
)
from repro.core.trace import Trace, TraceMetadata

GUI = "AWT-EventQueue-0"

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The application whose golden traces stand for each workload family.
_FAMILY_APPS = {
    "gui": "CrosswordSage",
    "io_service": "OrderApi",
    "async_pipeline": "IndexBuilder",
}


def parity_golden_traces() -> List[Path]:
    """The golden ``.lila`` traces, narrowed by ``PARITY_FAMILY``.

    ``PARITY_FAMILY`` names one workload family (the CI family matrix
    runs one leg per family); unset, every golden trace is returned.
    """
    family = os.environ.get("PARITY_FAMILY", "")
    if family and family not in _FAMILY_APPS:
        raise RuntimeError(
            f"PARITY_FAMILY={family!r} is not one of {sorted(_FAMILY_APPS)}"
        )
    return sorted(
        path
        for path in GOLDEN_DIR.glob("*.lila")
        if not family or path.stem.startswith(_FAMILY_APPS[family])
    )

APP_FRAME = StackFrame("com.example.app.Editor", "update")
LIB_FRAME = StackFrame("javax.swing.JComponent", "paint")
NATIVE_FRAME = StackFrame("sun.java2d.loops.DrawLine", "DrawLine", is_native=True)


def ms(value: float) -> int:
    """Milliseconds to nanoseconds."""
    return round(value * NS_PER_MS)


def interval(
    kind: IntervalKind,
    symbol: str,
    start_ms: float,
    end_ms: float,
    children: Optional[List[Interval]] = None,
) -> Interval:
    return Interval(kind, symbol, ms(start_ms), ms(end_ms), children=children)


def dispatch(
    start_ms: float, end_ms: float, children: Optional[List[Interval]] = None
) -> Interval:
    return interval(
        IntervalKind.DISPATCH, "EventQueue.dispatchEvent",
        start_ms, end_ms, children,
    )


def listener_iv(
    symbol: str, start_ms: float, end_ms: float,
    children: Optional[List[Interval]] = None,
) -> Interval:
    return interval(IntervalKind.LISTENER, symbol, start_ms, end_ms, children)


def paint_iv(
    symbol: str, start_ms: float, end_ms: float,
    children: Optional[List[Interval]] = None,
) -> Interval:
    return interval(IntervalKind.PAINT, symbol, start_ms, end_ms, children)


def gc_iv(start_ms: float, end_ms: float, symbol: str = "GC.minor") -> Interval:
    return interval(IntervalKind.GC, symbol, start_ms, end_ms)


def episode(
    root: Interval, index: int = 0, samples: Sequence[Sample] = ()
) -> Episode:
    return Episode(root, index=index, gui_thread=GUI, samples=samples)


def gui_sample(
    at_ms: float,
    state: ThreadState = ThreadState.RUNNABLE,
    frames: Sequence[StackFrame] = (APP_FRAME,),
    extra_threads: Sequence[Tuple[str, ThreadState]] = (),
) -> Sample:
    """A sampling tick with the GUI thread plus optional extras."""
    entries = [ThreadSample(GUI, state, StackTrace(frames))]
    for name, thread_state in extra_threads:
        entries.append(ThreadSample(name, thread_state, StackTrace(())))
    return Sample(ms(at_ms), entries)


def make_trace(
    roots: Sequence[Interval],
    samples: Sequence[Sample] = (),
    e2e_ms: float = 10_000.0,
    short_count: int = 0,
    application: str = "TestApp",
    extra_threads: Optional[Dict[str, List[Interval]]] = None,
) -> Trace:
    metadata = TraceMetadata(
        application=application,
        session_id="s0",
        start_ns=0,
        end_ns=ms(e2e_ms),
        gui_thread=GUI,
    )
    thread_roots: Dict[str, List[Interval]] = {GUI: list(roots)}
    if extra_threads:
        thread_roots.update(extra_threads)
    return Trace(
        metadata, thread_roots, samples=samples, short_episode_count=short_count
    )


def simple_episode(
    lag_ms: float = 50.0,
    symbol: str = "com.example.ClickListener.actionPerformed",
    start_ms: float = 0.0,
    index: int = 0,
) -> Episode:
    """An episode with one listener child spanning most of the dispatch."""
    root = dispatch(
        start_ms,
        start_ms + lag_ms,
        [listener_iv(symbol, start_ms, start_ms + lag_ms)],
    )
    return episode(root, index=index)


def schema_names(path: Path) -> List[str]:
    """Every table and index name in a SQLite file, sorted."""
    connection = sqlite3.connect(str(path))
    try:
        return [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master ORDER BY name"
            )
        ]
    finally:
        connection.close()
