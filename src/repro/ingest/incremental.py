"""Incremental analysis over a growing session spool.

One-shot analysis waits for a complete trace file, builds the store,
then splits episodes and mines patterns. A live session's spool grows a
batch at a time, and the interesting questions ("how many perceptible
episodes so far?", "which pattern keeps recurring?") want answers
*between* batches.

:class:`IncrementalSessionAnalyzer` is the rolling analysis
``lagalyzer ingest tail`` advances over each batch of lines it reads
from a spool:

- :class:`~repro.lila.source.TextParser`, the line kernel every text
  trace goes through, parses each pushed line straight into the
  columns of a :class:`~repro.core.store.build.ColumnarBuilder` (same
  validation, same error messages, same line numbers as the file
  reader);
- the builder appends each root interval to its thread's ``root_rows``
  as the root closes, and nothing reopens a closed root. After every
  push the analyzer walks each thread's ``root_rows`` on from a
  per-thread cursor and keeps the roots of the trace family's episode
  root kind on the event dispatch thread (on every thread under
  ``all_dispatch_threads``): the rows
  :meth:`~repro.core.store.columns.ColumnarTrace.episode_rows` holds
  once the trace is sealed. Lag, perceptibility and pattern keys come
  from the column kernels the batch analysis maps with.

:meth:`rolling_summary` publishes the running totals at any moment.
When the session ends, :meth:`finalize` seals the builder with the
same :meth:`~repro.lila.source.TextParser.finish` a one-shot
:func:`~repro.lila.source.build_store` runs, so an analysis of the
sealed trace is **byte-identical** to a one-shot analysis of the same
lines (the parity test pickles both).
"""

from __future__ import annotations

from typing import (
    Any,
    Counter as CounterType,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)
from collections import Counter

from repro.core.analyzer import AnalysisConfig
from repro.core.errors import AnalysisError, LagAlyzerError
from repro.core.family import family_of
from repro.core.intervals import NS_PER_MS
from repro.core.store.build import ColumnarBuilder
from repro.core.store.columns import _KIND_CODES
from repro.core.store.facade import FacadeTrace
from repro.core.store.kernels import thread_pattern_key
from repro.lila.source import TextParser, TraceSource


class IncrementalSessionAnalyzer:
    """Rolling episode/pattern analysis for one in-flight session."""

    def __init__(
        self,
        label: Optional[str] = None,
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.config = config or AnalysisConfig()
        self._label = label if label is not None else "<push>"
        self._builder = ColumnarBuilder()
        self._parser = TextParser(self._builder, TraceSource())
        #: Per thread index, how many of its ``root_rows`` were walked;
        #: None until the metadata names the event dispatch thread.
        self._cursors: Optional[List[int]] = None
        #: Structural pattern tallies over episodes completed so far
        #: (episodes without structure are excluded, exactly as
        #: :meth:`PatternTable.from_episodes` excludes them).
        self.pattern_counts: CounterType[str] = Counter()
        self.unstructured_episodes = 0
        self._episodes = 0
        self._perceptible = 0
        self._longest_ns = 0
        self._sealed: Optional[FacadeTrace] = None

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------

    @property
    def gui_thread(self) -> Optional[str]:
        """The event dispatch thread, once the metadata announced it."""
        name = self._builder.meta.get("gui_thread")
        return name if isinstance(name, str) else None

    @property
    def lines_fed(self) -> int:
        """Lines pushed so far, the header and any damaged line included."""
        return self._parser.line_no

    def push_line(self, line: str) -> List[Tuple[int, int]]:
        """Feed one record line; the episodes it completed (often none).

        Raises:
            TraceFormatError: the line (or the structure it implies) is
                invalid — stamped with the line number, identical to
                the file reader's message for the same damage.
        """
        return self.push_lines((line,))

    def push_lines(self, lines: Iterable[str]) -> List[Tuple[int, int]]:
        """Feed a batch of lines; the episodes the batch completed.

        Each episode is its ``(thread index, root row)`` in the
        builder's columns, thread by thread in row order. Until the
        metadata has named the event dispatch thread the lines go in
        one at a time, so a root completed before that point is never
        taken for an episode. On damage, the episodes completed by the
        lines before the damaged one are counted before the error
        propagates.
        """
        if self._sealed is not None:
            raise AnalysisError("session already finalized")
        try:
            if self._cursors is None:
                lines = iter(lines)
                for line in lines:
                    self._parser.feed_lines((line,))
                    if self.gui_thread is not None:
                        self._cursors = [
                            len(columns.root_rows)
                            for columns in self._builder.threads
                        ]
                        break
            self._parser.feed_lines(lines)
        except LagAlyzerError:
            self._advance()
            raise
        return self._advance()

    def _advance(self) -> List[Tuple[int, int]]:
        """Count the episodes among the roots closed since the last walk."""
        cursors = self._cursors
        if cursors is None:
            return []
        builder = self._builder
        config = self.config
        gui_thread = self.gui_thread
        # The builder holds the ``x.`` metadata as ``extra``, where the
        # family registry looks the declared family up.
        root_code = _KIND_CODES[family_of(builder).root_kind]
        strings = builder.interns.strings
        completed: List[Tuple[int, int]] = []
        for index, columns in enumerate(builder.threads):
            if index == len(cursors):
                cursors.append(0)
            if columns.name != gui_thread and not config.all_dispatch_threads:
                continue
            kind = columns.kind
            start = columns.start
            end = columns.end
            size = columns.size
            roots = columns.root_rows
            for row in roots[cursors[index]:]:
                if kind[row] != root_code:
                    continue
                completed.append((index, row))
                lag_ns = end[row] - start[row]
                if lag_ns / NS_PER_MS >= config.perceptible_threshold_ms:
                    self._perceptible += 1
                if lag_ns > self._longest_ns:
                    self._longest_ns = lag_ns
                if size[row] > 1:
                    key = thread_pattern_key(
                        columns, strings, row, config.include_gc_in_patterns
                    )
                    self.pattern_counts[key] += 1
                else:
                    self.unstructured_episodes += 1
            cursors[index] = len(roots)
        self._episodes += len(completed)
        return completed

    # ------------------------------------------------------------------
    # Rolling output
    # ------------------------------------------------------------------

    def rolling_summary(self) -> Dict[str, Any]:
        """Running totals over everything fed so far.

        A plain dict (JSON-friendly), one line of ``ingest tail``'s
        output: episode and perceptible counts, distinct/covered pattern
        tallies, and the worst lag seen.
        """
        return {
            "session": self._builder.meta.get("session_id"),
            "application": self._builder.meta.get("application"),
            "lines": self.lines_fed,
            "records": self._builder.record_count,
            "episodes": self._episodes,
            "perceptible_episodes": self._perceptible,
            "threshold_ms": self.config.perceptible_threshold_ms,
            "distinct_patterns": len(self.pattern_counts),
            "covered_episodes": sum(self.pattern_counts.values()),
            "unstructured_episodes": self.unstructured_episodes,
            "longest_lag_ms": self._longest_ns / NS_PER_MS,
        }

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def finalize(self) -> FacadeTrace:
        """Seal the builder into the trace a one-shot build would make.

        Safe to call once, after the last line; the same closure and
        bounds invariants a one-shot :func:`build_store` enforces apply,
        with the same typed errors (a stream that left intervals open
        raises here).
        """
        if self._sealed is None:
            self._sealed = FacadeTrace(self._parser.finish())
        return self._sealed

    def __repr__(self) -> str:
        state = "sealed" if self._sealed is not None else "live"
        return (
            f"IncrementalSessionAnalyzer({self._label!r}, "
            f"{self.lines_fed} lines, "
            f"{self._episodes} episodes, {state})"
        )
