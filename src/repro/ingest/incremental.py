"""Incremental analysis over a live ingest session.

One-shot analysis waits for a complete trace file, builds the store,
then splits episodes and mines patterns. A live session never hands
over a complete file — records arrive a batch at a time, and the
interesting questions ("how many perceptible episodes so far?", "which
pattern keeps recurring?") want answers *between* batches.

:class:`IncrementalSessionAnalyzer` is the per-session pipeline the
daemon advances after every flush:

- :class:`~repro.lila.source.TextParser`, the line kernel every text
  trace goes through, parses each pushed line straight into the
  columns of an
  :class:`~repro.core.store.incremental.IncrementalColumnarBuilder`
  (same validation, same error messages, same line numbers as the file
  reader), which reports each root interval the lines completed;
- :class:`~repro.core.episodes.IncrementalEpisodeSplitter` turns the
  completed dispatch roots of the event dispatch thread into episodes,
  and per-episode pattern tallies advance immediately.

:meth:`rolling_summary` publishes the running totals at any moment.
When the session ends, :meth:`finalize` seals the builder with the
same :meth:`~repro.lila.source.TextParser.finish` a one-shot
:func:`~repro.lila.source.build_store` runs, so :meth:`summaries` over
the sealed trace is **byte-identical** to a one-shot analysis of the
same lines (the parity test pickles both).
"""

from __future__ import annotations

from typing import (
    Any,
    Counter as CounterType,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)
from collections import Counter

from repro.core.analyzer import AnalysisConfig, LagAlyzer
from repro.core.episodes import Episode, IncrementalEpisodeSplitter
from repro.core.errors import AnalysisError, LagAlyzerError
from repro.core.patterns import pattern_key
from repro.core.store.facade import FacadeTrace
from repro.core.store.incremental import IncrementalColumnarBuilder
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
        self._builder = IncrementalColumnarBuilder()
        self._parser = TextParser(self._builder, TraceSource())
        self._splitter: Optional[IncrementalEpisodeSplitter] = None
        #: Structural pattern tallies over episodes completed so far
        #: (episodes without structure are excluded, exactly as
        #: :meth:`PatternTable.from_episodes` excludes them).
        self.pattern_counts: CounterType[str] = Counter()
        self.unstructured_episodes = 0
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

    def push_line(self, line: str) -> List[Episode]:
        """Feed one record line; the episodes it completed (often none).

        Raises:
            TraceFormatError: the line (or the structure it implies) is
                invalid — stamped with the line number, identical to
                the file reader's message for the same damage.
        """
        return self.push_lines((line,))

    def push_lines(self, lines: Sequence[str]) -> List[Episode]:
        """Feed a batch of lines; all episodes the batch completed.

        Until the metadata has named the event dispatch thread the lines
        go in one at a time, so a root completed before that point is
        never taken for an episode. On damage, the episodes completed by
        the lines before the damaged one are advanced before the error
        propagates.
        """
        if self._sealed is not None:
            raise AnalysisError("session already finalized")
        if self.gui_thread is None:
            episodes: List[Episode] = []
            remaining = iter(lines)
            for line in remaining:
                episodes.extend(self._push((line,)))
                if self.gui_thread is not None:
                    episodes.extend(self._push(remaining))
                    break
            return episodes
        return self._push(lines)

    def _push(self, lines: Iterable[str]) -> List[Episode]:
        try:
            self._parser.feed_lines(lines)
        except LagAlyzerError:
            self._advance(self._builder.take_completed_roots())
            raise
        return self._advance(self._builder.take_completed_roots())

    def _advance(self, completed: List) -> List[Episode]:
        gui_thread = self.gui_thread
        if not completed or gui_thread is None:
            # Roots before the gui_thread meta record can't be episodes
            # we recognize; well-formed streams put metadata first.
            return []
        if self._splitter is None:
            self._splitter = IncrementalEpisodeSplitter(
                gui_thread,
                threshold_ms=self.config.perceptible_threshold_ms,
            )
        episodes: List[Episode] = []
        for thread_index, row in completed:
            name = self._builder.thread_name(thread_index)
            if name != gui_thread and not self.config.all_dispatch_threads:
                continue
            root = self._builder.materialize_root(thread_index, row)
            episode = self._splitter.push_root(root)
            if episode is None:
                continue
            if episode.has_structure:
                key = pattern_key(
                    episode,
                    include_gc=self.config.include_gc_in_patterns,
                )
                self.pattern_counts[key] += 1
            else:
                self.unstructured_episodes += 1
            episodes.append(episode)
        return episodes

    # ------------------------------------------------------------------
    # Rolling output
    # ------------------------------------------------------------------

    @property
    def episodes(self) -> List[Episode]:
        """Episodes completed so far, in completion order."""
        if self._splitter is None:
            return []
        return list(self._splitter.episodes)

    @property
    def perceptible_episodes(self) -> List[Episode]:
        """The perceptible subsequence of :attr:`episodes`."""
        if self._splitter is None:
            return []
        return list(self._splitter.perceptible)

    def rolling_summary(self) -> Dict[str, Any]:
        """Running totals over everything fed so far.

        A plain dict (JSON-friendly) the daemon republishes after every
        flush: episode and perceptible counts, distinct/covered pattern
        tallies, and the worst lag seen.
        """
        episodes = self.episodes
        perceptible = self.perceptible_episodes
        return {
            "session": self._builder.meta.get("session_id"),
            "application": self._builder.meta.get("application"),
            "lines": self.lines_fed,
            "records": self._builder.record_count,
            "episodes": len(episodes),
            "perceptible_episodes": len(perceptible),
            "threshold_ms": self.config.perceptible_threshold_ms,
            "distinct_patterns": len(self.pattern_counts),
            "covered_episodes": sum(self.pattern_counts.values()),
            "unstructured_episodes": self.unstructured_episodes,
            "longest_lag_ms": max(
                (ep.duration_ms for ep in episodes), default=0.0
            ),
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

    def summaries(
        self, names: Optional[Sequence[str]] = None
    ) -> Dict[str, Any]:
        """Final analysis summaries over the sealed trace.

        Runs the ordinary fused-plan path over :meth:`finalize`'s
        trace, so the result is byte-identical to a one-shot analysis
        of the same records.
        """
        trace = self.finalize()
        return LagAlyzer([trace], config=self.config).summaries(names)

    def __repr__(self) -> str:
        state = "sealed" if self._sealed is not None else "live"
        return (
            f"IncrementalSessionAnalyzer({self._label!r}, "
            f"{self.lines_fed} lines, "
            f"{len(self.episodes)} episodes, {state})"
        )
