"""Episodes: the unit of perceptible performance.

An *episode* (Section II) is the time interval from the point a user
request is dispatched until the point the request is completed. Episodes
longer than a threshold (100 ms in the paper) are *perceptible* and hurt
perceived performance. Each episode owns the dispatch interval tree of
the GUI thread plus the call-stack samples taken while it ran.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.errors import AnalysisError
from repro.core.intervals import Interval, IntervalKind
from repro.core.samples import Sample, ThreadSample, samples_in_range

#: The perceptibility threshold the paper uses throughout (Shneiderman's
#: 100 ms rule).
DEFAULT_PERCEPTIBLE_MS = 100.0

#: Interval kinds that may root an episode — one per workload family
#: (``dispatch``/gui, ``request``/io_service, ``stage``/async_pipeline).
#: :func:`repro.core.family.register_family` adds to this set.
EPISODE_ROOT_KINDS = {
    IntervalKind.DISPATCH,
    IntervalKind.REQUEST,
    IntervalKind.STAGE,
}


class Episode:
    """One handled user request, with its interval tree and samples.

    Attributes:
        root: the DISPATCH interval spanning the episode; its children
            are the listener/paint/native/async/GC intervals observed
            while the request was handled.
        index: ordinal of this episode within its session trace (0-based,
            in time order). Used e.g. to spot "first episode of a
            pattern was slow" initialization effects.
        gui_thread: name of the event dispatch thread the episode ran on.
        samples: the sampling ticks (of all threads) taken during the
            episode, in time order.
    """

    __slots__ = ("root", "index", "gui_thread", "samples")

    def __init__(
        self,
        root: Interval,
        index: int,
        gui_thread: str,
        samples: Sequence[Sample] = (),
    ) -> None:
        if root.kind not in EPISODE_ROOT_KINDS:
            raise AnalysisError(
                f"episode root must be a dispatch interval, got {root.kind.value}"
            )
        self.root = root
        self.index = index
        self.gui_thread = gui_thread
        self.samples: List[Sample] = list(samples)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    @property
    def start_ns(self) -> int:
        return self.root.start_ns

    @property
    def end_ns(self) -> int:
        return self.root.end_ns

    @property
    def duration_ns(self) -> int:
        return self.root.duration_ns

    @property
    def duration_ms(self) -> float:
        """Episode latency in milliseconds — the "lag" of the paper."""
        return self.root.duration_ms

    def is_perceptible(self, threshold_ms: float = DEFAULT_PERCEPTIBLE_MS) -> bool:
        """True if this episode's lag exceeds the perceptibility threshold."""
        return self.duration_ms >= threshold_ms

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def has_structure(self) -> bool:
        """True if the dispatch interval has any children.

        Episodes without internal structure are excluded from pattern
        coverage statistics (Table III, column "#Eps").
        """
        return bool(self.root.children)

    def descendant_count(self, include_gc: bool = True) -> int:
        """Number of descendants of the dispatch interval ("Descs")."""
        return self.root.descendant_count(include_gc=include_gc)

    def tree_depth(self, include_gc: bool = True) -> int:
        """Depth of the interval tree ("Depth"); a bare dispatch is 1."""
        return self.root.depth(include_gc=include_gc)

    def intervals_of_kind(self, kind: IntervalKind) -> List[Interval]:
        """All intervals of ``kind`` in this episode, pre-order."""
        return self.root.find_all(lambda node: node.kind is kind)

    # ------------------------------------------------------------------
    # Samples
    # ------------------------------------------------------------------

    def gui_samples(self) -> List[ThreadSample]:
        """The GUI thread's entries of this episode's sampling ticks."""
        result = []
        for sample in self.samples:
            entry = sample.thread(self.gui_thread)
            if entry is not None:
                result.append(entry)
        return result

    def attach_samples(self, session_samples: Sequence[Sample]) -> None:
        """Populate :attr:`samples` from a session-wide sample list.

        Args:
            session_samples: all sampling ticks of the session, sorted by
                timestamp.
        """
        self.samples = samples_in_range(
            session_samples, self.start_ns, self.end_ns
        )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Episode(#{self.index}, {self.duration_ms:.1f} ms, "
            f"{self.descendant_count()} descendants, "
            f"{len(self.samples)} samples)"
        )


def episodes_from_roots(
    roots: Sequence[Interval],
    gui_thread: str,
    session_samples: Sequence[Sample] = (),
    root_kind: IntervalKind = IntervalKind.DISPATCH,
) -> List[Episode]:
    """Build episodes from a thread's root episode-boundary intervals.

    Roots of other kinds (e.g. a GC that fell between episodes) are
    ignored.

    Args:
        roots: root intervals of the GUI thread's tree, in time order.
        gui_thread: name of the GUI thread.
        session_samples: all sampling ticks, sorted by time; each episode
            receives the slice that falls within it.
        root_kind: the workload family's episode-boundary kind
            (``dispatch`` for the default gui family).
    """
    episodes = []
    for root in roots:
        if root.kind is not root_kind:
            continue
        episode = Episode(root, index=len(episodes), gui_thread=gui_thread)
        if session_samples:
            episode.attach_samples(session_samples)
        episodes.append(episode)
    return episodes


def perceptible(
    episodes: Sequence[Episode], threshold_ms: float = DEFAULT_PERCEPTIBLE_MS
) -> List[Episode]:
    """The subsequence of episodes whose lag meets ``threshold_ms``."""
    return [ep for ep in episodes if ep.is_perceptible(threshold_ms)]


def total_in_episode_ns(episodes: Sequence[Episode]) -> int:
    """Total time spent handling user requests ("In-Eps" numerator)."""
    return sum(ep.duration_ns for ep in episodes)


def longest(episodes: Sequence[Episode]) -> Optional[Episode]:
    """The episode with the largest lag, or None if empty."""
    if not episodes:
        return None
    return max(episodes, key=lambda ep: ep.duration_ns)


def lag_ms(episodes: Sequence[Episode]) -> List[float]:
    """The lags of ``episodes`` in milliseconds, preserving order."""
    return [ep.duration_ms for ep in episodes]


def trace_episodes(trace, config) -> List[Episode]:
    """The episode population one trace contributes under ``config``.

    ``config`` is any object with an ``all_dispatch_threads`` attribute
    (in practice an :class:`~repro.study.config.AnalysisConfig`); when
    set, episodes of every dispatch-capable thread are merged in time
    order instead of only the GUI thread's.
    """
    if config.all_dispatch_threads:
        return trace.all_episodes()
    return trace.episodes

