"""Pattern mining: grouping episodes into structural equivalence classes.

Looking at an individual episode is usually not enough to determine the
cause of long latency (Section II-C). LagAlyzer therefore groups episodes
into equivalence classes — *patterns* — based on the structure of their
interval trees: the kind of each interval and its symbolic information
(class/method names), but **not** its timing, and with GC intervals
elided (a collection may or may not be the fault of the code it happens
to interrupt; Section II-D).

The pattern key is a canonical pre-order string encoding of the GC-blind
tree, so two episodes are equivalent iff their keys compare equal, and
keys are stable across runs and processes.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.episodes import DEFAULT_PERCEPTIBLE_MS, Episode
from repro.core.intervals import Interval, IntervalKind

#: Separators for the canonical key encoding. Chosen outside the
#: character set of Java identifiers so keys cannot be ambiguous.
_OPEN = "("
_CLOSE = ")"
_SEP = "|"


def _encode(node: Interval, parts: List[str], include_gc: bool) -> None:
    parts.append(_OPEN)
    parts.append(node.kind.value)
    parts.append(_SEP)
    parts.append(node.symbol)
    for child in node.children:
        if include_gc or child.kind is not IntervalKind.GC:
            _encode(child, parts, include_gc)
    parts.append(_CLOSE)


def pattern_key(episode: Episode, include_gc: bool = False) -> str:
    """Canonical structural key of an episode's interval tree.

    The dispatch root is implicit (every episode has one), so the key
    encodes only the dispatch's descendants. Timing is excluded by
    construction; GC nodes are elided unless ``include_gc`` is set
    (exposed for the GC-blindness ablation).

    Returns:
        The canonical key; the empty string for an episode whose
        dispatch interval has no (non-GC) children.
    """
    parts: List[str] = []
    for child in episode.root.children:
        if include_gc or child.kind is not IntervalKind.GC:
            _encode(child, parts, include_gc)
    return "".join(parts)


def key_descendant_count(key: str) -> int:
    """Number of intervals encoded in a pattern key."""
    return key.count(_OPEN)


def key_depth(key: str) -> int:
    """Depth of the tree encoded in a pattern key.

    The implicit dispatch root counts as depth 1, matching
    :meth:`Episode.tree_depth`; an empty key therefore has depth 1.

    Depth only rises inside a run of text free of ``)``, so it peaks
    at the end of some run. The first run starts at the root's depth
    1; every later run starts one level below where the previous one
    ended (the ``)`` between them). A running sum of per-run steps
    therefore yields every peak, from one split and one ``str.count``
    per run instead of a Python loop over every character.
    """
    steps = [piece.count(_OPEN) - 1 for piece in key.split(_CLOSE)]
    steps[0] += 2
    return max(accumulate(steps))


class Pattern:
    """One equivalence class of episodes and its lag statistics.

    The Pattern Browser (Section II-E) shows, for each pattern, the
    number of episodes and the minimum, average, maximum, and total lag
    over all of the pattern's episodes.
    """

    __slots__ = ("key", "episodes")

    def __init__(self, key: str, episodes: Optional[List[Episode]] = None) -> None:
        self.key = key
        self.episodes: List[Episode] = episodes if episodes is not None else []

    # ------------------------------------------------------------------
    # Lag statistics
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of episodes in this pattern."""
        return len(self.episodes)

    @property
    def is_singleton(self) -> bool:
        """True if the pattern contains exactly one episode."""
        return len(self.episodes) == 1

    @property
    def min_lag_ms(self) -> float:
        return min(ep.duration_ms for ep in self.episodes)

    @property
    def max_lag_ms(self) -> float:
        return max(ep.duration_ms for ep in self.episodes)

    @property
    def avg_lag_ms(self) -> float:
        return self.total_lag_ms / len(self.episodes)

    @property
    def total_lag_ms(self) -> float:
        return sum(ep.duration_ms for ep in self.episodes)

    def perceptible_count(
        self, threshold_ms: float = DEFAULT_PERCEPTIBLE_MS
    ) -> int:
        """How many of this pattern's episodes are perceptible."""
        return sum(1 for ep in self.episodes if ep.is_perceptible(threshold_ms))

    def has_perceptible(
        self, threshold_ms: float = DEFAULT_PERCEPTIBLE_MS
    ) -> bool:
        return any(ep.is_perceptible(threshold_ms) for ep in self.episodes)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def representative(self) -> Episode:
        """The first episode of the pattern (what the browser sketches)."""
        return self.episodes[0]

    @property
    def descendant_count(self) -> int:
        """Size of the pattern's (GC-blind) tree ("Descs")."""
        return key_descendant_count(self.key)

    @property
    def depth(self) -> int:
        """Depth of the pattern's (GC-blind) tree ("Depth")."""
        return key_depth(self.key)

    def gc_episode_count(self) -> int:
        """Episodes of this pattern that contain at least one GC interval.

        Because pattern keys are GC-blind, a developer uses this to tell
        whether a class *always* or *rarely* contains collections — the
        diagnostic the paper motivates in Section II-D.
        """
        return sum(
            1
            for ep in self.episodes
            if ep.root.find(lambda n: n.kind is IntervalKind.GC) is not None
        )

    def __repr__(self) -> str:
        return (
            f"Pattern({self.count} episodes, "
            f"max {self.max_lag_ms:.1f} ms, key={self.key[:40]!r}...)"
        )


def cumulative_distribution_from_counts(
    counts: Sequence[int], points: int = 100
) -> List[float]:
    """The Figure 3 curve from per-pattern episode counts alone.

    The curve depends only on the multiset of counts (patterns are
    ranked most-frequent first; ties contribute identical values), so
    it can be computed from merged per-trace tallies without ever
    materializing Pattern objects.
    """
    ranked = sorted(counts, reverse=True)
    total = sum(ranked)
    if total == 0 or not ranked:
        return [0.0] * (points + 1)
    cumulative = []
    running = 0
    for count in ranked:
        running += count
        cumulative.append(running)
    result = []
    n = len(ranked)
    for i in range(points + 1):
        # Number of patterns included at this x-axis position.
        k = round(i * n / points)
        if k <= 0:
            result.append(0.0)
        else:
            result.append(100.0 * cumulative[min(k, n) - 1] / total)
    return result


class PatternTable:
    """The pattern browser's table: all patterns mined from episodes.

    Episodes without internal structure (a dispatch interval with no
    children at all) are excluded, matching Table III's "#Eps" column.
    """

    def __init__(
        self, patterns: Sequence[Pattern], excluded_episodes: int = 0
    ) -> None:
        self._patterns: List[Pattern] = list(patterns)
        self.excluded_episodes = excluded_episodes

    @classmethod
    def from_episodes(
        cls, episodes: Iterable[Episode], include_gc: bool = False
    ) -> "PatternTable":
        """Mine patterns from ``episodes``.

        Args:
            episodes: episodes from one or more sessions (the paper's
                analysis integrates multiple traces).
            include_gc: include GC nodes in pattern keys (ablation knob;
                the paper's tool always excludes them).
        """
        by_key: Dict[str, Pattern] = {}
        excluded = 0
        for episode in episodes:
            if not episode.has_structure:
                excluded += 1
                continue
            key = pattern_key(episode, include_gc=include_gc)
            pattern = by_key.get(key)
            if pattern is None:
                pattern = Pattern(key)
                by_key[key] = pattern
            pattern.episodes.append(episode)
        return cls(list(by_key.values()), excluded_episodes=excluded)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def rows(self) -> List[Pattern]:
        """Patterns ordered by total lag, worst first (browser default)."""
        return sorted(
            self._patterns, key=lambda p: p.total_lag_ms, reverse=True
        )

    def by_count(self) -> List[Pattern]:
        """Patterns ordered by episode count, most frequent first."""
        return sorted(self._patterns, key=lambda p: p.count, reverse=True)

    def get(self, key: str) -> Optional[Pattern]:
        """The pattern with exactly this key, or None."""
        for pattern in self._patterns:
            if pattern.key == key:
                return pattern
        return None

    def perceptible_only(
        self, threshold_ms: float = DEFAULT_PERCEPTIBLE_MS
    ) -> "PatternTable":
        """Filtered table keeping patterns with ≥1 perceptible episode.

        This is the browser's "elide patterns without perceptible
        episodes" filter.
        """
        kept = [p for p in self._patterns if p.has_perceptible(threshold_ms)]
        return PatternTable(kept, excluded_episodes=self.excluded_episodes)

    # ------------------------------------------------------------------
    # Aggregate statistics (Table III "Patterns" block)
    # ------------------------------------------------------------------

    @property
    def distinct_count(self) -> int:
        """Number of distinct patterns ("Dist")."""
        return len(self._patterns)

    @property
    def covered_episodes(self) -> int:
        """Episodes covered by some pattern ("#Eps")."""
        return sum(p.count for p in self._patterns)

    @property
    def singleton_count(self) -> int:
        """Patterns containing only a single episode."""
        return sum(1 for p in self._patterns if p.is_singleton)

    @property
    def singleton_fraction(self) -> float:
        """Fraction of patterns that are singletons ("One-Ep")."""
        if not self._patterns:
            return 0.0
        return self.singleton_count / len(self._patterns)

    @property
    def singleton_episode_fraction(self) -> float:
        """Fraction of covered episodes that live in singleton patterns.

        The paper notes singletons are 56% of patterns but only account
        for about 10% of episodes.
        """
        covered = self.covered_episodes
        if covered == 0:
            return 0.0
        return self.singleton_count / covered

    @property
    def mean_descendants(self) -> float:
        """Average pattern-tree size over all patterns ("Descs")."""
        if not self._patterns:
            return 0.0
        return sum(p.descendant_count for p in self._patterns) / len(
            self._patterns
        )

    @property
    def mean_depth(self) -> float:
        """Average pattern-tree depth over all patterns ("Depth")."""
        if not self._patterns:
            return 0.0
        return sum(p.depth for p in self._patterns) / len(self._patterns)

    def cumulative_episode_distribution(self, points: int = 100) -> List[float]:
        """The Figure 3 curve: cumulative episode coverage by pattern rank.

        Patterns are ranked by episode count (most frequent first). The
        returned list has ``points + 1`` values: entry *i* is the
        percentage of episodes covered by the top ``i / points`` fraction
        of patterns. With Pareto-like data, entry at 20% of patterns is
        near 80% of episodes.
        """
        return cumulative_distribution_from_counts(
            [p.count for p in self._patterns], points=points
        )

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._patterns)

    def __len__(self) -> int:
        return len(self._patterns)

    def __repr__(self) -> str:
        return (
            f"PatternTable({len(self._patterns)} patterns, "
            f"{self.covered_episodes} episodes, "
            f"{self.excluded_episodes} excluded)"
        )
