"""Per-episode dependency graphs and latency cause analysis.

The characterization axes answer *how much* lag a workload has and what
shape it takes; this module answers *why one run is slower than
another*. Three layers build on each other:

1. **Cause vectors** — every interval of an episode contributes its
   *self time* (duration minus direct children) under a stable label
   ``"<kind>:<symbol>"``. Folding those per-episode vectors over a
   population yields a ``label -> (total self ns, episode count)``
   tally: an exact, integer decomposition of in-episode time by cause.
   GC pauses (``gc:<collector>``) and IO dependencies
   (``iowait:<resource>``) land in the same vocabulary as compute, so
   one tally spans intervals, threads, GC, and IO waits.
2. **Dependency graphs** — :func:`build_graph` materializes one
   episode's interval tree as an explicit :class:`EpisodeCauseGraph`
   whose nodes carry self times and dependency categories;
   :func:`critical_path` walks the heaviest chain from the root,
   :func:`rank_outliers` contrasts the per-episode mean cause vectors
   of outlier episodes against the rest.
3. **Run diffing** — :func:`rank_cause_deltas` attributes a latency
   delta between two runs' label-ordered cause totals to ranked
   per-label deltas (regressions first). ``LagAlyzer.diff`` and
   ``repro study diff`` feed it the study warehouse's cause rollup;
   :func:`diff_cause_totals` feeds it two in-memory tallies.

The tally is exposed to the engine as the ``causes`` analysis
(:mod:`repro.core.analyses`), whose map runs the columnar kernel
:func:`repro.core.store.kernels.cause_tally`. :func:`tally_causes` here
is its object-model reference: both iterate episodes in population
order and labels in first-appearance pre-order, so their tallies are
byte-identical and partials merge and pickle deterministically across
worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.core.episodes import Episode
from repro.core.intervals import Interval, IntervalKind

#: ``label -> (total self ns, episodes containing the label)``.
CauseTally = Dict[str, Tuple[int, int]]

#: Dependency category per interval kind: how a node's self time blocks
#: the episode. Everything not listed is on-thread compute.
_CATEGORIES = {
    IntervalKind.GC: "gc",
    IntervalKind.IOWAIT: "io",
    IntervalKind.ASYNC: "async",
    IntervalKind.NATIVE: "native",
}


def cause_label(interval: Interval) -> str:
    """The stable cause label of one interval: ``"<kind>:<symbol>"``."""
    return f"{interval.kind.value}:{interval.symbol}"


def episode_cause_items(episode: Episode) -> List[Tuple[str, int]]:
    """``(label, self ns)`` per distinct label of one episode.

    Labels appear in first-appearance pre-order — the order the
    columnar kernel reproduces from the row layout — and self times sum
    exactly to the episode's duration (self time is a partition of the
    subtree's span).
    """
    local: Dict[str, int] = {}
    for node in episode.root.preorder():
        label = cause_label(node)
        local[label] = local.get(label, 0) + node.self_time_ns()
    return list(local.items())


def tally_causes(episodes: Iterable[Episode]) -> CauseTally:
    """Fold per-episode cause vectors over a population.

    The returned dict is in first-appearance order over episodes in
    population order; the episode count of a label counts episodes in
    which the label appears at least once.
    """
    totals: CauseTally = {}
    for episode in episodes:
        for label, self_ns in episode_cause_items(episode):
            total, count = totals.get(label, (0, 0))
            totals[label] = (total + self_ns, count + 1)
    return totals


def merge_cause_tallies(tallies: Sequence[CauseTally]) -> CauseTally:
    """Associative add-merge of tallies, in the given order.

    Merging per-trace tallies in trace order preserves first-appearance
    label order, so merged results are byte-identical to one pass over
    all traces.
    """
    merged: CauseTally = {}
    for tally in tallies:
        for label, (total, count) in tally.items():
            prev_total, prev_count = merged.get(label, (0, 0))
            merged[label] = (prev_total + total, prev_count + count)
    return merged


@dataclass(frozen=True)
class CauseSummary:
    """The ``causes`` analysis summary: one population's cause tally.

    Attributes:
        entries: ``(label, total self ns, episode count)`` rows in
            first-appearance order — stable across worker counts, so
            summaries pickle deterministically.
    """

    entries: Tuple[Tuple[str, int, int], ...]

    @classmethod
    def from_tally(cls, tally: CauseTally) -> "CauseSummary":
        return cls(
            entries=tuple(
                (label, total, count)
                for label, (total, count) in tally.items()
            )
        )

    def as_tally(self) -> CauseTally:
        return {label: (total, count) for label, total, count in self.entries}

    @property
    def total_ns(self) -> int:
        """Total attributed self time — the population's in-episode ns."""
        return sum(total for _label, total, _count in self.entries)

    def top(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """The ``n`` heaviest causes, by total self time (ties by label)."""
        ranked = sorted(self.entries, key=lambda e: (-e[1], e[0]))
        return ranked[:n]

    def __repr__(self) -> str:
        return (
            f"CauseSummary({len(self.entries)} causes, "
            f"{self.total_ns} ns attributed)"
        )


# ----------------------------------------------------------------------
# Per-episode dependency graphs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CauseNode:
    """One interval of an episode, as a dependency-graph node."""

    index: int
    label: str
    kind: IntervalKind
    symbol: str
    start_ns: int
    end_ns: int
    self_ns: int
    parent: int
    """Index of the parent node, ``-1`` for the episode root."""
    children: Tuple[int, ...]
    category: str
    """``compute``, ``gc``, ``io``, ``async``, or ``native``."""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class EpisodeCauseGraph:
    """One episode's interval tree as an explicit dependency graph.

    Nodes are in pre-order (node 0 is the episode root); edges are the
    nesting structure, and each node's ``category`` says whether its
    self time was compute on the episode's thread or a dependency the
    thread waited on (GC pause, IO wait, async hand-off, native call).
    """

    episode_index: int
    thread: str
    nodes: Tuple[CauseNode, ...]

    @property
    def root(self) -> CauseNode:
        return self.nodes[0]

    @property
    def duration_ns(self) -> int:
        return self.root.duration_ns

    def blocked_ns(self) -> int:
        """Self time spent in dependency (non-compute) nodes."""
        return sum(
            node.self_ns for node in self.nodes if node.category != "compute"
        )


def build_graph(episode: Episode) -> EpisodeCauseGraph:
    """Materialize one episode's dependency graph."""
    nodes: List[CauseNode] = []
    children: Dict[int, List[int]] = {}
    stack: List[Tuple[Interval, int]] = [(episode.root, -1)]
    order: List[Tuple[Interval, int]] = []
    while stack:
        interval, parent = stack.pop()
        index = len(order)
        order.append((interval, parent))
        children[index] = []
        if parent >= 0:
            children[parent].append(index)
        for child in reversed(interval.children):
            stack.append((child, index))
    for index, (interval, parent) in enumerate(order):
        nodes.append(
            CauseNode(
                index=index,
                label=cause_label(interval),
                kind=interval.kind,
                symbol=interval.symbol,
                start_ns=interval.start_ns,
                end_ns=interval.end_ns,
                self_ns=interval.self_time_ns(),
                parent=parent,
                children=tuple(children[index]),
                category=_CATEGORIES.get(interval.kind, "compute"),
            )
        )
    return EpisodeCauseGraph(
        episode_index=episode.index,
        thread=episode.gui_thread,
        nodes=tuple(nodes),
    )


def critical_path(graph: EpisodeCauseGraph) -> Tuple[CauseNode, ...]:
    """The heaviest root-to-leaf chain of the dependency graph.

    From each node, descend into the child with the largest duration
    (ties break toward the earlier child, which is deterministic because
    pre-order fixes child order). The returned chain starts at the
    episode root; summing the chain's self times plus the leaf's
    duration bounds the episode's latency floor under infinite
    parallelism of everything off the chain.
    """
    path: List[CauseNode] = []
    node = graph.root
    while True:
        path.append(node)
        if not node.children:
            return tuple(path)
        node = max(
            (graph.nodes[child] for child in node.children),
            key=lambda child: (child.duration_ns, -child.start_ns),
        )


def rank_outliers(
    episodes: Sequence[Episode], threshold_ms: float
) -> List[Tuple[str, float]]:
    """Rank causes by how much more they cost in outlier episodes.

    Episodes at or above ``threshold_ms`` are outliers; the rest are the
    baseline. For each label, the score is the difference of per-episode
    mean self times (outlier mean minus baseline mean, in ns). Positive
    scores mark causes concentrated in the slow tail. Ranked by
    ``(-score, label)``, so the ranking is deterministic.
    """
    outliers = [ep for ep in episodes if ep.is_perceptible(threshold_ms)]
    baseline = [ep for ep in episodes if not ep.is_perceptible(threshold_ms)]
    out_tally = tally_causes(outliers)
    base_tally = tally_causes(baseline)
    scores: Dict[str, float] = {}
    for label, (total, _count) in out_tally.items():
        scores[label] = total / len(outliers)
    for label, (total, _count) in base_tally.items():
        scores[label] = scores.get(label, 0.0) - total / len(baseline)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


# ----------------------------------------------------------------------
# Run diffing
# ----------------------------------------------------------------------


class CauseDelta(NamedTuple):
    """One label's contribution to a latency delta between two runs.

    A named tuple: a report holds one per label of either run, so it is
    built as cheaply as a tuple and unpacks and indexes as one.
    """

    label: str
    delta_ns: int
    """``b - a`` total self time; positive means run B is slower here."""
    a_total_ns: int
    b_total_ns: int
    a_episodes: int
    b_episodes: int


@dataclass(frozen=True)
class DiffReport:
    """A latency delta between two runs, attributed to ranked causes."""

    run_a: str
    run_b: str
    total_delta_ns: int
    """Sum of all per-label deltas — the total in-episode ns shift."""
    deltas: Tuple[CauseDelta, ...]
    """Every label of either run, ranked regressions first
    (``(-delta_ns, label)`` order)."""

    def regressions(self, n: int = 10) -> List[CauseDelta]:
        """The ``n`` heaviest regressions (positive deltas only)."""
        return [d for d in self.deltas if d.delta_ns > 0][:n]

    def improvements(self, n: int = 10) -> List[CauseDelta]:
        """The ``n`` heaviest improvements (negative deltas only)."""
        improved = [d for d in self.deltas if d.delta_ns < 0]
        improved.sort(key=lambda d: (d.delta_ns, d.label))
        return improved[:n]

    def __repr__(self) -> str:
        return (
            f"DiffReport({self.run_a!r} -> {self.run_b!r}, "
            f"{self.total_delta_ns} ns, {len(self.deltas)} causes)"
        )


def diff_cause_totals(
    tally_a: CauseTally, tally_b: CauseTally, run_a: str, run_b: str
) -> DiffReport:
    """Attribute the latency delta from run A to run B to causes.

    Labels missing from one run contribute their full total from the
    other (a cause that appeared, or vanished, is itself the delta).
    """
    return rank_cause_deltas(
        [(label, ns, count) for label, (ns, count) in sorted(tally_a.items())],
        [(label, ns, count) for label, (ns, count) in sorted(tally_b.items())],
        run_a,
        run_b,
    )


def rank_cause_deltas(
    rows_a: Sequence[Tuple[str, int, int]],
    rows_b: Sequence[Tuple[str, int, int]],
    run_a: str,
    run_b: str,
) -> DiffReport:
    """Rank two runs' per-label totals into a :class:`DiffReport`.

    ``rows_a`` and ``rows_b`` are ``(label, total ns, episodes)`` rows,
    one per label, in ascending label order — the order the study
    warehouse returns them in. One merge pass builds the deltas in label
    order; a stable sort on ``delta_ns`` then leaves ties in label
    order, which is the report's ``(-delta_ns, label)`` ranking.
    """
    deltas: List[CauseDelta] = []
    total = 0
    iter_a, iter_b = iter(rows_a), iter(rows_b)
    row_a, row_b = next(iter_a, None), next(iter_b, None)
    while row_a is not None or row_b is not None:
        if row_b is None or (row_a is not None and row_a[0] < row_b[0]):
            label, a_total, a_count = row_a
            b_total = b_count = 0
            row_a = next(iter_a, None)
        elif row_a is None or row_b[0] < row_a[0]:
            label, b_total, b_count = row_b
            a_total = a_count = 0
            row_b = next(iter_b, None)
        else:
            label, a_total, a_count = row_a
            b_total, b_count = row_b[1], row_b[2]
            row_a, row_b = next(iter_a, None), next(iter_b, None)
        delta = b_total - a_total
        total += delta
        deltas.append(
            CauseDelta(label, delta, a_total, b_total, a_count, b_count)
        )
    deltas.sort(key=itemgetter(1), reverse=True)
    return DiffReport(
        run_a=run_a, run_b=run_b, total_delta_ns=total, deltas=tuple(deltas)
    )
