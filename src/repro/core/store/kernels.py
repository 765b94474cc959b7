"""Column kernels: the analysis implementations over the parallel arrays.

Every registered analysis maps through these functions alone: each
reads a whole :class:`~repro.core.store.columns.ColumnarTrace`'s arrays
directly, in plain Python loops. Each is the twin of one object-model
function (:mod:`repro.core.triggers`, :mod:`repro.core.threadstates`,
…), which stays as the reference implementation: the parity suite
requires both to produce the same summaries over the materialized
object graph. They are free functions (not methods) so the fused plan
executor (:mod:`repro.core.plan`) can compose them and feed shared
intermediate results — e.g. :func:`session_stats_row` accepts a
precomputed pattern-count table so one tally pass serves statistics,
occurrence, and pattern mining alike.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.intervals import NS_PER_MS
from repro.core.store.columns import (
    _GC_CODE,
    _KIND_CODES,
    _KIND_VALUES,
    _NATIVE_CODE,
    _PAINT_CODE,
    _STATES,
    _ThreadColumns,
)

#: One episode descriptor: ``(thread_idx, row, index, start, end)``.
EpisodeRow = Tuple[int, int, int, int, int]


# ----------------------------------------------------------------------
# Pattern mining on columns
# ----------------------------------------------------------------------


def pattern_key_of(
    store: Any, thread_idx: int, row: int, include_gc: bool = False
) -> str:
    """Canonical pattern key of the episode rooted at ``row``.

    :func:`thread_pattern_key` over the store's columns, memoized on
    the store.
    """
    cache_key = (thread_idx, row, include_gc)
    cached = store._key_cache.get(cache_key)
    if cached is not None:
        return cached
    key = thread_pattern_key(
        store.threads[thread_idx], store.strings, row, include_gc
    )
    store._key_cache[cache_key] = key
    return key


def thread_pattern_key(
    columns: _ThreadColumns,
    strings: Sequence[str],
    row: int,
    include_gc: bool = False,
) -> str:
    """Canonical pattern key of the subtree rooted at ``row`` of one
    thread's ``columns``, whose symbols index ``strings``.

    Identical to :func:`repro.core.patterns.pattern_key` over the
    materialized tree: the dispatch root is implicit, GC subtrees are
    elided unless ``include_gc``. The subtree must be closed (its
    ``size`` is set when its root closes).
    """
    kind = columns.kind
    symbol = columns.symbol
    size = columns.size
    parts: List[str] = []
    closes: List[int] = []
    i = row + 1
    stop = row + size[row]
    while i < stop:
        while closes and i >= closes[-1]:
            parts.append(")")
            closes.pop()
        code = kind[i]
        if code == _GC_CODE and not include_gc:
            i += size[i]
            continue
        parts.append("(")
        parts.append(_KIND_VALUES[code])
        parts.append("|")
        parts.append(strings[symbol[i]])
        closes.append(i + size[i])
        i += 1
    while closes:
        parts.append(")")
        closes.pop()
    return "".join(parts)


def pattern_counts(
    store: Any,
    threshold_ms: float,
    include_gc: bool = False,
    all_dispatch_threads: bool = False,
) -> Tuple[Dict[str, Tuple[int, int]], int]:
    """Per-pattern ``key -> (count, perceptible)`` tallies plus the
    count of structure-less episodes, in first-appearance key order
    (the order that makes merged tables bit-identical to serial
    mining).
    """
    counts: Dict[str, Tuple[int, int]] = {}
    excluded = 0
    rows = store.episode_rows(all_dispatch_threads=all_dispatch_threads)
    for thread_idx, row, _index, start, end in rows:
        if store.threads[thread_idx].size[row] <= 1:
            excluded += 1
            continue
        key = pattern_key_of(store, thread_idx, row, include_gc=include_gc)
        count, perceptible = counts.get(key, (0, 0))
        is_perceptible = (end - start) / NS_PER_MS >= threshold_ms
        counts[key] = (
            count + 1,
            perceptible + (1 if is_perceptible else 0),
        )
    return counts, excluded


# ----------------------------------------------------------------------
# Characterization analyses on columns
# ----------------------------------------------------------------------


def trigger_summary(store: Any, episode_rows: Sequence[EpisodeRow]) -> Any:
    """Columnar twin of :func:`repro.core.triggers.summarize`.

    The store's workload family supplies the kind-to-trigger vocabulary
    and whether the Swing repaint-manager reclassification applies; the
    default gui family reproduces the pre-family behavior exactly.
    """
    from repro.core.family import family_of
    from repro.core.triggers import Trigger, TriggerSummary

    family = family_of(store.metadata)
    trigger_codes = {
        _KIND_CODES[kind]: trig for kind, trig in family.trigger_map.items()
    }
    reclassify = family.reclassify_async_paint
    counts: Dict[Any, int] = {}
    for thread_idx, row, _index, _start, _end in episode_rows:
        columns = store.threads[thread_idx]
        kind = columns.kind
        size = columns.size
        trigger = Trigger.UNSPECIFIED
        stop = row + size[row]
        i = row + 1
        while i < stop:
            mapped = trigger_codes.get(kind[i])
            if mapped is not None:
                trigger = mapped
                if mapped is Trigger.ASYNC and reclassify:
                    for j in range(i + 1, i + size[i]):
                        if kind[j] == _PAINT_CODE:
                            trigger = Trigger.OUTPUT
                            break
                break
            i += 1
        counts[trigger] = counts.get(trigger, 0) + 1
    return TriggerSummary(counts)


def cause_tally(
    store: Any, episode_rows: Sequence[EpisodeRow]
) -> Dict[str, Tuple[int, int]]:
    """Columnar twin of :func:`repro.core.causegraph.tally_causes`.

    Rows of one episode subtree are stored in pre-order, so iterating
    them in row order reproduces the object path's first-appearance
    label order exactly. A row's self time is its duration minus the
    durations of its direct children, found through the thread-local
    ``parent`` column.
    """
    strings = store.strings
    totals: Dict[str, Tuple[int, int]] = {}
    for thread_idx, row, _index, _start, _end in episode_rows:
        columns = store.threads[thread_idx]
        n = columns.size[row]
        start = columns.start
        end = columns.end
        parent = columns.parent
        self_ns = [end[i] - start[i] for i in range(row, row + n)]
        for k in range(1, n):
            self_ns[parent[row + k] - row] -= end[row + k] - start[row + k]
        kind = columns.kind
        symbol = columns.symbol
        local: Dict[str, int] = {}
        for k in range(n):
            label = (
                _KIND_VALUES[kind[row + k]] + ":" + strings[symbol[row + k]]
            )
            local[label] = local.get(label, 0) + self_ns[k]
        for label, ns in local.items():
            total, count = totals.get(label, (0, 0))
            totals[label] = (total + ns, count + 1)
    return totals


def threadstate_summary(store: Any, episode_rows: Sequence[EpisodeRow]) -> Any:
    """Columnar twin of :func:`repro.core.threadstates.summarize`."""
    from repro.core.threadstates import ThreadStateSummary

    gui_id = store._strings_map.get(store.metadata.gui_thread, -1)
    tallies = [0] * len(_STATES)
    entry_state = store.entry_state
    for _thread_idx, _row, _index, start, end in episode_rows:
        lo, hi = store._tick_range(start, end)
        for tick in range(lo, hi):
            entry = store._gui_entry(tick, gui_id)
            if entry >= 0:
                tallies[entry_state[entry]] += 1
    counts = {
        state: tallies[code]
        for code, state in enumerate(_STATES)
        if tallies[code]
    }
    return ThreadStateSummary(counts)


def concurrency_summary(store: Any, episode_rows: Sequence[EpisodeRow]) -> Any:
    """Columnar twin of :func:`repro.core.concurrency.summarize`."""
    from repro.core.concurrency import ConcurrencySummary

    runnable_total = 0
    sample_count = 0
    sample_runnable = store.sample_runnable
    for _thread_idx, _row, _index, start, end in episode_rows:
        lo, hi = store._tick_range(start, end)
        sample_count += hi - lo
        for index in range(lo, hi):
            runnable_total += sample_runnable[index]
    return ConcurrencySummary(
        runnable_total=runnable_total, sample_count=sample_count
    )


def _merged_spans(
    columns: _ThreadColumns, row: int, code: int
) -> List[Tuple[int, int]]:
    """Merged (start, end) spans of ``code`` intervals under ``row``."""
    kind = columns.kind
    start = columns.start
    end = columns.end
    spans = [
        (start[i], end[i])
        for i in range(row + 1, row + columns.size[row])
        if kind[i] == code
    ]
    if not spans:
        return []
    spans.sort()
    merged = [spans[0]]
    for span_start, span_end in spans[1:]:
        last_start, last_end = merged[-1]
        if span_start <= last_end:
            merged[-1] = (last_start, max(last_end, span_end))
        else:
            merged.append((span_start, span_end))
    return merged


def location_summary(
    store: Any,
    episode_rows: Sequence[EpisodeRow],
    library_prefixes: Sequence[str],
) -> Any:
    """Columnar twin of :func:`repro.core.location.summarize`."""
    from repro.core.location import LocationSummary

    gui_id = store._strings_map.get(store.metadata.gui_thread, -1)
    app_samples = 0
    library_samples = 0
    gc_ns = 0
    native_ns = 0
    episode_ns = 0
    # 0 = excluded (empty or native leaf), 1 = library, 2 = app.
    classes: Dict[int, int] = {}
    stacks = store.stacks
    entry_stack = store.entry_stack
    for thread_idx, row, _index, start, end in episode_rows:
        episode_ns += end - start
        columns = store.threads[thread_idx]
        gc_spans = _merged_spans(columns, row, _GC_CODE)
        native_spans = _merged_spans(columns, row, _NATIVE_CODE)
        ep_gc = 0
        for span_start, span_end in gc_spans:
            lo = max(span_start, start)
            hi = min(span_end, end)
            if hi > lo:
                ep_gc += hi - lo
        ep_native = 0
        for span_start, span_end in native_spans:
            lo = max(span_start, start)
            hi = min(span_end, end)
            if hi > lo:
                ep_native += hi - lo
        overlap = 0
        for n_start, n_end in native_spans:
            for g_start, g_end in gc_spans:
                lo = max(n_start, g_start)
                hi = min(n_end, g_end)
                if hi > lo:
                    overlap += hi - lo
        gc_ns += ep_gc
        native_ns += ep_native - overlap
        lo, hi = store._tick_range(start, end)
        for tick in range(lo, hi):
            entry = store._gui_entry(tick, gui_id)
            if entry < 0:
                continue
            stack_id = entry_stack[entry]
            verdict = classes.get(stack_id)
            if verdict is None:
                stack = stacks[stack_id]
                leaf = stack.leaf
                if leaf is None or leaf.is_native:
                    verdict = 0
                elif leaf.is_library(library_prefixes):
                    verdict = 1
                else:
                    verdict = 2
                classes[stack_id] = verdict
            if verdict == 1:
                library_samples += 1
            elif verdict == 2:
                app_samples += 1
    return LocationSummary(
        app_samples=app_samples,
        library_samples=library_samples,
        gc_ns=gc_ns,
        native_ns=native_ns,
        episode_ns=episode_ns,
    )


def session_stats_row(
    store: Any,
    threshold_ms: float,
    precomputed_counts: Optional[Tuple[Dict[str, Tuple[int, int]], int]] = None,
) -> Any:
    """Columnar twin of :func:`repro.core.statistics.session_stats`.

    Works over the GUI thread's episodes (the Table III population),
    reproducing the reference implementation's arithmetic expression by
    expression so rows compare equal to the object path.
    ``precomputed_counts`` lets the fused plan executor pass in the
    ``(counts, excluded)`` result of a :func:`pattern_counts` call it
    already made with the identical parameters (``threshold_ms``,
    ``include_gc=False``, ``all_dispatch_threads=False``) — the row is
    the same either way, one tally pass cheaper.
    """
    from repro.core.patterns import key_depth, key_descendant_count
    from repro.core.statistics import SECONDS_PER_MINUTE, SessionStats

    rows = store.episode_rows(all_dispatch_threads=False)
    perceptible_count = 0
    in_episode_ns = 0
    for _thread_idx, _row, _index, start, end in rows:
        in_episode_ns += end - start
        if (end - start) / NS_PER_MS >= threshold_ms:
            perceptible_count += 1
    if precomputed_counts is not None:
        counts, _excluded = precomputed_counts
    else:
        counts, _excluded = pattern_counts(
            store, threshold_ms=threshold_ms, include_gc=False
        )
    in_episode_minutes = in_episode_ns / 1e9 / SECONDS_PER_MINUTE
    if in_episode_minutes > 0:
        long_per_min = perceptible_count / in_episode_minutes
    else:
        long_per_min = 0.0
    distinct = len(counts)
    covered = sum(count for count, _perceptible in counts.values())
    singletons = sum(
        1 for count, _perceptible in counts.values() if count == 1
    )
    if distinct:
        singleton_fraction = singletons / distinct
        mean_descendants = (
            sum(key_descendant_count(key) for key in counts) / distinct
        )
        mean_depth = sum(key_depth(key) for key in counts) / distinct
    else:
        singleton_fraction = 0.0
        mean_descendants = 0.0
        mean_depth = 0.0
    metadata = store.metadata
    if metadata.duration_ns == 0:
        in_episode_fraction = 0.0
    else:
        in_episode_fraction = in_episode_ns / metadata.duration_ns
    return SessionStats(
        application=metadata.application,
        e2e_s=metadata.duration_s,
        in_episode_pct=100.0 * in_episode_fraction,
        below_filter=float(store.short_episode_count),
        traced=float(len(rows)),
        perceptible=float(perceptible_count),
        long_per_min=long_per_min,
        distinct_patterns=float(distinct),
        covered_episodes=float(covered),
        singleton_pct=100.0 * singleton_fraction,
        mean_descendants=mean_descendants,
        mean_depth=mean_depth,
    )
