#!/usr/bin/env python
"""Pattern mining across multiple sessions (Sections II-C to II-E).

The paper integrates several traces into one pattern analysis: patterns
that recur across sessions with consistent lag are the deterministic
problems worth fixing first. This example runs two GanttProject sessions
(the paper's pattern-richest application), mines patterns over both,
classifies them by occurrence, and shows the perceptibility-threshold
ablation (100 ms vs the literature's 150/195 ms).

Run:  python examples/pattern_mining.py
"""

from repro import AnalysisConfig, LagAlyzer
from repro.apps.sessions import simulate_sessions
from repro.core.occurrence import Occurrence, classify_pattern, summarize
from repro.viz.browser import render_episode_list, render_pattern_browser

SCALE = 0.2


def main() -> None:
    print("simulating 2 GanttProject sessions...")
    traces = simulate_sessions("GanttProject", count=2, seed=7, scale=SCALE)
    analyzer = LagAlyzer.from_traces(traces)
    table = analyzer.pattern_table()

    print(
        f"{table.distinct_count} patterns cover {table.covered_episodes} "
        f"episodes ({table.excluded_episodes} structureless episodes excluded); "
        f"{table.singleton_count} singletons"
    )

    print()
    print("occurrence classes (Figure 4 semantics):")
    occurrence = summarize(table)
    for kind, count in occurrence.counts.items():
        print(f"  {kind.value:<10s} {count:4d} patterns")
    print(
        f"  consistently fast-or-slow: "
        f"{100 * occurrence.consistent_fraction:.0f}% of patterns"
    )

    print()
    print("the deterministic problems (always-slow patterns):")
    always = [
        p for p in table.rows() if classify_pattern(p) is Occurrence.ALWAYS
    ][:5]
    for pattern in always:
        print(
            f"  {pattern.count:4d} episodes, avg {pattern.avg_lag_ms:6.0f} ms"
            f" — {pattern.representative.root.children[0].symbol}"
        )

    print()
    print("browsing into the worst pattern:")
    worst = table.perceptible_only().rows()[0]
    print(render_episode_list(worst, limit=8))

    print()
    print("threshold ablation (how many episodes count as perceptible):")
    for threshold in (100.0, 150.0, 195.0):
        config = AnalysisConfig(perceptible_threshold_ms=threshold)
        ablated = LagAlyzer.from_traces(traces, config=config)
        print(
            f"  {threshold:5.0f} ms -> {len(ablated.perceptible_episodes()):4d} "
            f"perceptible episodes, "
            f"{len(ablated.pattern_table().perceptible_only(threshold))} "
            f"patterns with perceptible episodes"
        )


if __name__ == "__main__":
    main()
