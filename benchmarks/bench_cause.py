"""Cause-analysis benchmark: graph build + outlier rank + run diff gate.

The dependency-graph cause analysis earns its keep only if attributing
a latency delta stays interactive: building every episode's cause
graph, extracting critical paths, ranking outlier causes, and diffing
two warehouse runs must all finish within a wall-clock bound over a
realistic ``io_service`` study. This script simulates a baseline and a
degraded run (every IO wait stretched by ``--io-scale``), verifies the
attribution is *correct* — the columnar cause tally matches the object
path, and the diff ranks the injected cause first — and then times the
pipeline, exiting nonzero past the bound, which is how CI uses it as a
smoke gate::

    python benchmarks/bench_cause.py --sessions 2 --max-diff-ms 250

``--json-out BENCH_cause.json`` additionally appends this run's
numbers to the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from record import append_trajectory  # noqa: E402
from repro.apps.io_service import simulate_service_sessions  # noqa: E402
from repro.core.analyzer import AnalysisConfig, LagAlyzer  # noqa: E402
from repro.core.causegraph import (  # noqa: E402
    build_graph,
    critical_path,
    merge_cause_tallies,
    rank_outliers,
    tally_causes,
)
from repro.warehouse.store import StudyWarehouse  # noqa: E402

#: The label the degraded run's extra latency must be attributed to
#: (orders.search's database scan dominates the stretched IO waits).
INJECTED_LABEL = "iowait:java.sql.Statement.executeQuery"


def best_of(repeats: int, fn) -> float:
    """Best wall time of ``repeats`` calls, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=2,
                        help="io_service sessions per run")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="session-length scale in (0, 1]")
    parser.add_argument("--io-scale", type=float, default=3.0,
                        help="IO-wait stretch of the degraded run")
    parser.add_argument("--seed", type=int, default=20100401)
    parser.add_argument("--threshold-ms", type=float, default=100.0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per stage (best-of)")
    parser.add_argument("--max-graph-ms", type=float, default=500.0,
                        help="bound on building every episode graph + "
                             "critical path of one run")
    parser.add_argument("--max-diff-ms", type=float, default=250.0,
                        help="bound on the warehouse diff query")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="append this run's numbers to a "
                             "BENCH_cause.json trajectory")
    args = parser.parse_args(argv)

    config = AnalysisConfig(perceptible_threshold_ms=args.threshold_ms)
    baseline = simulate_service_sessions(
        "OrderApi", count=args.sessions, seed=args.seed, scale=args.scale
    )
    degraded = simulate_service_sessions(
        "OrderApi", count=args.sessions, seed=args.seed, scale=args.scale,
        io_scale=args.io_scale,
    )
    episodes = [ep for trace in baseline for ep in trace.episodes]
    print(f"simulated {2 * args.sessions} io_service sessions "
          f"(scale {args.scale}, io x{args.io_scale} degraded): "
          f"{len(episodes)} baseline episodes")

    # Correctness before timings: the columnar kernel tally must equal
    # the object-path tally, episode for episode.
    analyzer = LagAlyzer.from_traces(list(baseline), config=config)
    kernel_tally = analyzer.cause_summary().as_tally()
    object_tally = merge_cause_tallies(
        [tally_causes(trace.episodes) for trace in baseline]
    )
    if kernel_tally != object_tally:
        print("FAIL: columnar cause tally diverged from the object path",
              file=sys.stderr)
        return 1

    tmpdir = tempfile.TemporaryDirectory()
    warehouse = StudyWarehouse(Path(tmpdir.name) / "bench.sqlite")
    started = time.perf_counter()
    for run_id, traces in (("baseline", baseline), ("degraded", degraded)):
        for trace in traces:
            warehouse.ingest_trace(trace, run_id, config)
    ingest_s = time.perf_counter() - started

    report = warehouse.diff("baseline", "degraded")
    if not report.deltas or report.deltas[0].label != INJECTED_LABEL:
        top = report.deltas[0].label if report.deltas else "<none>"
        print(f"FAIL: diff ranked {top!r} first, expected the injected "
              f"cause {INJECTED_LABEL!r}", file=sys.stderr)
        return 1

    def graphs_and_paths() -> int:
        total = 0
        for episode in episodes:
            total += len(critical_path(build_graph(episode)))
        return total

    graph_ms = best_of(args.repeats, graphs_and_paths)
    rank_ms = best_of(
        args.repeats, lambda: rank_outliers(episodes, args.threshold_ms)
    )
    diff_ms = best_of(
        args.repeats, lambda: warehouse.diff("baseline", "degraded")
    )

    print(f"{'graphs + paths':<18} {graph_ms:>8.1f} ms "
          f"({len(episodes)} episodes)")
    print(f"{'outlier rank':<18} {rank_ms:>8.1f} ms")
    print(f"{'warehouse diff':<18} {diff_ms:>8.1f} ms")

    failed = False
    if graph_ms > args.max_graph_ms:
        print(f"FAIL: graph build {graph_ms:.1f} ms exceeds the "
              f"{args.max_graph_ms:.0f} ms bound", file=sys.stderr)
        failed = True
    if diff_ms > args.max_diff_ms:
        print(f"FAIL: diff query {diff_ms:.1f} ms exceeds the "
              f"{args.max_diff_ms:.0f} ms bound", file=sys.stderr)
        failed = True

    tmpdir.cleanup()
    if args.json_out:
        append_trajectory(Path(args.json_out), "cause", {
            "generated": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "workload": {
                "sessions": args.sessions,
                "scale": args.scale,
                "io_scale": args.io_scale,
                "seed": args.seed,
            },
            "episodes": len(episodes),
            "ingest_s": round(ingest_s, 6),
            "graph_ms": round(graph_ms, 3),
            "rank_ms": round(rank_ms, 3),
            "diff_ms": round(diff_ms, 3),
            "top_delta_label": report.deltas[0].label,
            "top_delta_ms": round(report.deltas[0].delta_ns / 1e6, 3),
            "passed": not failed,
        })
        print(f"trajectory entry appended to {args.json_out}")
    if not failed:
        print(f"PASS: injected cause ranked first; diff answered in "
              f"{diff_ms:.1f} ms (bound {args.max_diff_ms:.0f} ms)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
