"""Study-warehouse benchmark: compact 1k sessions, query under a bound.

The warehouse's reason to exist is that fleet questions ("top-N worst
patterns", "which app regressed") should be answered from indexed
SQLite rows, not by re-analyzing a thousand traces. This script
fabricates a deterministic synthetic fleet (``random.Random(seed)`` —
no simulator in the loop, the warehouse is what's being measured),
compacts it session by session, and then times the query surface.

It verifies the top-N answer against a Python-side merge of the
generated counts before trusting the numbers, and exits nonzero when
the top-N query misses its latency bound, which is how CI uses it as a
smoke gate::

    python benchmarks/bench_warehouse.py --sessions 1000 --max-top-ms 250

``--json-out BENCH_warehouse.json`` additionally appends this run's
numbers to the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from record import append_trajectory  # noqa: E402
from repro.core.statistics import SessionStats  # noqa: E402
from repro.warehouse.store import StudyWarehouse  # noqa: E402

APPLICATIONS = (
    "ArgoUML", "CrosswordSage", "Euclide", "FreeMind", "GanttProject",
    "jEdit", "JFreeChart", "JHotDraw", "JMol", "Jomic",
    "LAoE", "NetBeans", "SweetHome3D", "Zeus",
)


def synthetic_session(
    rng: random.Random, app: str
) -> Tuple[SessionStats, Dict[str, Tuple[int, int]]]:
    """One plausible Table III row plus its pattern tallies."""
    traced = rng.randint(40, 400)
    perceptible = rng.randint(0, traced // 4)
    stats = SessionStats(
        application=app,
        e2e_s=rng.uniform(300.0, 1800.0),
        in_episode_pct=rng.uniform(2.0, 40.0),
        below_filter=float(rng.randint(0, 2000)),
        traced=float(traced),
        perceptible=float(perceptible),
        long_per_min=rng.uniform(0.0, 6.0),
        distinct_patterns=float(rng.randint(5, 60)),
        covered_episodes=float(traced - rng.randint(0, traced // 5)),
        singleton_pct=rng.uniform(10.0, 90.0),
        mean_descendants=rng.uniform(1.0, 40.0),
        mean_depth=rng.uniform(1.0, 8.0),
    )
    counts: Dict[str, Tuple[int, int]] = {}
    for _ in range(rng.randint(4, 16)):
        key = f"d(l{rng.randint(0, 199)}(p{rng.randint(0, 9)}))"
        count = rng.randint(1, 20)
        counts[key] = (count, rng.randint(0, count))
    return stats, counts


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
    parser.add_argument("--sessions", type=int, default=1000,
                        help="synthetic sessions to compact")
    parser.add_argument("--runs", type=int, default=8,
                        help="run ids the sessions are spread across")
    parser.add_argument("--seed", type=int, default=20100401)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per query (best-of)")
    parser.add_argument("--max-top-ms", type=float, default=250.0,
                        help="required bound on the top-N query")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="append this run's numbers to a "
                             "BENCH_warehouse.json trajectory")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    tmpdir = tempfile.TemporaryDirectory()
    warehouse = StudyWarehouse(Path(tmpdir.name) / "bench.sqlite")

    merged: Dict[Tuple[str, str], Tuple[int, int]] = {}
    started = time.perf_counter()
    for index in range(args.sessions):
        app = APPLICATIONS[index % len(APPLICATIONS)]
        run_id = f"run-{index % args.runs}"
        stats, counts = synthetic_session(rng, app)
        warehouse.ingest_session(
            run_id, app, f"s{index}", stats,
            pattern_counts=counts,
            trace_digest=f"digest-{index}",
            ts=1_000_000.0 + index * 60.0,
        )
        for key, (count, perceptible) in counts.items():
            prev_count, prev_perceptible = merged.get((app, key), (0, 0))
            merged[(app, key)] = (
                prev_count + count, prev_perceptible + perceptible
            )
    ingest_s = time.perf_counter() - started
    rate = args.sessions / ingest_s if ingest_s else float("inf")
    print(f"compacted {args.sessions} sessions across {args.runs} runs "
          f"in {ingest_s * 1000:.0f} ms ({rate:,.0f} sessions/s, "
          f"{len(merged)} distinct (app, pattern) pairs)")

    # Correctness before timings: the top-N answer must equal the
    # Python-side merge of what was generated.
    top = warehouse.top_patterns(n=10)
    for entry in top:
        expected = merged[(entry.application, entry.pattern_key)]
        if (entry.occurrences, entry.perceptible) != expected:
            print(f"FAIL: top-N mismatch for ({entry.application}, "
                  f"{entry.pattern_key}): warehouse "
                  f"{(entry.occurrences, entry.perceptible)} != "
                  f"generated {expected}", file=sys.stderr)
            return 1

    top_ms = best_of(args.repeats, lambda: warehouse.top_patterns(n=10))
    aggregate_ms = best_of(args.repeats, warehouse.aggregate)
    half = args.runs // 2 or 1
    baseline = [f"run-{i}" for i in range(half)]
    candidate = [f"run-{i}" for i in range(half, args.runs)]
    regression_ms = best_of(
        args.repeats,
        lambda: warehouse.regression(baseline, candidate),
    )
    series_ms = best_of(
        args.repeats, lambda: warehouse.series(bucket="day")
    )

    print(f"{'top-N patterns':<18} {top_ms:>8.1f} ms")
    print(f"{'aggregate':<18} {aggregate_ms:>8.1f} ms")
    print(f"{'regression diff':<18} {regression_ms:>8.1f} ms")
    print(f"{'series (day)':<18} {series_ms:>8.1f} ms")

    failed = False
    if top_ms > args.max_top_ms:
        print(f"FAIL: top-N query {top_ms:.1f} ms exceeds the "
              f"{args.max_top_ms:.0f} ms bound", file=sys.stderr)
        failed = True

    tmpdir.cleanup()
    if args.json_out:
        append_trajectory(Path(args.json_out), "warehouse", {
            "generated": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "workload": {
                "sessions": args.sessions,
                "runs": args.runs,
                "seed": args.seed,
            },
            "ingest_s": round(ingest_s, 6),
            "sessions_per_sec": round(rate, 1),
            "top_ms": round(top_ms, 3),
            "aggregate_ms": round(aggregate_ms, 3),
            "regression_ms": round(regression_ms, 3),
            "series_ms": round(series_ms, 3),
            "passed": not failed,
        })
        print(f"trajectory entry appended to {args.json_out}")
    if not failed:
        print(f"PASS: top-N over {args.sessions} sessions answered in "
              f"{top_ms:.1f} ms (bound {args.max_top_ms:.0f} ms)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
