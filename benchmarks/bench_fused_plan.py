"""Fused-plan benchmark: one pass per trace vs N independent passes.

Before the plan refactor, asking for all seven characterization
analyses scanned every trace seven times: each analysis re-split the
episodes and re-derived pattern keys for itself. A fused
:class:`~repro.core.plan.AnalysisPlan` maps each trace **once**,
computing the shared stages (episode split, pattern tallies) a single
time and handing every operator its partial from the same pass — and
with a worker pool it dispatches one task per trace instead of one per
(analysis x trace).

This script times both shapes on simulated sessions (caching disabled,
so every run really computes) and verifies the summaries are
byte-identical before trusting the numbers:

- **legacy**: ``engine.summarize(name, ...)`` once per analysis —
  N fan-outs, N x traces tasks, shared work recomputed per analysis.
- **fused**: ``engine.summarize_all(names, ...)`` — one fan-out,
  one task per trace.

It exits nonzero if the fused pass is slower than the per-analysis
path at any worker setting, which is how CI uses it as a smoke gate::

    python benchmarks/bench_fused_plan.py --sessions 2 --scale 0.1 --repeats 2
"""

from __future__ import annotations

import argparse
import gc
import pickle
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from record import append_trajectory  # noqa: E402
from repro.apps.sessions import simulate_sessions  # noqa: E402
from repro.core.analyses import REGISTRY  # noqa: E402
from repro import AnalysisConfig  # noqa: E402
from repro.core.store import as_columnar  # noqa: E402
from repro.engine.engine import AnalysisEngine  # noqa: E402

APPLICATION = "CrosswordSage"


def run_legacy(names, traces, config, workers: int) -> Dict[str, object]:
    """N independent passes: one engine fan-out per analysis."""
    engine = AnalysisEngine(workers=workers, use_cache=False)
    return {
        name: engine.summarize(name, traces, config) for name in names
    }


def run_fused(names, traces, config, workers: int) -> Dict[str, object]:
    """One fused pass per trace through a single fan-out."""
    engine = AnalysisEngine(workers=workers, use_cache=False)
    return engine.summarize_all(names, traces, config)


def best_time(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=3,
                        help="simulated sessions to analyze")
    parser.add_argument("--scale", type=float, default=0.3,
                        help="session-length multiplier in (0, 1]")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing runs per shape (best is reported)")
    parser.add_argument("--workers", type=int, nargs="+", default=[0, 2],
                        help="worker settings to benchmark (1 = serial "
                             "in-process, 0 = one worker per CPU)")
    parser.add_argument("--json-out", default=None,
                        help="also write the numbers as JSON to this path")
    args = parser.parse_args(argv)

    names = tuple(REGISTRY)
    config = AnalysisConfig()
    traces = [
        as_columnar(trace)
        for trace in simulate_sessions(
            APPLICATION, args.sessions, scale=args.scale
        )
    ]
    episodes = sum(len(t.columnar.episode_rows()) for t in traces)
    print(f"workload: {len(traces)} {APPLICATION} sessions "
          f"(scale {args.scale}), {episodes} episodes, "
          f"{len(names)} analyses")
    print(f"tasks per run: legacy {len(names) * len(traces)} "
          f"({len(names)} fan-outs), fused {len(traces)} (1 fan-out)")

    # Verify both shapes agree before trusting their numbers.
    serial_legacy = run_legacy(names, traces, config, workers=1)
    serial_fused = run_fused(names, traces, config, workers=1)
    for name in names:
        assert pickle.dumps(serial_fused[name]) == pickle.dumps(
            serial_legacy[name]
        ), f"fused and legacy summaries differ for {name!r}"
    print("verified: fused and per-analysis summaries are byte-identical")

    failed = False
    rows = []
    print()
    print(f"{'workers':<10} {'legacy':>12} {'fused':>12} {'speedup':>9}")
    for workers in args.workers:
        legacy_s = best_time(
            lambda: run_legacy(names, traces, config, workers), args.repeats
        )
        fused_s = best_time(
            lambda: run_fused(names, traces, config, workers), args.repeats
        )
        speedup = legacy_s / fused_s if fused_s else float("inf")
        label = "serial" if workers == 1 else (
            "per-CPU" if workers == 0 else str(workers)
        )
        print(f"{label:<10} {legacy_s * 1000:>9.1f} ms "
              f"{fused_s * 1000:>9.1f} ms {speedup:>8.2f}x")
        rows.append({
            "workers": workers,
            "legacy_ms": legacy_s * 1000,
            "fused_ms": fused_s * 1000,
            "speedup": speedup,
        })
        if fused_s > legacy_s:
            print(f"FAIL: fused pass is slower than {len(names)} "
                  f"per-analysis passes at workers={workers} "
                  f"({speedup:.2f}x)", file=sys.stderr)
            failed = True

    if args.json_out:
        append_trajectory(Path(args.json_out), "columns", {
            "generated": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "workload": {
                "sessions": args.sessions,
                "scale": args.scale,
                "episodes": episodes,
                "analyses": len(names),
            },
            "results": rows,
            "passed": not failed,
        })
        print(f"trajectory entry appended to {args.json_out}")

    if not failed:
        print("PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
