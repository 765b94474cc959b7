"""LagAlyzer's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload study_cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are generated from
``--seed`` in a child process; the run then sets the program up, makes
timed passes until ``--seconds`` is spent (at least the workload's
minimum), and checks every pass's outputs. The report lists each metric
with its unit and sample count; the last line of standard output is the
JSON result. With ``--trace 1`` the run instead measures half its time
untraced, then the same number of passes with every layer's public entry
points wrapped (see ``tracing.py``), and reports the per-layer metrics.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for inputs, caches and spans; removed after every run.
WORK = ROOT / ".perfbench"

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("records_per_s", "records/s"),
    ("query_mix_ms", "ms"),
)
INPUT_KIND = {"study_cold": "study", "study_warm": "study",
              "ingest_fleet": "fleet"}


def generate_inputs(kind: str, seed: int, out: Path) -> tuple:
    """Run the seeded generator in a child; return (manifest, reference)."""
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--kind", kind,
         "--seed", str(seed), "--out", str(out)],
        check=True, timeout=600,
    )
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    reference = None
    if (out / "reference.pkl").exists():
        with (out / "reference.pkl").open("rb") as handle:
            reference = pickle.load(handle)
    return manifest, reference


def run_passes(workload: Any, samples: Any, seconds: float,
               passes: Optional[int] = None) -> int:
    """Make ``passes`` passes, or as many as fit in ``seconds``."""
    started = time.perf_counter()
    cycles: List[float] = []
    while True:
        cycle_start = time.perf_counter()
        workload.run_pass(samples)
        cycles.append(time.perf_counter() - cycle_start)
        done = len(cycles)
        if passes is not None:
            if done >= passes:
                return done
            continue
        elapsed = time.perf_counter() - started
        cycle = sorted(cycles)[len(cycles) // 2]
        if done >= workload.min_passes and elapsed + cycle > seconds:
            return done


def measure(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    """One benchmark run; returns the result object to print."""
    from measure import Samples, environment, import_seconds, median
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    manifest, reference = generate_inputs(
        INPUT_KIND[args.workload], args.seed, work / "inputs"
    )
    imports = import_seconds(SRC)
    workload = cls(work / "run", manifest, reference)
    setups = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    samples = Samples()
    report: List[tuple] = []
    try:
        if not args.trace:
            run_passes(workload, samples, args.seconds)
            measured = workload.metrics(samples)
            measured["setup_s"] = (median(imports) + median(setups), len(setups))
            measured["peak_rss_mb"] = (workload.rss.mib, workload.passes)
            result_metrics = {
                name: {"value": measured[name][0], "unit": unit}
                for name, unit in END_TO_END
            }
            report = [(name, measured[name][0], unit, measured[name][1])
                      for name, unit in END_TO_END]
        else:
            result_metrics, report = traced_run(args, workload, samples, work)
        report += workload.report(samples)
    finally:
        workload.close()
    error_rate = samples.failed / max(samples.attempted, 1)
    report.append(("error_rate", error_rate, "ratio", samples.attempted))
    entry = environment(ROOT, workload.workers)
    entry.update(workload=args.workload, seed=args.seed, trace=args.trace,
                 seconds=args.seconds, passes=workload.passes,
                 shape=manifest["shape"])
    return {
        "entry": entry,
        "report": report,
        "failures": samples.failures,
        "result": {
            "correct": samples.failed == 0,
            "attempted": samples.attempted,
            "failed": samples.failed,
            "metrics": result_metrics,
        },
    }


def traced_run(args: argparse.Namespace, workload: Any, samples: Any,
               work: Path) -> tuple:
    """Untraced half, then as many traced passes; per-layer metrics."""
    from tracing import PER_LAYER, Tracer, layer_metrics, load_spans

    untraced_start = workload.timed_s
    passes = run_passes(workload, samples, args.seconds / 2.0)
    untraced_s = (workload.timed_s - untraced_start) / passes
    tracer = Tracer(work / "spans")
    tracer.install()
    workload.tracer = tracer
    traced_start = workload.timed_s
    try:
        run_passes(workload, samples, args.seconds, passes=passes)
    finally:
        workload.tracer = None
        tracer.close()
    traced_s = workload.timed_s - traced_start
    overhead = (traced_s / passes / untraced_s - 1.0) * 100.0
    metrics = layer_metrics(
        load_spans(work / "spans"), passes,
        (os.getpid(), threading.get_ident()), traced_s, overhead,
    )
    units = {name: unit for name, unit, _better in PER_LAYER}
    result = {name: {"value": value, "unit": units[name]}
              for name, value in metrics.items()}
    report = [(name, value, units[name], passes) for name, value in metrics.items()]
    return result, report


def print_report(outcome: Dict[str, Any]) -> None:
    entry = outcome["entry"]
    print(f"perfbench {entry['workload']} seed={entry['seed']} "
          f"trace={entry['trace']} passes={entry['passes']}")
    print("entry: " + json.dumps(entry, sort_keys=True))
    for name, value, unit, count in outcome["report"]:
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit:<10} n={count}")
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(INPUT_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    print_report(outcome)
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
