"""Record one perfbench run as a point of the ``BENCH_pipeline.json`` trajectory.

    python3 benchmarks/record.py --workload study_cold --seed 1 --seconds 20 --trace 0 --label change

Runs ``perfbench/run.py --workload W --seed S --seconds N --trace T`` in
a source checkout (``--root``; by default the one holding this script),
echoes its report, keeps the report's ``entry:`` JSON and the final JSON
line, and appends::

    {label, workload, seed, trace, entry, correct, attempted, failed, metrics}

to the trajectory file (``--out``; by default ``BENCH_pipeline.json`` at
the root of this checkout). A speed change records a parent point and a
change point on the same host, each run from its own checkout;
``--label`` tells them apart and ``entry`` carries each checkout's git
sha and source digest.

    python3 benchmarks/record.py --workload study_warm --pairs 10 --parent ../parent

runs N alternating pairs instead: the parent checkout (``--parent``) and
the change checkout (``--root``) one after the other, the parent first
in even pairs and the change first in odd ones, so host drift favours
neither side. Before the first pair it byte-compiles both checkouts'
``src/``, so both import from bytecode caches. It appends the first
pair as a ``parent`` and a ``change`` point, and prints, for every
end-to-end metric that ``BENCHMARK.json`` names, the parent and change
medians, the parent's quartiles and the pairs the change won (ties
count for neither).

Exit status: perfbench's (0 when every check passed, 1 when an output
check failed; the worst of all runs with ``--pairs``), or 2 when its
output holds no result to record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = "pipeline"
ENTRY_PREFIX = "entry: "


def append_trajectory(path: Path, entry: Dict[str, Any]) -> None:
    """Append ``entry`` to the trajectory at ``path`` (created if missing)."""
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": BENCHMARK, "trajectory": []}
    data["trajectory"].append(entry)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def parse_report(stdout: str) -> Optional[Dict[str, Any]]:
    """``{"entry": ..., "result": ...}`` from perfbench's output, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    entries = [line[len(ENTRY_PREFIX):] for line in lines
               if line.startswith(ENTRY_PREFIX)]
    if not entries:
        return None
    try:
        return {"entry": json.loads(entries[-1]), "result": json.loads(lines[-1])}
    except json.JSONDecodeError:
        return None


def point(label: str, report: Dict[str, Any]) -> Dict[str, Any]:
    """One trajectory point from a parsed perfbench report."""
    entry, result = report["entry"], report["result"]
    return {
        "label": label,
        "workload": entry["workload"],
        "seed": entry["seed"],
        "trace": entry["trace"],
        "entry": entry,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def end_to_end_metrics() -> List[Dict[str, Any]]:
    """The end-to-end metrics ``BENCHMARK.json`` declares: name, unit,
    which direction is better, and the bound."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return benchmark["end_to_end"]


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, interpolated between the samples."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(
    pairs: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
    metrics: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per end-to-end metric over ``(parent, change)`` points.

    Each row holds the metric's ``name``, ``unit`` and ``better``, both
    ``*_median``s, the parent's quartiles ``parent_q1``/``parent_q3``,
    and ``wins``: the pairs in which the change read better. A metric
    missing from any point is left out.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        parent = [pair[0]["metrics"][name]["value"] for pair in pairs]
        change = [pair[1]["metrics"][name]["value"] for pair in pairs]
        if metric["better"] == "lower":
            wins = sum(c < p for p, c in zip(parent, change))
        else:
            wins = sum(c > p for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_q1": q1,
            "parent_q3": q3,
            "wins": wins,
            "pairs": len(pairs),
        })
    return rows


def format_summary(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """The summary table, one line per metric."""
    lines = []
    for row in rows:
        parent, change = row["parent_median"], row["change_median"]
        shift = 100.0 * (change - parent) / parent if parent else 0.0
        lines.append(
            f"{row['name']:<14} parent {parent:.6g} [{row['parent_q1']:.6g}"
            f"-{row['parent_q3']:.6g}] change {change:.6g} {row['unit']}"
            f" ({shift:+.1f} %, {row['better']} is better),"
            f" change better in {row['wins']} of {row['pairs']}"
        )
    return lines


def run_perfbench(root: Path, args: argparse.Namespace) -> Tuple[int, str]:
    """Run one perfbench pass in ``root``: exit status and stdout."""
    completed = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    return completed.returncode, completed.stdout


def compile_sources(root: Path) -> None:
    """Byte-compile ``root``'s ``src/``, deleting nothing.

    ``setup_s`` is mostly the package's import time, and a tree with
    bytecode caches imports about twice as fast as one without, so both
    sides of a pair must start in the same state.
    """
    if (root / "src").is_dir():
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(root / "src")],
            check=True, stdout=subprocess.DEVNULL,
        )


def record_pairs(args: argparse.Namespace, root: Path) -> int:
    """Run ``args.pairs`` alternating parent/change pairs (see above)."""
    sides = {"parent": args.parent.resolve(), "change": root}
    for side in sides.values():
        compile_sources(side)
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    status = 0
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        points: Dict[str, Dict[str, Any]] = {}
        for label in order:
            code, stdout = run_perfbench(sides[label], args)
            report = parse_report(stdout)
            if report is None:
                sys.stdout.write(stdout)
                print(f"record: perfbench printed no result for {label} in"
                      f" pair {index + 1}; nothing recorded", file=sys.stderr)
                return 2
            status = max(status, code)
            points[label] = point(label, report)
            print(f"record: pair {index + 1}/{args.pairs} {label}:"
                  f" correct={points[label]['correct']}"
                  f" failed={points[label]['failed']}/"
                  f"{points[label]['attempted']}", flush=True)
        pairs.append((points["parent"], points["change"]))
    for label in ("parent", "change"):
        append_trajectory(args.out, pairs[0][label == "change"])
    print(f"record: appended the first pair's 'parent' and 'change' points"
          f" to {args.out}")
    print(f"record: {args.workload} seed={args.seed}, {args.pairs} pairs;"
          f" median [parent quartiles]")
    for line in format_summary(summarize(pairs, end_to_end_metrics())):
        print(line)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run",
                        help="what was measured, e.g. parent or change")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="source checkout whose perfbench to run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json",
                        help="trajectory file to append to")
    parser.add_argument("--pairs", type=int, default=0, metavar="N",
                        help="run N alternating parent/change pairs")
    parser.add_argument("--parent", type=Path, default=None, metavar="DIR",
                        help="the parent's source checkout, for --pairs")
    args = parser.parse_args(argv)
    if (args.pairs > 0) != (args.parent is not None):
        parser.error("--pairs N and --parent DIR go together")
    root = args.root.resolve()
    if args.pairs > 0:
        return record_pairs(args, root)
    code, stdout = run_perfbench(root, args)
    sys.stdout.write(stdout)
    report = parse_report(stdout)
    if report is None:
        print("record: perfbench printed no result; nothing recorded",
              file=sys.stderr)
        return 2
    append_trajectory(args.out, point(args.label, report))
    print(f"record: appended {args.label!r} point to {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
