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

Exit status: perfbench's (0 when every check passed, 1 when an output
check failed), or 2 when its output holds no result to record.

:func:`append_trajectory` is the one trajectory writer the other
``bench_*.py`` scripts share.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = "pipeline"
ENTRY_PREFIX = "entry: "


def append_trajectory(path: Path, benchmark: str, entry: Dict[str, Any]) -> None:
    """Append ``entry`` to the ``benchmark`` trajectory at ``path`` (created if missing)."""
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": benchmark, "trajectory": []}
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
    args = parser.parse_args(argv)
    root = args.root.resolve()
    completed = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(completed.stdout)
    report = parse_report(completed.stdout)
    if report is None:
        print("record: perfbench printed no result; nothing recorded",
              file=sys.stderr)
        return 2
    append_trajectory(args.out, BENCHMARK, point(args.label, report))
    print(f"record: appended {args.label!r} point to {args.out}")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
