"""Seeded input generation for the benchmark, run as a child process.

    python3 perfbench/inputs.py --kind study|fleet --seed N --out DIR

The simulator (``repro.apps``) is the load generator, not the system
under test: it writes text ``.lila`` traces, and the benchmark process
only ever sees those files. Generating in a child keeps the simulator's
time and memory out of ``setup_s`` and ``peak_rss_mb``. The child fans
out over at most two spawned workers, one application per task.

For ``study`` it also computes the reference each output check compares
against: an uncached, serial ``LagAlyzer.load(paths).summaries()`` per
application, plus the per-session rows a warehouse should hold.
``DIR/manifest.json`` lists the files and corpus shape; ``DIR/reference.pkl``
holds the reference.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Session-length scale of the study corpus (64 traces, ~1.0 M records).
STUDY_SCALE = 0.125
STUDY_SESSIONS = 4
#: The io_service app whose degraded copy feeds ``study_warm``'s diff.
DEGRADED_APP = "OrderApi"
DEGRADED_IO_SCALE = 3.0
#: Fleet shape: 13 short sessions per application (208, ~1.1 M records).
FLEET_SCALE = 0.04
FLEET_SESSIONS = 13

FAMILY_APPS = {"OrderApi": "io_service", "IndexBuilder": "async_pipeline"}


def applications() -> List[Tuple[str, str]]:
    """``(application, family)`` of every app: Table II plus two families."""
    from repro.apps import APPLICATION_NAMES

    return [(app, "gui") for app in APPLICATION_NAMES] + sorted(
        FAMILY_APPS.items()
    )


def simulate(app: str, index: int, seed: int, scale: float,
             io_scale: float = 1.0) -> Any:
    family = FAMILY_APPS.get(app, "gui")
    if family == "io_service":
        from repro.apps.io_service import simulate_service_session

        return simulate_service_session(
            app, index, seed=seed, scale=scale, io_scale=io_scale
        )
    if family == "async_pipeline":
        from repro.apps.async_pipeline import simulate_pipeline_session

        return simulate_pipeline_session(app, index, seed=seed, scale=scale)
    from repro.apps import simulate_session

    return simulate_session(app, index, seed=seed, scale=scale)


def _write_sessions(
    app: str, out: Path, seed: int, count: int, scale: float,
    io_scale: float = 1.0,
) -> List[Dict[str, Any]]:
    from repro.lila.writer import write_trace

    files = []
    for index in range(count):
        path = write_trace(
            simulate(app, index, seed, scale, io_scale),
            out / f"{app}-{index:02d}.lila",
        )
        with path.open("rb") as handle:
            lines = sum(1 for _ in handle)
        files.append({
            "path": str(path), "lines": lines, "bytes": path.stat().st_size,
        })
    return files


def reference(paths: List[str]) -> Dict[str, Any]:
    """What every cached, parallel or warehouse path must reproduce.

    ``summaries`` is the pickled serial summary dict; ``sessions`` lists,
    in trace order, each session's id, Table III row, pattern tallies
    (``key -> (count, perceptible)``) and cause tally.
    """
    from repro import LagAlyzer
    from repro.core.analyses import get_analysis

    analyzer = LagAlyzer.load(paths, workers=1)
    summaries = analyzer.summaries()
    occurrence = get_analysis("occurrence")
    causes = get_analysis("causes")
    sessions = []
    for trace, row in zip(analyzer.traces, summaries["statistics"].rows):
        counts = occurrence.map_trace(trace, analyzer.config)
        sessions.append({
            "session_id": trace.metadata.session_id,
            "stats": row,
            "patterns": dict(counts.counts),
            "causes": dict(causes.map_trace(trace, analyzer.config).all),
        })
    return {"summaries": pickle.dumps(summaries), "sessions": sessions}


def _study_task(task: Tuple[str, str, str, int, int, float, float]) -> Dict[str, Any]:
    app, family, out, seed, count, scale, io_scale = task
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    files = _write_sessions(app, directory, seed, count, scale, io_scale)
    return {
        "app": app,
        "family": family,
        "files": files,
        "reference": reference([entry["path"] for entry in files]),
    }


def _fleet_task(task: Tuple[str, str, str, int, int, float]) -> Dict[str, Any]:
    app, family, out, seed, count, scale = task
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    files = _write_sessions(app, directory, seed, count, scale)
    return {"app": app, "family": family, "files": files}


def _shape(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, int]]:
    shape: Dict[str, Dict[str, int]] = {}
    for result in results:
        family = shape.setdefault(
            result["family"], {"traces": 0, "records": 0, "bytes": 0}
        )
        for entry in result["files"]:
            family["traces"] += 1
            family["records"] += entry["lines"]
            family["bytes"] += entry["bytes"]
    return shape


def generate(kind: str, seed: int, out: Path, workers: int = 2,
             apps: Optional[List[Tuple[str, str]]] = None,
             sessions: Optional[int] = None,
             scale: Optional[float] = None) -> Dict[str, Any]:
    """Write the inputs of ``kind`` under ``out``; return the manifest.

    ``apps``, ``sessions`` and ``scale`` default to the benchmark's
    shape; tests shrink them.
    """
    apps = apps or applications()
    out.mkdir(parents=True, exist_ok=True)
    context = multiprocessing.get_context("spawn")
    degraded: List[Dict[str, Any]] = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        if kind == "study":
            count = sessions or STUDY_SESSIONS
            size = scale or STUDY_SCALE
            tasks = [(app, family, str(out / "corpus"), seed, count, size, 1.0)
                     for app, family in apps]
            degraded_tasks = [
                (app, family, str(out / "degraded"), seed, count, size,
                 DEGRADED_IO_SCALE)
                for app, family in apps if app == DEGRADED_APP
            ]
            results = list(pool.map(_study_task, tasks + degraded_tasks))
            corpus = results[:len(tasks)]
            degraded = results[len(tasks):]
        elif kind == "fleet":
            count = sessions or FLEET_SESSIONS
            size = scale or FLEET_SCALE
            tasks = [(app, family, str(out / "fleet"), seed, count, size)
                     for app, family in apps]
            corpus = list(pool.map(_fleet_task, tasks))
        else:
            raise ValueError(f"unknown input kind {kind!r}")
    manifest = {
        "kind": kind,
        "seed": seed,
        "apps": [{"app": r["app"], "family": r["family"], "files": r["files"]}
                 for r in corpus],
        "degraded": [{"app": r["app"], "family": r["family"],
                      "files": r["files"]} for r in degraded],
        "shape": _shape(corpus),
    }
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if kind == "study":
        refs = {"base": {r["app"]: r["reference"] for r in corpus},
                "degraded": {r["app"]: r["reference"] for r in degraded}}
        with (out / "reference.pkl").open("wb") as handle:
            pickle.dump(refs, handle)
    return manifest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("study", "fleet"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.kind, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
