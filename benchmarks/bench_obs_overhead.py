"""Observability overhead gates — disabled mode and sampled propagation.

Two budgets, both asserted in CI and both recordable into the tracked
``BENCH_obs.json`` trajectory (ROADMAP item 2):

- **Disabled mode, under 2%.** Every instrumented hot path goes
  through the guarded helpers in :mod:`repro.obs.runtime`; with no
  observer installed each call is one global read and one comparison.
  A medium study is timed twice — once through the real guards, once
  with the helpers swapped for the cheapest possible stubs (the "no
  instrumentation at all" floor) — interleaved, best of N.
- **Sampled propagation, under 5%.** A sampled session mints a trace
  context per batch, carries it in HELLO/BATCH frames, and the daemon
  opens adopted spans per frame and flush; deterministic seed-derived
  sampling is the mechanism that keeps the *fleet-level* cost bounded.
  The gate replays a ten-session fleet at the nominal 10% sample rate
  (the deterministic sampler picks exactly one of the fixed session
  names) against a daemon in its own process — as deployed, so daemon
  span bookkeeping burns daemon CPU — and compares the client
  process's **CPU time** with propagation on vs ``propagate=False``.
  CPU time rather than wall clock because delivery is stop-and-wait:
  a saturated loopback replay is ack-RTT-bound, so wall clock mostly
  measures scheduler wake-up luck that a live, trickling application
  never sees.

Runs standalone (``python benchmarks/bench_obs_overhead.py
[--json-out BENCH_obs.json]``) or under pytest as the CI smoke step;
no pytest-benchmark needed. Environment knobs: ``OBS_BENCH_SCALE``
(default 0.15), ``OBS_BENCH_REPEATS`` (default 7),
``OBS_BENCH_LIMIT_PCT`` (default 2), ``OBS_BENCH_NOISE_MS`` (default
15 — absolute allowance for scheduler and timer jitter, well below
what any real per-episode regression would cost on this workload),
``OBS_BENCH_PROP_RECORDS`` (default 16000), ``OBS_BENCH_PROP_REPEATS``
(default 5), and ``OBS_BENCH_PROP_LIMIT_PCT`` (default 5).
"""

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from record import append_trajectory  # noqa: E402
from repro.obs import runtime as obs_runtime  # noqa: E402
from repro.obs.spans import NULL_SPAN  # noqa: E402
from repro.study.runner import StudyConfig, run_study  # noqa: E402

SCALE = float(os.environ.get("OBS_BENCH_SCALE", "0.15"))
REPEATS = int(os.environ.get("OBS_BENCH_REPEATS", "7"))
LIMIT_PCT = float(os.environ.get("OBS_BENCH_LIMIT_PCT", "2.0"))
NOISE_S = float(os.environ.get("OBS_BENCH_NOISE_MS", "15")) / 1e3

PROP_RECORDS = int(os.environ.get("OBS_BENCH_PROP_RECORDS", "16000"))
PROP_REPEATS = int(os.environ.get("OBS_BENCH_PROP_REPEATS", "5"))
PROP_LIMIT_PCT = float(os.environ.get("OBS_BENCH_PROP_LIMIT_PCT", "5.0"))

#: The guarded helpers and their do-nothing floor equivalents.
_STUBS = {
    "maybe_span": lambda name, metric=None, **attrs: NULL_SPAN,
    "count": lambda name, n=1: None,
    "observe": lambda name, value: None,
    "set_gauge": lambda name, value: None,
    "profiled": lambda key: NULL_SPAN,
    "current": lambda: None,
}


def _workload() -> None:
    config = StudyConfig(
        sessions=1,
        scale=SCALE,
        applications=("Arabeske", "Euclide"),
    )
    run_study(config, workers=1, use_cache=False)


def _timed() -> float:
    start = time.perf_counter()
    _workload()
    return time.perf_counter() - start


def measure_overhead(repeats: int = REPEATS) -> Tuple[float, float]:
    """``(guarded_s, floor_s)`` — best-of-N, interleaved A/B."""
    assert obs_runtime.current() is None, "bench requires disabled mode"
    originals = {name: getattr(obs_runtime, name) for name in _STUBS}
    _workload()  # warm caches, imports, and the code paths themselves
    guarded = floor = float("inf")
    try:
        for _ in range(repeats):
            guarded = min(guarded, _timed())
            for name, stub in _STUBS.items():
                setattr(obs_runtime, name, stub)
            try:
                floor = min(floor, _timed())
            finally:
                for name, original in originals.items():
                    setattr(obs_runtime, name, original)
    finally:
        for name, original in originals.items():
            setattr(obs_runtime, name, original)
    return guarded, floor


#: An observed ingest daemon in its own process, as deployed — the
#: daemon's span bookkeeping must burn *its* CPU, not the client's.
#: In-process loopback would serialize both ends through one GIL and
#: charge the application for the daemon's work.
_SERVER_SCRIPT = """
import sys, time
from repro.ingest.server import IngestServer
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer

obs_runtime.install(Observer())
with IngestServer(spool_dir=sys.argv[1]) as server:
    print(server.address[1], flush=True)
    time.sleep(600)
"""

FLEET_SESSIONS = 10
#: The nominal fleet operating rate the propagation gate validates.
PROP_SAMPLE_RATE = 0.1
# Over the fixed names fleet-0..fleet-9 at seed 0, the deterministic
# sampler (sample_decision) picks exactly fleet-9 — one session in
# ten, i.e. the nominal rate, every run, on every machine.


def _session_lines() -> List[str]:
    pad = "x" * 40
    return [
        f"4807.867 0.000 Bench CALL com/example/Class{i % 97} "
        f"method{i % 31} {pad}"
        for i in range(PROP_RECORDS // FLEET_SESSIONS)
    ]


def _fleet_replay(propagate: bool) -> float:
    """Replay the ten-session fleet; the client's CPU seconds.

    Measures the **client process's CPU time** for full lossless
    replays (connect, stream, drain, END ack) of every session —
    everything an instrumented application pays for propagation: the
    per-batch context mint and JSON encode in ``_seal``, the context
    block on the wire, and the carrier span around each sampled
    delivery. Unsampled sessions pay one branch per seal, which is
    the point. A fresh daemon per replay keeps the fixed session
    names (the sampling decision hangs off them) collision-free.
    """
    import subprocess

    from repro.ingest.client import TraceClient
    from repro.obs.observer import Observer

    lines = _session_lines()
    with tempfile.TemporaryDirectory() as spool_dir:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        daemon = subprocess.Popen(
            [sys.executable, "-c", _SERVER_SCRIPT, spool_dir],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            port = int(daemon.stdout.readline())
            with obs_runtime.installed(Observer()):
                start = time.process_time()
                for k in range(FLEET_SESSIONS):
                    client = TraceClient(
                        ("127.0.0.1", port),
                        session=f"fleet-{k}",
                        application="Bench",
                        propagate=propagate,
                        sample_rate=PROP_SAMPLE_RATE,
                    )
                    with client:
                        client.extend(lines)
                    assert client.dropped_records == 0
                return time.process_time() - start
        finally:
            daemon.kill()
            daemon.wait()


def measure_propagation(
    repeats: int = PROP_REPEATS,
) -> Tuple[float, float]:
    """``(sampled_s, plain_s)`` — best-of-N, interleaved A/B."""
    _fleet_replay(False)  # warm sockets, imports, and code paths
    sampled = plain = float("inf")
    for _ in range(repeats):
        sampled = min(sampled, _fleet_replay(True))
        plain = min(plain, _fleet_replay(False))
    return sampled, plain


def _check_disabled(guarded: float, floor: float) -> None:
    overhead_pct = 100.0 * (guarded - floor) / floor
    print(
        f"\n[obs overhead] guarded={guarded * 1e3:.1f}ms "
        f"floor={floor * 1e3:.1f}ms overhead={overhead_pct:+.2f}% "
        f"(limit {LIMIT_PCT:.1f}%, scale {SCALE}, best of {REPEATS})"
    )
    assert guarded <= floor * (1.0 + LIMIT_PCT / 100.0) + NOISE_S, (
        f"disabled-mode observability overhead {overhead_pct:.2f}% exceeds "
        f"{LIMIT_PCT:.1f}% (guarded {guarded:.3f}s vs floor {floor:.3f}s)"
    )


def _check_propagation(sampled: float, plain: float) -> None:
    overhead_pct = 100.0 * (sampled - plain) / plain
    print(
        f"\n[obs propagation] sampled={sampled * 1e3:.1f}ms "
        f"plain={plain * 1e3:.1f}ms cpu, overhead={overhead_pct:+.2f}% "
        f"(limit {PROP_LIMIT_PCT:.1f}%, {FLEET_SESSIONS} sessions x "
        f"{PROP_RECORDS // FLEET_SESSIONS} records at rate "
        f"{PROP_SAMPLE_RATE}, best of {PROP_REPEATS})"
    )
    assert sampled <= plain * (1.0 + PROP_LIMIT_PCT / 100.0) + NOISE_S, (
        f"sampled-propagation overhead {overhead_pct:.2f}% exceeds "
        f"{PROP_LIMIT_PCT:.1f}% (sampled {sampled:.3f}s vs plain "
        f"{plain:.3f}s)"
    )


def test_disabled_mode_overhead_under_limit() -> None:
    _check_disabled(*measure_overhead())


def test_sampled_propagation_overhead_under_limit() -> None:
    _check_propagation(*measure_propagation())


# ----------------------------------------------------------------------
# The tracked trajectory — BENCH_obs.json
# ----------------------------------------------------------------------


def bench_entry(
    guarded: float, floor: float, sampled: float, plain: float
) -> Dict[str, Any]:
    """One trajectory entry: both measurements plus their workloads."""
    return {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "disabled_mode": {
            "workload": {"scale": SCALE, "repeats": REPEATS,
                         "sessions": 1, "apps": 2},
            "guarded_s": round(guarded, 6),
            "floor_s": round(floor, 6),
            "overhead_pct": round(100.0 * (guarded - floor) / floor, 3),
            "limit_pct": LIMIT_PCT,
        },
        "sampled_propagation": {
            "workload": {"records": PROP_RECORDS,
                         "sessions": FLEET_SESSIONS,
                         "sample_rate": PROP_SAMPLE_RATE,
                         "batch_records": 256,
                         "repeats": PROP_REPEATS},
            "sampled_cpu_s": round(sampled, 6),
            "plain_cpu_s": round(plain, 6),
            "overhead_pct": round(100.0 * (sampled - plain) / plain, 3),
            "limit_pct": PROP_LIMIT_PCT,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="append this run's numbers to a BENCH_obs.json trajectory",
    )
    args = parser.parse_args(argv)
    guarded, floor = measure_overhead()
    sampled, plain = measure_propagation()
    _check_disabled(guarded, floor)
    _check_propagation(sampled, plain)
    if args.json_out:
        append_trajectory(
            Path(args.json_out),
            "obs_overhead",
            bench_entry(guarded, floor, sampled, plain),
        )
        print(f"trajectory entry appended to {args.json_out}")
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
