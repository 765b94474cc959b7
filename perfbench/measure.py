"""Sample statistics, memory probing and the fixed result-entry fields."""

from __future__ import annotations

import glob
import hashlib
import math
import os
import platform
import resource
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-quantile, or ``None`` if it is not supported.

    Supported means at least :data:`MIN_BEYOND` samples lie beyond it:
    the median needs 20 samples, p90 needs 100 and p95 needs 200.
    """
    n = len(samples)
    if not 0.0 < q < 1.0 or math.floor(n * (1.0 - q) + 1e-9) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * n) - 1, 0)]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


class Samples:
    """Named lists of measured values plus the attempted/failed tally.

    A value may carry a ``key`` naming which repeated operation it
    timed (an application, a query), for :meth:`best`.
    """

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}
        self.keyed: Dict[str, Dict[str, List[float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, name: str, value: float, key: str = "") -> None:
        self.values.setdefault(name, []).append(value)
        self.keyed.setdefault(name, {}).setdefault(key, []).append(value)

    def get(self, name: str) -> List[float]:
        return self.values.get(name, [])

    def best(self, name: str) -> float:
        """Sum over keys of each key's fastest repetition (best of N).

        The host's CPUs alternate between a fast and a ~1.6x slower
        state for seconds at a time (other tenants), so a run's median
        depends on how long it spent in the slow state. The fastest of N
        repetitions of the same operation lands in the fast state, which
        is what makes two runs of the same code agree.
        """
        return sum(min(values) for values in self.keyed[name].values())

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


#: The calibration task's best time on this benchmark's reference host
#: (a 2-vCPU Xeon VM); timings are scaled to it. A constant, so it only
#: sets the scale: both sides of any comparison use the same value.
REFERENCE_CAL_S = 0.006


def calibrate() -> float:
    """Seconds for a fixed task of dict, string and SQLite work.

    The program's own operations are Python object work and SQLite; a
    task of the same kinds, unchanged by any change to the program,
    measures how fast the host runs such work at the moment.
    """
    start = time.perf_counter()
    counts: Dict[str, int] = {}
    for i in range(20_000):
        key = str(i % 1_009)
        counts[key] = counts.get(key, 0) + i
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (k TEXT, v INTEGER)")
        connection.executemany("INSERT INTO t VALUES (?, ?)", counts.items())
        connection.execute(
            "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 2 DESC LIMIT 10"
        ).fetchall()
    finally:
        connection.close()
    return time.perf_counter() - start


def _status_kib(pid: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class PeakRss:
    """Peak RSS of this process plus its largest child, inside windows.

    The process's high-water mark is reset when a window opens (Linux
    ``/proc/self/clear_refs``) and read when it closes; a sampling
    thread reads each live child's own high-water mark, so a pool
    worker is seen even though it exits before the window closes.
    Where ``/proc`` is unavailable, ``getrusage`` gives the whole
    process lifetime instead.
    """

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.main_kib = 0
        self.child_kib = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _children(self) -> List[str]:
        pids: List[str] = []
        for path in glob.glob("/proc/self/task/*/children"):
            try:
                with open(path, encoding="ascii") as handle:
                    pids.extend(handle.read().split())
            except OSError:
                continue
        return pids

    def _sample(self) -> None:
        while not self._stop.wait(self.interval_s):
            for pid in self._children():
                self.child_kib = max(self.child_kib, _status_kib(pid, "VmHWM:"))

    def __enter__(self) -> "PeakRss":
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            pass
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        peak = _status_kib("self", "VmHWM:") or resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        self.main_kib = max(self.main_kib, peak)

    @property
    def mib(self) -> float:
        return (self.main_kib + self.child_kib) / 1024.0


#: Modules the public API pulls in, imported by :func:`import_seconds`.
IMPORT_PROBE = (
    "import repro, repro.core.analyzer, repro.engine.engine, "
    "repro.engine.cache, repro.warehouse.store, repro.lila.colfile, "
    "repro.ingest.client, repro.ingest.server"
)


def import_seconds(src: Path, repeats: int = 3) -> List[float]:
    """Import time of the program's public API in fresh interpreters."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "t0 = time.perf_counter()\n"
        f"{IMPORT_PROBE}\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def source_identity(root: Path) -> Dict[str, Optional[str]]:
    """The git sha when ``root`` is a checkout, and a digest of ``src/``."""
    sha: Optional[str] = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def environment(root: Path, workers: int) -> Dict[str, object]:
    """The fixed entry fields every result records."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    entry: Dict[str, object] = dict(source_identity(root))
    entry.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy_version,
        repro_numpy=os.environ.get("REPRO_NUMPY", ""),
        workers=workers,
        generated=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    return entry
