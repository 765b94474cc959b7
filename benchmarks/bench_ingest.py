"""Ingestion benchmark: columnar streaming vs the object-graph reader.

Before the columnar refactor, parsing a LiLa trace materialized one
Python object per interval and per sample entry before any analysis
could run. The columnar path (:func:`repro.lila.source.build_store`)
parses each line straight into parallel arrays instead. This script
quantifies the difference on a synthetic session of configurable size:

- **peak memory** while parsing and holding the result (tracemalloc
  peak; the process's max RSS is also reported where available), and
- **parse time** (best of ``--repeats`` runs).

The two paths no longer share a tokenizer: the object reader folds the
reference record stream (:meth:`TextTraceSource.records`, one tuple per
line), while the columnar side runs its own line kernel
(:class:`~repro.lila.source.TextParser`, no per-line tuple). The parse
time therefore compares representation *and* tokenizer together; the
memory comparison is still about the representation held.

A further phase exercises the zero-copy column file:

- **mmap fan-out**: the trace is converted to a ``.lilac`` column file
  and the engine fan-out is timed against the in-memory store vs the
  mmap-backed one; because a file-backed store pickles as its path,
  the shipped task bytes collapse (gated by ``--min-ship-ratio``).

The script exits nonzero if the memory improvement falls below
``--min-ratio`` (default 2x), if the shipped-bytes improvement falls
below ``--min-ship-ratio`` (default 2x), or, with ``--budget-mb``, if
the columnar peak exceeds the budget — which is how CI uses it as an
ingestion-regression gate::

    python benchmarks/bench_ingest.py --records 50000 --budget-mb 64
"""

from __future__ import annotations

import argparse
import gc
import pickle
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from record import append_trajectory  # noqa: E402
from repro.core.intervals import IntervalKind, IntervalTreeBuilder  # noqa: E402
from repro.core.samples import Sample, ThreadSample  # noqa: E402
from repro.core.store import (  # noqa: E402
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
)
from repro.core.trace import Trace, TraceMetadata  # noqa: E402
from repro.lila.source import TextTraceSource, build_store  # noqa: E402

NS_PER_MS = 1_000_000


def generate_trace(path: Path, records: int) -> int:
    """Write a deterministic synthetic text trace with >= ``records`` records.

    Episodes alternate among a few structural shapes (listener only,
    listener+paint, with/without a GC) so the trace exercises nesting,
    interning, and the sample section like a real session does.
    """
    lines: List[str] = ["#%lila 1"]
    episode_lines = 7  # average lines per episode incl. its samples
    episodes = max(1, records // episode_lines)
    start_ns = 1_000_000_000
    period = 5 * NS_PER_MS
    t = start_ns
    body: List[str] = []
    sample_section: List[str] = []
    for i in range(episodes):
        shape = i % 4
        dur = (3 + (i % 17)) * NS_PER_MS
        body.append(f"O {t} dispatch java.awt.EventQueue#dispatchEvent")
        inner = t + dur // 8
        body.append(
            f"O {inner} listener app.view.Editor#actionPerformed{i % 23}"
        )
        if shape == 1:
            mid = inner + dur // 8
            body.append(f"G {mid} {mid + dur // 16} gc.Collector#minor")
        body.append(f"C {inner + dur // 2}")
        if shape >= 2:
            paint = t + (dur * 3) // 4
            body.append(f"O {paint} paint javax.swing.JComponent#paint")
            body.append(f"C {paint + dur // 8}")
        body.append(f"C {t + dur}")
        tick = t + dur // 2
        sample_section.append(f"P {tick}")
        state = ("runnable", "blocked", "waiting")[i % 3]
        sample_section.append(
            f"t gui {state} app.view.Editor#actionPerformed{i % 23};"
            "java.awt.EventQueue#dispatchEvent"
        )
        if i % 2:
            sample_section.append(
                f"t worker runnable app.io.Loader#fetch{i % 11};"
                "java.lang.Thread#run"
            )
        t += dur + 2 * NS_PER_MS
    end_ns = t + NS_PER_MS
    lines += [
        "M application BenchApp",
        "M session_id bench-session",
        f"M start_ns {start_ns}",
        f"M end_ns {end_ns}",
        "M gui_thread gui",
        f"M sample_period_ns {period}",
        "M filter_ms 3.0",
        f"F {episodes // 10}",
        "T gui",
    ]
    lines += body
    lines += ["T worker", f"O {start_ns} native java.lang.Thread#run",
              f"C {end_ns - 1}"]
    lines += sample_section
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def legacy_read(path: Path) -> Trace:
    """The pre-columnar eager reader: every record becomes an object.

    Reproduces what ``read_trace`` did before the refactor — the
    reference record stream folded into :class:`Interval`/:class:`Sample`
    objects and an eagerly-episoded :class:`Trace`. The columnar side
    parses with its own line kernel, so the parse-time comparison
    covers tokenizers as well as representations.
    """
    meta: Dict[str, str] = {}
    extra: Dict[str, str] = {}
    filtered = 0
    builders: Dict[str, IntervalTreeBuilder] = {}
    order: List[str] = []
    current: Optional[IntervalTreeBuilder] = None
    samples: List[Sample] = []
    tick_ns: Optional[int] = None
    entries: List[ThreadSample] = []
    for record in TextTraceSource(path).records():
        tag = record[0]
        if tag == REC_OPEN:
            current.open(record[2], record[3], record[1])
        elif tag == REC_CLOSE:
            current.close(record[1])
        elif tag == REC_GC:
            current.add_complete(
                IntervalKind.GC, record[3], record[1], record[2]
            )
        elif tag == REC_TICK:
            if tick_ns is not None:
                samples.append(Sample(tick_ns, entries))
            tick_ns, entries = record[1], []
        elif tag == REC_ENTRY:
            entries.append(ThreadSample(record[1], record[2], record[3]))
        elif tag == REC_THREAD:
            name = record[1]
            if name not in builders:
                builders[name] = IntervalTreeBuilder()
                order.append(name)
            current = builders[name]
        elif tag == REC_META:
            (extra if record[3] else meta)[record[1]] = record[2]
        elif tag == REC_FILTERED:
            filtered = record[1]
    if tick_ns is not None:
        samples.append(Sample(tick_ns, entries))
    metadata = TraceMetadata(
        application=meta["application"],
        session_id=meta["session_id"],
        start_ns=int(meta["start_ns"]),
        end_ns=int(meta["end_ns"]),
        gui_thread=meta["gui_thread"],
        sample_period_ns=int(meta.get("sample_period_ns", 10_000_000)),
        filter_ms=float(meta.get("filter_ms", 3.0)),
        extra=extra,
    )
    thread_roots = {name: builders[name].finish() for name in order}
    return Trace(
        metadata, thread_roots, samples=samples, short_episode_count=filtered
    )


def columnar_read(path: Path):
    return build_store(TextTraceSource(path))


def bench_mmap_fanout(
    path: Path, workdir: Path, repeats: int, workers: int = 2
) -> Dict[str, float]:
    """Engine fan-out over the in-memory store vs the mmap column file.

    Returns shipped pickle bytes per task and best fan-out times for
    both shapes. A file-backed store pickles as its path, so workers
    re-map the column file instead of receiving the columns by value.
    """
    from repro.core.analyzer import AnalysisConfig
    from repro.core.store import FacadeTrace
    from repro.engine.engine import AnalysisEngine
    from repro.lila.colfile import open_column_trace, write_column_file

    store = columnar_read(path)
    column_path = write_column_file(store, workdir / "bench.lilac")
    memory_trace = FacadeTrace(store)
    mapped_trace = open_column_trace(column_path)

    memory_bytes = len(pickle.dumps(memory_trace))
    mapped_bytes = len(pickle.dumps(mapped_trace))

    names = ("statistics", "occurrence")
    config = AnalysisConfig()

    def fanout(trace):
        engine = AnalysisEngine(workers=workers, use_cache=False)
        return engine.summarize_all(names, [trace], config)

    check_memory = pickle.dumps(sorted(fanout(memory_trace).items()))
    check_mapped = pickle.dumps(sorted(fanout(mapped_trace).items()))
    assert check_memory == check_mapped, (
        "mmap-backed fan-out disagrees with the in-memory fan-out"
    )

    memory_s = measure_time(lambda _: fanout(memory_trace), path, repeats)
    mapped_s = measure_time(lambda _: fanout(mapped_trace), path, repeats)
    return {
        "memory_task_bytes": memory_bytes,
        "mapped_task_bytes": mapped_bytes,
        "ship_ratio": (
            memory_bytes / mapped_bytes if mapped_bytes else float("inf")
        ),
        "memory_fanout_s": memory_s,
        "mapped_fanout_s": mapped_s,
        "fanout_speedup": memory_s / mapped_s if mapped_s else float("inf"),
    }


def measure_peak(func, path: Path) -> int:
    """Peak traced bytes while parsing and holding the result."""
    gc.collect()
    tracemalloc.start()
    result = func(path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del result
    gc.collect()
    return peak


def measure_time(func, path: Path, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        result = func(path)
        best = min(best, time.perf_counter() - t0)
        del result
    return best


def max_rss_mb() -> Optional[float]:
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss / 1024.0 if sys.platform != "darwin" else rss / (1024.0**2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=50_000,
                        help="minimum record count of the synthetic trace")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing runs per path (best is reported)")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="required legacy/columnar peak-memory ratio")
    parser.add_argument("--min-ship-ratio", type=float, default=2.0,
                        help="required in-memory/mmap shipped-bytes ratio")
    parser.add_argument("--budget-mb", type=float, default=None,
                        help="fail if the columnar peak exceeds this")
    parser.add_argument("--trace", default=None,
                        help="use this text trace instead of a synthetic one")
    parser.add_argument("--skip-fanout", action="store_true",
                        help="skip the mmap fan-out phase")
    parser.add_argument("--json-out", default=None,
                        help="also write the numbers as JSON to this path")
    args = parser.parse_args(argv)

    tmpdir = None
    if args.trace is not None:
        path = Path(args.trace)
        print(f"trace: {path}")
    else:
        tmpdir = tempfile.TemporaryDirectory()
        path = Path(tmpdir.name) / "bench.lila"
        count = generate_trace(path, args.records)
        print(f"trace: {count} records, "
              f"{path.stat().st_size / 1024:.0f} KiB (synthetic)")

    # Verify both paths agree before trusting their numbers.
    store = columnar_read(path)
    legacy = legacy_read(path)
    assert store.interval_count == sum(
        1 for roots in legacy.thread_roots.values()
        for root in roots for _ in root.preorder()
    ), "paths disagree on interval count"
    assert store.sample_count == len(legacy.samples)
    intervals, ticks = store.interval_count, store.sample_count
    store_bytes = store.nbytes
    del store, legacy
    print(f"parsed: {intervals} intervals, {ticks} sample ticks; "
          f"columnar store holds {store_bytes / 1024:.0f} KiB of columns")

    legacy_peak = measure_peak(legacy_read, path)
    columnar_peak = measure_peak(columnar_read, path)
    legacy_time = measure_time(legacy_read, path, args.repeats)
    columnar_time = measure_time(columnar_read, path, args.repeats)

    mem_ratio = legacy_peak / columnar_peak if columnar_peak else float("inf")
    time_ratio = legacy_time / columnar_time if columnar_time else float("inf")
    print()
    print(f"{'path':<12} {'peak memory':>14} {'parse time':>12}")
    print(f"{'legacy':<12} {legacy_peak / 1024**2:>11.2f} MiB "
          f"{legacy_time * 1000:>9.1f} ms")
    print(f"{'columnar':<12} {columnar_peak / 1024**2:>11.2f} MiB "
          f"{columnar_time * 1000:>9.1f} ms")
    print(f"{'ratio':<12} {mem_ratio:>13.2f}x {time_ratio:>10.2f}x")
    rss = max_rss_mb()
    if rss is not None:
        print(f"process max RSS: {rss:.1f} MiB")

    failed = False
    if mem_ratio < args.min_ratio:
        print(f"FAIL: memory ratio {mem_ratio:.2f}x is below the required "
              f"{args.min_ratio:.1f}x", file=sys.stderr)
        failed = True
    if time_ratio < 1.0:
        print(f"FAIL: columnar parse is slower than legacy "
              f"({time_ratio:.2f}x)", file=sys.stderr)
        failed = True
    if args.budget_mb is not None and columnar_peak > args.budget_mb * 1024**2:
        print(f"FAIL: columnar peak {columnar_peak / 1024**2:.1f} MiB "
              f"exceeds the {args.budget_mb:.0f} MiB budget",
              file=sys.stderr)
        failed = True

    fanout = None
    if not args.skip_fanout:
        workdir = Path(tmpdir.name) if tmpdir is not None else path.parent
        fanout = bench_mmap_fanout(path, workdir, args.repeats)
        print()
        print("mmap fan-out (2 workers, statistics + occurrence):")
        print(f"  shipped bytes/task: in-memory "
              f"{fanout['memory_task_bytes']}, mapped "
              f"{fanout['mapped_task_bytes']} "
              f"({fanout['ship_ratio']:.0f}x lower)")
        print(f"  fan-out time: in-memory "
              f"{fanout['memory_fanout_s'] * 1000:.1f} ms, mapped "
              f"{fanout['mapped_fanout_s'] * 1000:.1f} ms "
              f"({fanout['fanout_speedup']:.2f}x)")
        if fanout["ship_ratio"] < args.min_ship_ratio:
            print(f"FAIL: shipped-bytes ratio {fanout['ship_ratio']:.2f}x "
                  f"is below the required {args.min_ship_ratio:.1f}x",
                  file=sys.stderr)
            failed = True

    if args.json_out:
        append_trajectory(Path(args.json_out), "ingest_service", {
            "generated": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "bench": "ingest_columns",
            "workload": {
                "records": args.records if args.trace is None else None,
                "intervals": intervals,
                "ticks": ticks,
                "store_bytes": store_bytes,
            },
            "legacy_peak_bytes": legacy_peak,
            "columnar_peak_bytes": columnar_peak,
            "legacy_parse_s": round(legacy_time, 6),
            "columnar_parse_s": round(columnar_time, 6),
            "memory_ratio": round(mem_ratio, 3),
            "parse_speedup": round(time_ratio, 3),
            "mmap_fanout": fanout,
            "passed": not failed,
        })
        print(f"trajectory entry appended to {args.json_out}")

    if tmpdir is not None:
        tmpdir.cleanup()
    if not failed:
        print("PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
