"""The performance gates: one test per gate, each bound a constant here.

    PYTHONPATH=src python -m pytest benchmarks/bench_gates.py -q -s

perfbench (``BENCHMARK.json``) measures the pipeline end to end and
layer by layer, and ``benchmarks/record.py`` keeps its trajectory in
``BENCH_pipeline.json``. This file holds the bounds that no change may
cross. Each test runs a fixed workload, times it with :class:`BestOf`
(the least of several runs; an A/B comparison interleaves its two
sides), prints what it measured (``-s`` shows the lines) and asserts one
bound. Workloads and bounds are module constants, so a run here is the
run CI makes. Whether two paths give the same answers is for the tier-1
suite under ``tests/``, not for this file.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import pytest

import repro
from repro import AnalysisConfig
from repro.apps.io_service import simulate_service_sessions
from repro.apps.sessions import simulate_sessions
from repro.core.analyses import REGISTRY
from repro.core.causegraph import build_graph, critical_path
from repro.core.intervals import IntervalKind, IntervalTreeBuilder
from repro.core.samples import Sample, ThreadSample
from repro.core.statistics import SessionStats
from repro.core.store import (
    REC_CLOSE,
    REC_ENTRY,
    REC_FILTERED,
    REC_GC,
    REC_META,
    REC_OPEN,
    REC_THREAD,
    REC_TICK,
    ColumnarTrace,
    as_columnar,
)
from repro.core.trace import Trace, TraceMetadata
from repro.engine.engine import AnalysisEngine
from repro.ingest.client import TraceClient
from repro.ingest.server import IngestServer
from repro.ingest.spool import spool_name
from repro.lila.source import TextTraceSource, build_store
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer
from repro.obs.spans import NULL_SPAN
from repro.obs.warehouse import estimate_percentile
from repro.study.runner import StudyConfig, run_study
from repro.warehouse.store import StudyWarehouse

NS_PER_MS = 1_000_000
MIB = 1024 ** 2


class BestOf:
    """The least of the times measured by :meth:`timed`, in seconds."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.seconds = float("inf")

    @contextmanager
    def timed(self) -> Iterator[None]:
        gc.collect()
        started = self.clock()
        yield
        self.seconds = min(self.seconds, self.clock() - started)


# ----------------------------------------------------------------------
# Observability overhead
# ----------------------------------------------------------------------

#: Disabled mode: a two-application study at this scale, timed through
#: the real obs guards and through do-nothing stubs.
OBS_SCALE = 0.1
OBS_REPEATS = 7
OBS_LIMIT_PCT = 2.0
#: Absolute allowance, in both obs gates, for scheduler and timer
#: jitter; well below what any real per-episode regression would cost
#: on these workloads.
OBS_NOISE_S = 0.015

#: Sampled propagation: ten sessions replay PROP_RECORDS records in all
#: at the nominal fleet sample rate, with and without propagation.
PROP_RECORDS = 16_000
PROP_SESSIONS = 10
PROP_SAMPLE_RATE = 0.1
PROP_REPEATS = 5
PROP_LIMIT_PCT = 5.0

#: The guarded helpers and their do-nothing floor equivalents.
_STUBS = {
    "maybe_span": lambda name, metric=None, **attrs: NULL_SPAN,
    "count": lambda name, n=1: None,
    "observe": lambda name, value: None,
    "set_gauge": lambda name, value: None,
    "profiled": lambda key: NULL_SPAN,
    "current": lambda: None,
}


def _obs_study() -> None:
    config = StudyConfig(
        sessions=1, scale=OBS_SCALE, applications=("Arabeske", "Euclide")
    )
    run_study(config, workers=1, use_cache=False)


@contextmanager
def _uninstrumented() -> Iterator[None]:
    """The guarded obs helpers swapped for :data:`_STUBS`: the floor."""
    originals = {name: getattr(obs_runtime, name) for name in _STUBS}
    for name, stub in _STUBS.items():
        setattr(obs_runtime, name, stub)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(obs_runtime, name, original)


def test_obs_disabled_mode_overhead() -> None:
    """Disabled mode costs under OBS_LIMIT_PCT over no instrumentation.

    Every instrumented hot path goes through the guarded helpers in
    :mod:`repro.obs.runtime`; with no observer installed each call is
    one global read and one comparison. The study runs through the real
    guards and through the cheapest possible stubs, interleaved.
    """
    assert obs_runtime.current() is None, "the gate needs disabled mode"
    _obs_study()  # warm caches, imports and the code paths themselves
    guarded, floor = BestOf(), BestOf()
    for _ in range(OBS_REPEATS):
        with guarded.timed():
            _obs_study()
        with _uninstrumented(), floor.timed():
            _obs_study()
    overhead_pct = 100.0 * (guarded.seconds - floor.seconds) / floor.seconds
    print(
        f"\n[obs disabled] guarded {guarded.seconds * 1e3:.1f} ms, floor"
        f" {floor.seconds * 1e3:.1f} ms: {overhead_pct:+.2f} % (bound"
        f" {OBS_LIMIT_PCT} % + {OBS_NOISE_S * 1e3:.0f} ms)"
    )
    assert guarded.seconds <= (
        floor.seconds * (1.0 + OBS_LIMIT_PCT / 100.0) + OBS_NOISE_S
    ), f"disabled-mode obs overhead {overhead_pct:.2f} % exceeds {OBS_LIMIT_PCT} %"


#: An observed ingest daemon in its own process, as deployed: the
#: daemon's span bookkeeping must burn its own CPU. In-process loopback
#: would serialize both ends through one GIL and charge the application
#: for the daemon's work.
_SERVER_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[2])
from repro.ingest.server import IngestServer
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer

obs_runtime.install(Observer())
with IngestServer(spool_dir=sys.argv[1]) as server:
    print(server.address[1], flush=True)
    time.sleep(600)
"""


@contextmanager
def _observed_daemon() -> Iterator[int]:
    """A fresh observed ingest daemon in a child process; yields its port."""
    # The daemon imports the same package as this process.
    package_root = str(Path(repro.__file__).parent.parent)
    with tempfile.TemporaryDirectory() as spool_dir:
        daemon = subprocess.Popen(
            [sys.executable, "-c", _SERVER_SCRIPT, spool_dir, package_root],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            yield int(daemon.stdout.readline())
        finally:
            daemon.kill()
            daemon.wait()


def test_obs_sampled_propagation_overhead() -> None:
    """Sampled propagation costs the client under PROP_LIMIT_PCT.

    A sampled session mints a trace context per batch and carries it in
    HELLO/BATCH frames; an unsampled one pays one branch per seal. Over
    the fixed names fleet-0..fleet-9 at seed 0 the deterministic sampler
    picks exactly fleet-9: the nominal rate, on every run and machine.
    Each replay (connect, stream, drain, END ack per session) gets a
    fresh daemon, since the sampling decision hangs off the names. The
    gate compares the client's CPU time: delivery is stop-and-wait, so
    a saturated loopback replay's wall clock mostly measures scheduler
    wake-ups that a live, trickling application never sees.
    """
    pad = "x" * 40
    lines = [
        f"4807.867 0.000 Bench CALL com/example/Class{i % 97} method{i % 31} {pad}"
        for i in range(PROP_RECORDS // PROP_SESSIONS)
    ]

    def replay(best: BestOf, propagate: bool) -> None:
        with _observed_daemon() as port, obs_runtime.installed(Observer()):
            with best.timed():
                for k in range(PROP_SESSIONS):
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

    replay(BestOf(time.process_time), False)  # warm sockets, imports, code paths
    sampled, plain = BestOf(time.process_time), BestOf(time.process_time)
    for _ in range(PROP_REPEATS):
        replay(sampled, True)
        replay(plain, False)
    overhead_pct = 100.0 * (sampled.seconds - plain.seconds) / plain.seconds
    print(
        f"\n[obs propagation] sampled {sampled.seconds * 1e3:.1f} ms, plain"
        f" {plain.seconds * 1e3:.1f} ms client CPU: {overhead_pct:+.2f} %"
        f" (bound {PROP_LIMIT_PCT} % + {OBS_NOISE_S * 1e3:.0f} ms)"
    )
    assert sampled.seconds <= (
        plain.seconds * (1.0 + PROP_LIMIT_PCT / 100.0) + OBS_NOISE_S
    ), f"sampled-propagation overhead {overhead_pct:.2f} % exceeds {PROP_LIMIT_PCT} %"


# ----------------------------------------------------------------------
# Columnar parse against the object reader
# ----------------------------------------------------------------------

#: A synthetic text trace of at least this many records, parsed by the
#: line kernel into columns and by :func:`object_read`.
PARSE_RECORDS = 55_000
PARSE_REPEATS = 3
#: Object reader peak memory over the columnar parse's, at least.
PARSE_MIN_MEMORY_RATIO = 2.0
#: Object reader parse time over the columnar parse's, at least.
PARSE_MIN_SPEED_RATIO = 1.0
#: The columnar parse's peak traced memory, at most.
PARSE_BUDGET_MIB = 64.0


def generate_trace(path: Path, records: int) -> None:
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


def object_read(path: Path) -> Trace:
    """The eager object reader the columnar parse is measured against.

    Folds the reference record stream
    (:meth:`TextTraceSource.records`, one tuple per line) into
    :class:`Interval`/:class:`Sample` objects and an eagerly-episoded
    :class:`Trace`, one Python object per record. The columnar side
    parses with its own line kernel, so the time comparison covers
    tokenizers as well as representations; the memory comparison is
    about the representation held.
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


def columnar_read(path: Path) -> ColumnarTrace:
    return build_store(TextTraceSource(path))


def peak_bytes(read: Callable[[Path], Any], path: Path) -> int:
    """Peak traced bytes while parsing ``path`` and holding the result."""
    gc.collect()
    tracemalloc.start()
    held = read(path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del held
    gc.collect()
    return peak


@pytest.fixture(scope="module")
def parse(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, float]:
    """Peak memory and best parse time of both readers on one trace."""
    path = tmp_path_factory.mktemp("parse") / "bench.lila"
    generate_trace(path, PARSE_RECORDS)
    # Both readers must hold the same trace before their costs compare.
    store, objects = columnar_read(path), object_read(path)
    assert store.interval_count == sum(
        1 for roots in objects.thread_roots.values()
        for root in roots for _ in root.preorder()
    ), "the readers disagree on the interval count"
    assert store.sample_count == len(objects.samples)
    del store, objects
    measured = {
        "object_peak": peak_bytes(object_read, path),
        "columnar_peak": peak_bytes(columnar_read, path),
    }
    object_time, columnar_time = BestOf(), BestOf()
    for _ in range(PARSE_REPEATS):
        # Each result is held past its timer: freeing it is not parsing.
        with object_time.timed():
            held = object_read(path)
        del held
        with columnar_time.timed():
            held = columnar_read(path)
        del held
    measured["object_s"] = object_time.seconds
    measured["columnar_s"] = columnar_time.seconds
    return measured


def test_columnar_parse_memory_edge(parse: Dict[str, float]) -> None:
    ratio = parse["object_peak"] / parse["columnar_peak"]
    print(
        f"\n[parse memory] object {parse['object_peak'] / MIB:.2f} MiB,"
        f" columnar {parse['columnar_peak'] / MIB:.2f} MiB: {ratio:.2f}x"
        f" (bound >= {PARSE_MIN_MEMORY_RATIO}x)"
    )
    assert ratio >= PARSE_MIN_MEMORY_RATIO, (
        f"columnar peak-memory edge {ratio:.2f}x is below {PARSE_MIN_MEMORY_RATIO}x"
    )


def test_columnar_parse_no_slower(parse: Dict[str, float]) -> None:
    ratio = parse["object_s"] / parse["columnar_s"]
    print(
        f"\n[parse time] object {parse['object_s'] * 1e3:.1f} ms, columnar"
        f" {parse['columnar_s'] * 1e3:.1f} ms: {ratio:.2f}x"
        f" (bound >= {PARSE_MIN_SPEED_RATIO}x)"
    )
    assert ratio >= PARSE_MIN_SPEED_RATIO, (
        f"columnar parse is slower than the object reader ({ratio:.2f}x)"
    )


def test_columnar_parse_memory_budget(parse: Dict[str, float]) -> None:
    peak_mib = parse["columnar_peak"] / MIB
    print(f"\n[parse budget] columnar peak {peak_mib:.1f} MiB (bound {PARSE_BUDGET_MIB} MiB)")
    assert peak_mib <= PARSE_BUDGET_MIB, (
        f"columnar peak {peak_mib:.1f} MiB exceeds the {PARSE_BUDGET_MIB} MiB budget"
    )


# ----------------------------------------------------------------------
# Fused plan against one pass per analysis
# ----------------------------------------------------------------------

#: Simulated sessions of one application, analyzed with the cache off.
FUSED_APPLICATION = "CrosswordSage"
FUSED_SESSIONS = 2
FUSED_SCALE = 0.1
FUSED_REPEATS = 2
#: Fused time over the per-analysis passes' time, at most.
FUSED_MAX_RATIO = 1.0


@pytest.fixture(scope="module")
def fused_traces() -> List[Any]:
    return [
        as_columnar(trace)
        for trace in simulate_sessions(
            FUSED_APPLICATION, FUSED_SESSIONS, scale=FUSED_SCALE
        )
    ]


@pytest.mark.parametrize("workers", (0, 2))
def test_fused_plan_no_slower(fused_traces: List[Any], workers: int) -> None:
    """One fused pass per trace is no slower than one pass per analysis.

    The per-analysis shape calls ``summarize`` once per registered
    analysis: one fan-out each, shared stages recomputed each time. The
    fused shape calls ``summarize_all``: one fan-out, one task per
    trace. Workers 0 is one per CPU.
    """
    names = tuple(REGISTRY)
    config = AnalysisConfig()
    per_analysis, fused = BestOf(), BestOf()
    for _ in range(FUSED_REPEATS):
        with per_analysis.timed():
            engine = AnalysisEngine(workers=workers, use_cache=False)
            for name in names:
                engine.summarize(name, fused_traces, config)
        with fused.timed():
            engine = AnalysisEngine(workers=workers, use_cache=False)
            engine.summarize_all(names, fused_traces, config)
    ratio = fused.seconds / per_analysis.seconds
    print(
        f"\n[fused plan] workers={workers}: per-analysis"
        f" {per_analysis.seconds * 1e3:.1f} ms, fused {fused.seconds * 1e3:.1f} ms:"
        f" {ratio:.2f} of the time (bound <= {FUSED_MAX_RATIO})"
    )
    assert ratio <= FUSED_MAX_RATIO, (
        f"the fused pass is slower than {len(names)} per-analysis passes"
        f" at workers={workers} ({ratio:.2f})"
    )


# ----------------------------------------------------------------------
# Ingest fleet: many concurrent sessions into one daemon
# ----------------------------------------------------------------------

#: Each session replays on its own client thread, all at once, into a
#: daemon whose small per-session queue must push back.
FLEET_SESSIONS = 200
FLEET_RECORDS = 120
FLEET_BATCH_RECORDS = 16
FLEET_QUEUE_LIMIT = 4
FLEET_APPLICATION = "BenchService"
#: Backpressure nacks across the fleet, at least.
FLEET_MIN_NACKS = 1
#: Records acknowledged per second of fleet wall time, at least.
FLEET_MIN_RECORDS_PER_S = 2000.0
#: p99 of per-batch send-to-ack latency, at most.
FLEET_MAX_P99_MS = 1000.0


def fleet_session_lines(index: int) -> List[str]:
    """A valid text trace of >= FLEET_RECORDS lines for session ``index``.

    A miniature interactive session (dispatch roots with a listener
    each, plus sample ticks), so the spools are analyzable, not just
    countable.
    """
    lines = [
        "#%lila 1",
        f"M application {FLEET_APPLICATION}",
        f"M session_id bench-{index}",
        "M start_ns 1000000000",
        "M gui_thread gui",
        "M sample_period_ns 5000000",
        "M filter_ms 3.0",
        "T gui",
    ]
    t = 1_000_000_000
    body: List[str] = []
    ticks: List[str] = []
    episode = 0
    while len(body) + len(ticks) < FLEET_RECORDS:
        dur = (4 + (episode + index) % 13) * NS_PER_MS
        body.append(f"O {t} dispatch java.awt.EventQueue#dispatchEvent")
        body.append(f"O {t + dur // 8} listener app.Editor#action{episode % 7}")
        body.append(f"C {t + dur // 2}")
        body.append(f"C {t + dur}")
        ticks.append(f"P {t + dur // 2}")
        ticks.append(
            f"t gui runnable app.Editor#action{episode % 7};"
            "java.awt.EventQueue#dispatchEvent"
        )
        t += dur + 2 * NS_PER_MS
        episode += 1
    lines.append(f"M end_ns {t + NS_PER_MS}")
    lines.append("F 0")
    return lines + body + ticks


def _replay_session(address: Any, index: int, lines: List[str]) -> TraceClient:
    client = TraceClient(
        address,
        session=f"bench-{index}",
        application=FLEET_APPLICATION,
        batch_records=FLEET_BATCH_RECORDS,
    )
    try:
        client.extend(lines)
    finally:
        client.close()
    return client


@pytest.fixture(scope="module")
def fleet(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Any]:
    """Replay the whole fleet once; what the four fleet gates read."""
    sessions = [fleet_session_lines(i) for i in range(FLEET_SESSIONS)]
    total = sum(len(lines) for lines in sessions)
    spool_dir = tmp_path_factory.mktemp("spool")
    observer = Observer()
    with obs_runtime.installed(observer):
        with IngestServer(spool_dir=spool_dir, queue_limit=FLEET_QUEUE_LIMIT) as server:
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=FLEET_SESSIONS) as pool:
                futures = [
                    pool.submit(_replay_session, server.address, i, lines)
                    for i, lines in enumerate(sessions)
                ]
                clients = [future.result() for future in futures]
            elapsed = time.perf_counter() - started
    # A spool off its session's line count lost lines, or holds a batch
    # twice; either way the count is wrong, so the gate wants it exact.
    miscounted = []
    for i, lines in enumerate(sessions):
        spool = spool_dir / spool_name(f"bench-{i}", FLEET_APPLICATION)
        written = (len(spool.read_text(encoding="utf-8").splitlines())
                   if spool.exists() else 0)
        if written != len(lines):
            miscounted.append(f"bench-{i}: {written} of {len(lines)} lines")
    hist = observer.metrics.histogram("ingest.client.flush_ms")
    return {
        "miscounted": miscounted,
        "dropped": sum(c.dropped_records for c in clients),
        "nacks": sum(c.nacks_received for c in clients),
        "records_per_s": total / elapsed,
        "p99_ms": (estimate_percentile(hist.buckets, hist.counts, 0.99)
                   if hist.count else None),
    }


def test_ingest_fleet_loses_no_record(fleet: Dict[str, Any]) -> None:
    """Each spool holds exactly its session's lines; no client dropped one."""
    print(
        f"\n[fleet loss] {len(fleet['miscounted'])} spools off their line"
        f" count, {fleet['dropped']} records dropped by clients (bound 0 and 0)"
    )
    assert fleet["miscounted"] == [], f"spools off: {fleet['miscounted'][:5]}"
    assert fleet["dropped"] == 0, f"{fleet['dropped']} records dropped by clients"


def test_ingest_fleet_backpressure_fires(fleet: Dict[str, Any]) -> None:
    print(f"\n[fleet backpressure] {fleet['nacks']} nacks (bound >= {FLEET_MIN_NACKS})")
    assert fleet["nacks"] >= FLEET_MIN_NACKS, "backpressure never fired"


def test_ingest_fleet_throughput(fleet: Dict[str, Any]) -> None:
    rate = fleet["records_per_s"]
    print(
        f"\n[fleet throughput] {rate:,.0f} records/s"
        f" (bound >= {FLEET_MIN_RECORDS_PER_S:,.0f})"
    )
    assert rate >= FLEET_MIN_RECORDS_PER_S, f"fleet throughput {rate:,.0f} records/s"


def test_ingest_fleet_p99_send_to_ack(fleet: Dict[str, Any]) -> None:
    p99 = fleet["p99_ms"]
    print(f"\n[fleet p99] send-to-ack <= {p99} ms (bound <= {FLEET_MAX_P99_MS} ms)")
    assert p99 is not None and p99 <= FLEET_MAX_P99_MS, (
        f"p99 send-to-ack latency <= {p99} ms exceeds {FLEET_MAX_P99_MS} ms"
    )


# ----------------------------------------------------------------------
# Cause analysis
# ----------------------------------------------------------------------

#: A baseline and a degraded io_service run (every IO wait stretched by
#: CAUSE_IO_SCALE), both ingested into one warehouse.
CAUSE_SESSIONS = 2
CAUSE_SCALE = 0.2
CAUSE_IO_SCALE = 3.0
CAUSE_SEED = 20100401
CAUSE_THRESHOLD_MS = 100.0
CAUSE_REPEATS = 5
#: Every baseline episode's cause graph and critical path, at most.
CAUSE_MAX_GRAPH_MS = 500.0
#: The warehouse diff of the two runs, at most.
CAUSE_MAX_DIFF_MS = 250.0


@pytest.fixture(scope="module")
def cause_runs(tmp_path_factory: pytest.TempPathFactory) -> Tuple[List[Any], StudyWarehouse]:
    """The baseline's episodes, and a warehouse holding both runs."""
    config = AnalysisConfig(perceptible_threshold_ms=CAUSE_THRESHOLD_MS)
    warehouse = StudyWarehouse(tmp_path_factory.mktemp("cause") / "cause.sqlite")
    runs = {
        run_id: simulate_service_sessions(
            "OrderApi", count=CAUSE_SESSIONS, seed=CAUSE_SEED,
            scale=CAUSE_SCALE, io_scale=io_scale,
        )
        for run_id, io_scale in (("baseline", 1.0), ("degraded", CAUSE_IO_SCALE))
    }
    for run_id, traces in runs.items():
        for trace in traces:
            warehouse.ingest_trace(trace, run_id, config)
    episodes = [ep for trace in runs["baseline"] for ep in trace.episodes]
    return episodes, warehouse


def test_cause_graphs_and_critical_paths(
    cause_runs: Tuple[List[Any], StudyWarehouse],
) -> None:
    episodes, _ = cause_runs
    best = BestOf()
    for _ in range(CAUSE_REPEATS):
        with best.timed():
            for episode in episodes:
                critical_path(build_graph(episode))
    graph_ms = best.seconds * 1e3
    print(
        f"\n[cause graphs] {len(episodes)} episodes in {graph_ms:.1f} ms"
        f" (bound <= {CAUSE_MAX_GRAPH_MS} ms)"
    )
    assert graph_ms <= CAUSE_MAX_GRAPH_MS, f"graph build took {graph_ms:.1f} ms"


def test_cause_diff(cause_runs: Tuple[List[Any], StudyWarehouse]) -> None:
    _, warehouse = cause_runs
    best = BestOf()
    for _ in range(CAUSE_REPEATS):
        with best.timed():
            warehouse.diff("baseline", "degraded")
    diff_ms = best.seconds * 1e3
    print(f"\n[cause diff] {diff_ms:.1f} ms (bound <= {CAUSE_MAX_DIFF_MS} ms)")
    assert diff_ms <= CAUSE_MAX_DIFF_MS, f"warehouse diff took {diff_ms:.1f} ms"


# ----------------------------------------------------------------------
# Study warehouse: top-N over a synthetic fleet
# ----------------------------------------------------------------------

#: Synthetic sessions (no simulator in the loop: the warehouse is what
#: is measured), spread across WAREHOUSE_RUNS run ids.
WAREHOUSE_SESSIONS = 1000
WAREHOUSE_RUNS = 8
WAREHOUSE_SEED = 20100401
WAREHOUSE_REPEATS = 5
#: The top-10 worst patterns query over every run, at most.
WAREHOUSE_MAX_TOP_MS = 250.0

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


def test_warehouse_top_patterns(tmp_path: Path) -> None:
    """The top-N answer equals a Python-side merge, and comes fast."""
    rng = random.Random(WAREHOUSE_SEED)
    warehouse = StudyWarehouse(tmp_path / "fleet.sqlite")
    merged: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for index in range(WAREHOUSE_SESSIONS):
        app = APPLICATIONS[index % len(APPLICATIONS)]
        stats, counts = synthetic_session(rng, app)
        warehouse.ingest_session(
            f"run-{index % WAREHOUSE_RUNS}", app, f"s{index}", stats,
            pattern_counts=counts,
            trace_digest=f"digest-{index}",
            ts=1_000_000.0 + index * 60.0,
        )
        for key, (count, perceptible) in counts.items():
            prev_count, prev_perceptible = merged.get((app, key), (0, 0))
            merged[(app, key)] = (prev_count + count, prev_perceptible + perceptible)
    for entry in warehouse.top_patterns(n=10):
        assert (entry.occurrences, entry.perceptible) == merged[
            (entry.application, entry.pattern_key)
        ], f"top-N row for ({entry.application}, {entry.pattern_key})"
    best = BestOf()
    for _ in range(WAREHOUSE_REPEATS):
        with best.timed():
            warehouse.top_patterns(n=10)
    top_ms = best.seconds * 1e3
    print(
        f"\n[warehouse top-N] {WAREHOUSE_SESSIONS} sessions: {top_ms:.1f} ms"
        f" (bound <= {WAREHOUSE_MAX_TOP_MS} ms)"
    )
    assert top_ms <= WAREHOUSE_MAX_TOP_MS, f"top-N query took {top_ms:.1f} ms"
