"""Ingest-service benchmark: many concurrent sessions, zero loss.

Spins up one :class:`repro.ingest.server.IngestServer` with a
deliberately small per-session queue and replays ``--sessions``
simulated sessions against it **concurrently** — every session gets its
own :class:`TraceClient` on its own thread, so the daemon sees the full
connection count at once and the bounded queues actually push back.

The script reports and gates on:

- **throughput** — records acknowledged per second of wall time across
  the whole fleet (``--min-records-per-sec``),
- **p99 ingest latency** — per-batch send-to-ack latency from the
  client's ``ingest.client.flush_ms`` histogram, upper-bound estimated
  from the bucket bounds (``--max-p99-ms``), and
- **zero record loss** — every line every client enqueued is in that
  session's spool file (exact line-count match, always fatal), with
  backpressure provably exercised (at least one nack fleet-wide).

CI runs it as a smoke gate in the ``ingest-bench`` job::

    python benchmarks/bench_ingest_service.py --sessions 200 --records 120

``--json-out BENCH_ingest.json`` additionally appends this run's
numbers to the tracked trajectory file (ROADMAP item 2).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from record import append_trajectory  # noqa: E402
from repro.ingest.client import TraceClient  # noqa: E402
from repro.ingest.server import IngestServer  # noqa: E402
from repro.ingest.spool import spool_name  # noqa: E402
from repro.obs import runtime as obs_runtime  # noqa: E402
from repro.obs.observer import Observer  # noqa: E402

NS_PER_MS = 1_000_000
APPLICATION = "BenchService"


def session_lines(index: int, records: int) -> List[str]:
    """A valid synthetic text-trace, >= ``records`` lines, per session.

    Structurally a miniature interactive session — dispatch roots with a
    listener each plus sample ticks — so the spools the daemon writes
    are analyzable, not just countable.
    """
    lines = [
        "#%lila 1",
        f"M application {APPLICATION}",
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
    while len(body) + len(ticks) < records:
        dur = (4 + (episode + index) % 13) * NS_PER_MS
        body.append(f"O {t} dispatch java.awt.EventQueue#dispatchEvent")
        body.append(
            f"O {t + dur // 8} listener app.Editor#action{episode % 7}"
        )
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


def run_session(address, index: int, lines: List[str],
                batch_records: int) -> TraceClient:
    client = TraceClient(
        address,
        session=f"bench-{index}",
        application=APPLICATION,
        batch_records=batch_records,
        overflow="block",
    )
    try:
        client.extend(lines)
    finally:
        client.close()
    return client


def histogram_p99(observer: Observer, name: str) -> Optional[float]:
    """Upper-bound p99 estimate from the fixed-bucket histogram."""
    hist = observer.metrics.histogram(name)
    if not hist.count:
        return None
    target = hist.count * 0.99
    seen = 0
    for i, count in enumerate(hist.counts):
        seen += count
        if seen >= target:
            return (hist.buckets[i] if i < len(hist.buckets)
                    else hist.buckets[-1] * 2)
    return hist.buckets[-1] * 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=200,
                        help="concurrent client sessions")
    parser.add_argument("--records", type=int, default=120,
                        help="record lines per session")
    parser.add_argument("--batch-records", type=int, default=16,
                        help="client batch size (small = more frames)")
    parser.add_argument("--queue-limit", type=int, default=4,
                        help="server per-session queue bound")
    parser.add_argument("--min-records-per-sec", type=float, default=5000.0,
                        help="required fleet-wide acknowledged throughput")
    parser.add_argument("--max-p99-ms", type=float, default=1000.0,
                        help="p99 bound for per-batch send-to-ack latency")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="append this run's numbers to a "
                             "BENCH_ingest.json trajectory")
    args = parser.parse_args(argv)

    fleets = [session_lines(i, args.records) for i in range(args.sessions)]
    total_lines = sum(len(lines) for lines in fleets)
    print(f"fleet: {args.sessions} concurrent sessions, "
          f"{total_lines} records total, queue_limit={args.queue_limit}, "
          f"batch_records={args.batch_records}")

    observer = Observer()
    tmpdir = tempfile.TemporaryDirectory()
    spool_dir = Path(tmpdir.name)
    with obs_runtime.installed(observer):
        with IngestServer(spool_dir=spool_dir,
                          queue_limit=args.queue_limit) as server:
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=args.sessions) as pool:
                futures = [
                    pool.submit(run_session, server.address, i, lines,
                                args.batch_records)
                    for i, lines in enumerate(fleets)
                ]
                clients = [f.result() for f in futures]
            elapsed = time.perf_counter() - t0
            stats = server.stats()

    lost = 0
    for i, lines in enumerate(fleets):
        spool = spool_dir / spool_name(f"bench-{i}", APPLICATION)
        written = (len(spool.read_text(encoding="utf-8").splitlines())
                   if spool.exists() else 0)
        lost += len(lines) - written
    dropped = sum(c.dropped_records for c in clients)
    nacks = sum(c.nacks_received for c in clients)
    retries = sum(c.retries for c in clients)
    rate = total_lines / elapsed if elapsed else float("inf")
    p99 = histogram_p99(observer, "ingest.client.flush_ms")

    print()
    print(f"elapsed: {elapsed * 1000:.0f} ms  "
          f"throughput: {rate:,.0f} records/s")
    print(f"backpressure: {nacks} nacks, {retries} retries "
          f"(server saw {stats['nacks_sent']} nacks, "
          f"{stats['sessions']} sessions)")
    print("p99 send-to-ack latency: "
          + (f"<= {p99:.0f} ms" if p99 is not None else "n/a"))

    failed = False
    if lost or dropped:
        print(f"FAIL: record loss — {lost} lines missing from spools, "
              f"{dropped} dropped by clients", file=sys.stderr)
        failed = True
    if nacks == 0:
        print("FAIL: backpressure never exercised (0 nacks) — "
              "shrink --queue-limit or grow the fleet", file=sys.stderr)
        failed = True
    if rate < args.min_records_per_sec:
        print(f"FAIL: throughput {rate:,.0f} records/s is below the "
              f"required {args.min_records_per_sec:,.0f}", file=sys.stderr)
        failed = True
    if p99 is not None and p99 > args.max_p99_ms:
        print(f"FAIL: p99 ingest latency <= {p99:.0f} ms exceeds the "
              f"{args.max_p99_ms:.0f} ms bound", file=sys.stderr)
        failed = True
    tmpdir.cleanup()
    if args.json_out:
        append_trajectory(Path(args.json_out), "ingest_service", {
            "generated": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "workload": {
                "sessions": args.sessions,
                "records": args.records,
                "batch_records": args.batch_records,
                "queue_limit": args.queue_limit,
            },
            "elapsed_s": round(elapsed, 6),
            "records_total": total_lines,
            "records_per_sec": round(rate, 1),
            "p99_send_to_ack_ms": p99,
            "nacks": nacks,
            "retries": retries,
            "lost_records": lost + dropped,
            "passed": not failed,
        })
        print(f"trajectory entry appended to {args.json_out}")
    if not failed:
        print(f"PASS: {args.sessions} concurrent sessions, zero loss "
              "under backpressure")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
