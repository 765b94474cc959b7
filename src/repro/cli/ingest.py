"""The ``ingest`` command group: serve, replay, tail.

- ``ingest serve``  — run the collector daemon until SIGINT or SIGTERM;
- ``ingest replay`` — replay existing trace files through the framed
  protocol as concurrent client sessions (load generator and the
  easiest way to exercise a daemon end to end);
- ``ingest tail``   — incremental analysis of a (possibly still
  growing) spool file: rolling episode/pattern summaries without
  waiting for the session to end.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.cli._shared import add_faults, add_obs, add_threshold, add_workers


def _load_injector(args: argparse.Namespace):
    """The ambient-installable injector for ``--faults``, or None."""
    if getattr(args, "faults", None) is None:
        return None
    from repro.core.errors import LagAlyzerError
    from repro.faults import FaultInjector, FaultPlan

    try:
        plan = FaultPlan.load(args.faults)
    except (OSError, LagAlyzerError) as error:
        print(f"error: cannot load fault plan: {error}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"fault injection: {len(plan.rules)} rule(s), "
        f"seed {plan.seed} ({args.faults})"
    )
    return FaultInjector(plan)


def _make_observer(args: argparse.Namespace):
    if getattr(args, "obs", None) is None:
        return None
    from repro.obs import Observer

    return Observer()


def _finish_observer(obs, args: argparse.Namespace) -> None:
    if obs is None:
        return
    obs_dir = Path(args.obs)
    obs.save(obs_dir)
    print(f"wrote observability bundle to {obs_dir}/")
    print(obs.summary_line())


def _analysis_config(args: argparse.Namespace):
    from repro.core.analyzer import AnalysisConfig

    return AnalysisConfig(perceptible_threshold_ms=args.threshold)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


@contextmanager
def _sigterm_interrupts() -> Iterator[None]:
    """Within the ``with``, SIGTERM raises ``KeyboardInterrupt`` as SIGINT does.

    Service managers stop a daemon with SIGTERM, and a daemon started
    with ``&`` from a non-interactive shell ignores SIGINT. Only the
    main thread can set a handler; elsewhere this changes nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.errors import LagAlyzerError
    from repro.faults import runtime as faults_runtime
    from repro.ingest.server import IngestServer
    from repro.obs import runtime as obs_runtime

    obs = _make_observer(args)
    ambient = obs
    if ambient is None and (
        args.warehouse is not None or args.health_port is not None
    ):
        # Telemetry needs an observer even without --obs; this one is
        # never saved as a bundle.
        from repro.obs import Observer

        ambient = Observer()
    slo = None
    if args.slo is not None:
        from repro.obs.slo import SloPolicy

        try:
            slo = SloPolicy.load(args.slo)
        except LagAlyzerError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    injector = _load_injector(args)
    with obs_runtime.installed(ambient), faults_runtime.installed(injector):
        server = IngestServer(
            spool_dir=args.spool_dir,
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            config=_analysis_config(args),
            health_port=args.health_port,
            slo=slo,
            warehouse=args.warehouse,
            publish_interval_s=args.publish_interval,
            run_id=args.run_id,
            study_warehouse=args.study_warehouse,
        )
        server.start()
        try:
            # Either signal ends the wait; stop() then flushes every
            # session and compacts the spools. The handler is in place
            # before the address is printed.
            with _sigterm_interrupts():
                host, port = server.address
                print(f"ingest daemon listening on {host}:{port} "
                      f"(spools -> {args.spool_dir}/)")
                if server.health is not None:
                    h_host, h_port = server.health.address
                    print(f"health endpoints on http://{h_host}:{h_port} "
                          f"(/healthz /metrics /sessions)")
                if server.warehouse is not None:
                    print(f"telemetry warehouse -> {server.warehouse.path} "
                          f"(run {server.run_id})")
                if server.study_warehouse is not None:
                    print(f"study warehouse -> {server.study_warehouse.path} "
                          f"(run {server.run_id}, compacted on shutdown)")
                threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
            stats = server.stats()
            print(json.dumps(stats, sort_keys=True))
    _finish_observer(obs, args)
    return 0


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def _replay_one(args, address, index: int, path: Path) -> dict:
    from repro.core.family import DEFAULT_FAMILY_NAME, FAMILY_KEY
    from repro.ingest.client import TraceClient
    from repro.lila.autodetect import detect_format, load_trace
    from repro.lila.source import TextTraceSource
    from repro.lila.writer import trace_to_lines

    # The wire carries text lines: a text trace goes out verbatim, any
    # other encoding as the lines of the trace it loads to. Lines are
    # read as the trace reader reads them (a byte that is not UTF-8
    # raises its typed error) and end only where it ends them: reading
    # turns "\r\n" and "\r" into "\n", and a symbol may hold any
    # other character that ``str.splitlines`` breaks at.
    if detect_format(path) == "text":
        with TextTraceSource(path).open_lines() as handle:
            lines = "".join(handle).split("\n")
        if not lines[-1]:
            lines.pop()  # the empty tail after a final newline
    else:
        lines = trace_to_lines(load_trace(path))
    # HELLO announces the family the trace declares; the last
    # declaration wins, as it does for the reader.
    declaration = f"M x.{FAMILY_KEY} "
    family = next(
        (line[len(declaration):] for line in reversed(lines)
         if line.startswith(declaration)),
        DEFAULT_FAMILY_NAME,
    )
    session = f"{args.session_prefix}{index}"
    client = TraceClient(
        address,
        session=session,
        application=path.stem,
        batch_records=args.batch_records,
        family=family,
    )
    with client:
        client.extend(lines)
    return {
        "session": session,
        "trace": str(path),
        "records_sent": client.records_sent,
        "nacks": client.nacks_received,
        "retries": client.retries,
        "dropped_records": client.dropped_records,
    }


def _cmd_replay(args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.errors import LagAlyzerError
    from repro.faults import runtime as faults_runtime
    from repro.lila.autodetect import expand_trace_paths
    from repro.obs import runtime as obs_runtime

    host, _, port = args.address.rpartition(":")
    if not host:
        print(f"error: --address must be HOST:PORT, got {args.address!r}",
              file=sys.stderr)
        return 1
    address = (host, int(port))
    paths = []
    for item in args.traces:
        paths.extend(expand_trace_paths(item))
    if not paths:
        print("error: no trace files matched", file=sys.stderr)
        return 1
    obs = _make_observer(args)
    ambient = obs
    if ambient is None and args.warehouse is not None:
        from repro.obs import Observer

        ambient = Observer()
    injector = _load_injector(args)
    workers = args.workers if args.workers > 0 else len(paths)
    results = []
    failed = 0
    with obs_runtime.installed(ambient), faults_runtime.installed(injector):
        with ThreadPoolExecutor(max_workers=min(workers, len(paths))) as pool:
            futures = [
                pool.submit(_replay_one, args, address, index, Path(path))
                for index, path in enumerate(paths)
            ]
            # A trace that raises a typed error (a damaged one, say) is
            # one error line; the others still replay.
            for path, future in zip(paths, futures):
                try:
                    results.append(future.result())
                except LagAlyzerError as error:
                    print(f"error: {path}: {error}", file=sys.stderr)
                    failed += 1
        if args.warehouse is not None:
            _publish_replay_telemetry(ambient, args)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    total = sum(r["records_sent"] for r in results)
    dropped = sum(r["dropped_records"] for r in results)
    print(f"replayed {len(results)} session(s): {total} records sent, "
          f"{dropped} dropped")
    _finish_observer(obs, args)
    return 0 if dropped == 0 and not failed else 1


def _publish_replay_telemetry(obs, args: argparse.Namespace) -> None:
    """One-shot warehouse flush of a replay's client-side telemetry.

    This is where send-to-ack latency (``ingest.client.flush_ms``)
    enters the warehouse — it is measured by the sending side, so the
    daemon's own publisher never sees it.
    """
    import os

    from repro.obs.publisher import TelemetryPublisher
    from repro.obs.warehouse import Warehouse

    run_id = args.run_id or f"replay-{os.getpid()}"
    publisher = TelemetryPublisher(
        obs, Warehouse(args.warehouse), run_id, interval_s=3600.0
    )
    if publisher.publish_once():
        print(f"published replay telemetry -> {args.warehouse} "
              f"(run {run_id})")
    else:
        print(f"warning: could not publish telemetry to {args.warehouse}",
              file=sys.stderr)


# ----------------------------------------------------------------------
# tail
# ----------------------------------------------------------------------


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.core.errors import LagAlyzerError
    from repro.ingest.incremental import IncrementalSessionAnalyzer
    from repro.lila.source import TextTraceSource

    path = Path(args.spool)
    if not path.exists():
        print(f"error: no such spool: {path}", file=sys.stderr)
        return 1
    source = TextTraceSource(path)
    analyzer = IncrementalSessionAnalyzer(
        label=str(path), config=_analysis_config(args)
    )
    consumed = 0
    try:
        while True:
            try:
                # Read as the trace reader reads (a byte that is not
                # UTF-8 raises its typed error) and split where it
                # splits (see _replay_one). A spool flush is
                # line-atomic, but guard against reading mid-write: the
                # unterminated final piece (empty after a final
                # newline) waits for the next poll.
                with source.open_lines() as lines:
                    text = "".join(lines)
                fresh = text.split("\n")[:-1][consumed:]
                analyzer.push_lines(fresh)
            except LagAlyzerError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            if fresh:
                consumed += len(fresh)
                print(json.dumps(analyzer.rolling_summary(), sort_keys=True))
            if not args.follow:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if consumed == 0:
        print(json.dumps(analyzer.rolling_summary(), sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``ingest`` subcommand group."""
    p_in = sub.add_parser(
        "ingest", help="live trace ingestion (daemon, replay, tail)"
    )
    in_sub = p_in.add_subparsers(dest="ingest_command", required=True)

    p_sv = in_sub.add_parser("serve", help="run the collector daemon")
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=4271)
    p_sv.add_argument("--spool-dir", default="spools",
                      help="directory session spools are written to")
    p_sv.add_argument("--queue-limit", type=int, default=8,
                      help="unflushed batches per session before "
                      "backpressure nacks")
    p_sv.add_argument("--health-port", type=int, default=None,
                      metavar="PORT",
                      help="serve /healthz /metrics /sessions on this "
                      "port (0 = pick a free one)")
    p_sv.add_argument("--slo", default=None, metavar="FILE",
                      help="SLO policy JSON behind /healthz (default: "
                      "the built-in ingest policy)")
    p_sv.add_argument("--warehouse", default=None, metavar="FILE",
                      help="flush periodic telemetry into this metrics "
                      "warehouse (queried with 'obs query')")
    p_sv.add_argument("--publish-interval", type=float, default=2.0,
                      help="seconds between warehouse flushes")
    p_sv.add_argument("--run-id", default=None,
                      help="warehouse partition key for this daemon run "
                      "(default ingest-<pid>)")
    p_sv.add_argument("--study-warehouse", default=None, metavar="FILE",
                      help="compact flushed session spools into this "
                      "study warehouse on shutdown (queried with "
                      "'study query'); distinct from --warehouse, "
                      "which stores operational telemetry")
    add_threshold(p_sv)
    add_obs(p_sv)
    add_faults(p_sv)
    p_sv.set_defaults(func=_cmd_serve)

    p_rp = in_sub.add_parser(
        "replay", help="replay trace files as live client sessions"
    )
    p_rp.add_argument("traces", nargs="+",
                      help="trace files, directories, or glob patterns")
    p_rp.add_argument("--address", default="127.0.0.1:4271",
                      metavar="HOST:PORT", help="daemon to replay into")
    p_rp.add_argument("--session-prefix", default="replay-",
                      help="session ids become PREFIX0, PREFIX1, ...")
    p_rp.add_argument("--batch-records", type=int, default=256,
                      help="record lines per client batch")
    p_rp.add_argument("--warehouse", default=None, metavar="FILE",
                      help="publish the replay's client-side telemetry "
                      "(send-to-ack latency...) into this warehouse")
    p_rp.add_argument("--run-id", default=None,
                      help="warehouse partition key for this replay "
                      "(default replay-<pid>)")
    add_workers(p_rp, help="concurrent replay sessions "
                "(0 = all sessions at once)")
    add_obs(p_rp)
    add_faults(p_rp)
    p_rp.set_defaults(func=_cmd_replay)

    p_tl = in_sub.add_parser(
        "tail", help="rolling analysis of a (growing) spool file"
    )
    p_tl.add_argument("spool", help="spool .lila file to analyze")
    p_tl.add_argument("--follow", "-f", action="store_true",
                      help="keep polling for appended records")
    p_tl.add_argument("--interval", type=float, default=0.5,
                      help="poll interval with --follow (seconds)")
    add_threshold(p_tl)
    p_tl.set_defaults(func=_cmd_tail)
