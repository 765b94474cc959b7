"""The ``obs`` command group: bundles, the warehouse, and live health.

- ``obs report`` / ``export`` / ``timeline`` — one run's saved bundle;
- ``obs query``  — aggregates and time-series from a metrics warehouse;
- ``obs slo``    — evaluate SLO policies (against a live ``/healthz``
  or an offline stats file); exit code is the health verdict;
- ``obs top``    — a polling terminal view of a live daemon's health
  endpoints.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cli._shared import add_output

#: Exit code for "the input you named does not exist / holds no data" —
#: distinct from 1 ("ran, but the answer is bad") for scripting.
EXIT_NO_INPUT = 2


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.observer import load_bundle

    try:
        bundle = load_bundle(args.directory)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_NO_INPUT
    spans = bundle["spans"]
    metrics = bundle["metrics"]

    if args.obs_command == "report":
        from repro.obs.spans import span_depth

        print(f"bundle:       {args.directory}")
        pids = sorted({span.pid for span in spans})
        print(f"spans:        {len(spans)} across {len(pids)} process(es)")
        print(f"span depth:   {span_depth(spans)}")
        counters = metrics.get("counters", {})
        if counters:
            print("counters:")
            for name in sorted(counters):
                print(f"  {name:<28} {counters[name]}")
        gauges = metrics.get("gauges", {})
        if gauges:
            print("gauges:")
            for name in sorted(gauges):
                print(f"  {name:<28} {gauges[name]}")
        histograms = metrics.get("histograms", {})
        if histograms:
            print("latencies (ms):")
            for name in sorted(histograms):
                hist = histograms[name]
                count = hist.get("count", 0)
                mean = hist.get("sum", 0.0) / count if count else 0.0
                print(f"  {name:<28} n={count} mean={mean:.2f}")
        slowest = sorted(
            spans, key=lambda span: span.duration_ns, reverse=True
        )[: args.limit]
        if slowest:
            print(f"slowest spans (top {len(slowest)}):")
            for span in slowest:
                print(
                    f"  {span.duration_ms:>10.2f} ms  {span.name}"
                    f"  (pid {span.pid})"
                )
        profile = bundle.get("profile")
        if profile:
            from repro.obs.profiling import ProfileAggregator

            aggregator = ProfileAggregator()
            aggregator.merge(profile)
            report = aggregator.format_report(top=args.limit)
            if report:
                print(report)
        return 0

    if args.obs_command == "timeline":
        from repro.viz.obstimeline import save_span_timeline

        path = save_span_timeline(spans, args.output)
        print(f"wrote {path} ({len(spans)} spans)")
        return 0

    # export
    if args.format == "chrome":
        from repro.obs.export import spans_to_chrome

        text = json.dumps(spans_to_chrome(spans), indent=2)
        default_name = "trace.chrome.json"
    elif args.format == "jsonl":
        from repro.obs.export import spans_to_jsonl

        text = spans_to_jsonl(spans)
        default_name = "spans.export.jsonl"
    else:
        from repro.obs.export import metrics_to_prometheus

        text = metrics_to_prometheus(metrics)
        default_name = "metrics.prom"
    if args.output == "-":
        print(text)
        return 0
    out = Path(args.output) if args.output else Path(default_name)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + ("\n" if not text.endswith("\n") else ""),
                   encoding="utf-8")
    print(f"wrote {out} ({args.format})")
    return 0


# ----------------------------------------------------------------------
# query — the metrics warehouse
# ----------------------------------------------------------------------


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.obs.warehouse import Warehouse, WarehouseError

    path = Path(args.warehouse)
    if not path.is_file():
        print(
            f"error: no metrics warehouse at {path} — point at the file "
            f"given to 'ingest serve --warehouse'",
            file=sys.stderr,
        )
        return EXIT_NO_INPUT
    warehouse = Warehouse(path)
    try:
        warehouse.schema_version()
    except WarehouseError as error:
        # A file this store cannot use is no input, not a bad query.
        print(f"error: {path}: {error}", file=sys.stderr)
        return EXIT_NO_INPUT
    since = None
    if args.since_hours is not None:
        import time as _time

        since = _time.time() - args.since_hours * 3600.0
    try:
        if args.series:
            rows = warehouse.series(
                args.series, bucket=args.bucket,
                run_id=args.run, since_ts=since,
            )
            for bucket_ts, value in rows:
                print(json.dumps(
                    {"bucket_ts": bucket_ts, "name": args.series,
                     "value": value},
                    sort_keys=True,
                ))
            if not rows:
                print(f"error: no points for {args.series!r} — "
                      f"'obs query {path} --names' lists what published",
                      file=sys.stderr)
                return EXIT_NO_INPUT
            return 0
        if args.percentile:
            rows = warehouse.percentile_series(
                args.percentile, q=args.q, bucket=args.bucket,
                run_id=args.run, since_ts=since,
            )
            for bucket_ts, estimate, count in rows:
                print(json.dumps(
                    {"bucket_ts": bucket_ts, "name": args.percentile,
                     "q": args.q, "estimate_ms": estimate, "count": count},
                    sort_keys=True,
                ))
            if not rows:
                print(f"error: no histogram points for "
                      f"{args.percentile!r} — "
                      f"'obs query {path} --names' lists what published",
                      file=sys.stderr)
                return EXIT_NO_INPUT
            return 0
        if args.spans:
            for row in warehouse.span_summary(
                run_id=args.run, since_ts=since
            ):
                print(json.dumps(row, sort_keys=True))
            return 0
        if args.totals:
            print(json.dumps(
                warehouse.totals(run_id=args.run, since_ts=since),
                indent=2, sort_keys=True,
            ))
            return 0
        if args.names:
            print(json.dumps(
                warehouse.metric_names(), indent=2, sort_keys=True
            ))
            return 0
        # Default: the runs overview.
        runs = warehouse.runs()
        for run in runs:
            print(json.dumps(run, sort_keys=True))
        print(f"{len(runs)} run(s) in {path}")
        return 0
    except WarehouseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# slo / top — live health
# ----------------------------------------------------------------------


def _fetch_json(url: str, timeout_s: float) -> Tuple[int, Any]:
    import json
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _load_policy(path: Optional[str]):
    from repro.obs.slo import DEFAULT_INGEST_SLO, SloPolicy

    if path is None:
        return DEFAULT_INGEST_SLO
    return SloPolicy.load(path)


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import LagAlyzerError

    try:
        policy = _load_policy(args.policy)
    except LagAlyzerError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_NO_INPUT
    stats: Dict[str, Any]
    if args.stats is not None:
        stats_path = Path(args.stats)
        if not stats_path.is_file():
            print(f"error: no stats file at {stats_path}", file=sys.stderr)
            return EXIT_NO_INPUT
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
    else:
        url = args.url.rstrip("/") + "/healthz"
        try:
            _, body = _fetch_json(url, args.timeout)
        except OSError as error:
            print(f"error: cannot reach {url}: {error}", file=sys.stderr)
            return EXIT_NO_INPUT
        stats = body.get("stats", {})
    report = policy.evaluate(stats)
    for line in report.lines():
        print(line)
    verdict = "healthy" if report.healthy else "UNHEALTHY"
    print(f"{report.policy}: {verdict} "
          f"({len(report.violations)} violation(s))")
    return 0 if report.healthy else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    base = args.url.rstrip("/")
    iterations = 1 if args.once else args.iterations

    def tick() -> bool:
        try:
            status, health = _fetch_json(base + "/healthz", args.timeout)
            _, sessions = _fetch_json(base + "/sessions", args.timeout)
        except OSError as error:
            print(f"error: cannot reach {base}: {error}", file=sys.stderr)
            return False
        stats = health.get("stats", {})
        verdict = "healthy" if status == 200 else "UNHEALTHY"
        print(
            f"[{verdict}] sessions={stats.get('sessions', 0):g} "
            f"accepted={stats.get('records_accepted', 0):g} "
            f"flushed={stats.get('records_flushed', 0):g} "
            f"pending={stats.get('pending_batches', 0):g} "
            f"nacks={stats.get('nacks_sent', 0):g} "
            f"lag={stats.get('spool_lag_records', 0):g}"
        )
        for result in health.get("results", []):
            if not result.get("ok", True):
                print(f"  SLO FAIL: {result['description']} "
                      f"(value={result['value']:g})")
        for row in sessions:
            print(
                f"  {row['session']:<24} app={row['application'] or '-':<12}"
                f" flushed={row['records_flushed']:>8}"
                f" pending={row['pending_batches']:>3}"
                f" nacks={row['nacks_sent']:>3}"
                f"{' ended' if row['ended'] else ''}"
            )
        return True

    import itertools

    ok = True
    try:
        sequence = range(iterations) if iterations else itertools.count()
        for index in sequence:
            if index:
                time.sleep(args.interval)
            ok = tick()
            if not ok:
                break
    except KeyboardInterrupt:
        pass
    return 0 if ok else EXIT_NO_INPUT


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``obs`` subcommand group."""
    p_ob = sub.add_parser(
        "obs", help="inspect and export pipeline observability bundles"
    )
    ob_sub = p_ob.add_subparsers(dest="obs_command", required=True)
    p_or = ob_sub.add_parser("report", help="summarize a bundle")
    p_or.add_argument("directory", help="bundle written by study --obs")
    p_or.add_argument("--limit", type=int, default=10,
                      help="rows in the slowest-spans / hotspot tables")
    p_or.set_defaults(func=_cmd_obs)
    p_oe = ob_sub.add_parser("export", help="convert a bundle for other tools")
    p_oe.add_argument("directory", help="bundle written by study --obs")
    p_oe.add_argument("--format", choices=("chrome", "jsonl", "prom"),
                      default="chrome",
                      help="chrome = trace-event JSON (chrome://tracing, "
                      "Perfetto); jsonl = raw spans; prom = Prometheus "
                      "text exposition of the metrics")
    p_oe.add_argument("--output", "-o", default=None,
                      help="output file ('-' for stdout; default depends "
                      "on the format)")
    p_oe.set_defaults(func=_cmd_obs)
    p_ot = ob_sub.add_parser(
        "timeline", help="render the spans as an SVG timeline"
    )
    p_ot.add_argument("directory", help="bundle written by study --obs")
    add_output(p_ot, "obs-timeline.svg")
    p_ot.set_defaults(func=_cmd_obs)

    p_oq = ob_sub.add_parser(
        "query", help="aggregates and time-series from a metrics warehouse"
    )
    p_oq.add_argument("warehouse",
                      help="warehouse file written by ingest serve "
                      "--warehouse (or a TelemetryPublisher)")
    what = p_oq.add_mutually_exclusive_group()
    what.add_argument("--series", metavar="NAME",
                      help="counter/gauge time-series as JSON lines")
    what.add_argument("--percentile", metavar="NAME",
                      help="histogram percentile time-series "
                      "(e.g. ingest.client.flush_ms)")
    what.add_argument("--spans", action="store_true",
                      help="span rollups by name (slowest mean first)")
    what.add_argument("--totals", action="store_true",
                      help="counter totals over the selection")
    what.add_argument("--names", action="store_true",
                      help="every published metric name by table")
    p_oq.add_argument("--q", type=float, default=0.99,
                      help="quantile for --percentile (default 0.99)")
    p_oq.add_argument("--bucket", default="minute",
                      help="display bucket: minute, hour, day, or "
                      "seconds (default minute)")
    p_oq.add_argument("--run", default=None,
                      help="restrict to one run id")
    p_oq.add_argument("--since-hours", type=float, default=None,
                      help="restrict to the trailing window")
    p_oq.set_defaults(func=_cmd_query)

    p_os = ob_sub.add_parser(
        "slo", help="evaluate SLO policies against live or saved stats"
    )
    os_sub = p_os.add_subparsers(dest="slo_command", required=True)
    p_oc = os_sub.add_parser(
        "check",
        help="evaluate a policy; exit 0 healthy, 1 violated, "
        "2 unreachable",
    )
    p_oc.add_argument("--url", default="http://127.0.0.1:4272",
                      help="daemon health endpoint base URL")
    p_oc.add_argument("--stats", default=None, metavar="FILE",
                      help="evaluate a saved stats JSON instead of "
                      "polling --url")
    p_oc.add_argument("--policy", default=None, metavar="FILE",
                      help="SLO policy JSON (default: the built-in "
                      "ingest policy)")
    p_oc.add_argument("--timeout", type=float, default=3.0,
                      help="HTTP timeout (seconds)")
    p_oc.set_defaults(func=_cmd_slo)

    p_op = ob_sub.add_parser(
        "top", help="polling terminal view of a live daemon's health"
    )
    p_op.add_argument("--url", default="http://127.0.0.1:4272",
                      help="daemon health endpoint base URL")
    p_op.add_argument("--interval", type=float, default=2.0,
                      help="poll interval (seconds)")
    p_op.add_argument("--iterations", type=int, default=0,
                      help="stop after N polls (0 = until interrupted)")
    p_op.add_argument("--once", action="store_true",
                      help="one poll, then exit")
    p_op.add_argument("--timeout", type=float, default=3.0,
                      help="HTTP timeout (seconds)")
    p_op.set_defaults(func=_cmd_top)
