"""The ``study`` command: run the characterization study, query the warehouse.

``study`` (no subcommand) runs the full study; ``study query
{runs|aggregate|top|series|regressions}`` reads a study warehouse built
with ``study --warehouse`` or ``ingest serve --study-warehouse``.

Exit-code contract for ``study query`` and ``study diff``: 0 on
success, 1 when ``regressions`` finds a regression, 2 when the
warehouse file does not exist or is unusable (another store's file, a
newer schema) or the query is malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli._shared import (
    add_cache_dir,
    add_faults,
    add_obs,
    add_output,
    add_workers,
)

#: ``study query`` against a warehouse file that does not exist or
#: cannot be used.
EXIT_NO_WAREHOUSE = 2

#: ``study query regressions`` found at least one regression.
EXIT_REGRESSED = 1

#: Default warehouse file for ``study query`` / ``study --warehouse``.
DEFAULT_WAREHOUSE = "study-warehouse.sqlite"


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.study.report import render_figures, write_experiments_md
    from repro.study.runner import (
        APPLICATION_NAMES,
        StudyConfig,
        run_study,
    )
    from repro.study.tables import format_table3

    applications = tuple(APPLICATION_NAMES)
    if args.apps:
        unknown = [name for name in args.apps if name not in APPLICATION_NAMES]
        if unknown:
            print(
                f"unknown application(s): {', '.join(unknown)} "
                f"(choose from {', '.join(APPLICATION_NAMES)})",
                file=sys.stderr,
            )
            return 1
        applications = tuple(args.apps)
    config = StudyConfig(
        seed=args.seed,
        sessions=args.sessions,
        scale=args.scale,
        applications=applications,
    )
    obs = None
    if args.obs is not None or args.profile:
        from repro.obs import Observer

        obs = Observer(profile=args.profile)
    injector = None
    if args.faults is not None:
        from repro.core.errors import LagAlyzerError
        from repro.faults import FaultInjector, FaultPlan

        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, LagAlyzerError) as error:
            print(f"error: cannot load fault plan: {error}", file=sys.stderr)
            return 1
        injector = FaultInjector(plan)
        print(
            f"fault injection: {len(plan.rules)} rule(s), "
            f"seed {plan.seed} ({args.faults})"
        )
    print(
        f"running study: {len(config.applications)} applications x "
        f"{config.sessions} sessions (scale {config.scale}, "
        f"workers {args.workers}) ..."
    )
    result = run_study(
        config,
        progress=True,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        obs=obs,
        faults=injector,
        warehouse=args.warehouse,
        warehouse_run_id=args.warehouse_run_id,
    )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    table3 = format_table3(
        [app.mean_stats for app in result.ordered()], result.mean_stats
    )
    (outdir / "table3.txt").write_text(table3 + "\n", encoding="utf-8")
    figure_paths = render_figures(result, outdir)
    report_path = write_experiments_md(result, outdir / "EXPERIMENTS.md")
    from repro.study.export import write_study_csvs
    from repro.study.html import write_html_report

    write_study_csvs(result, outdir / "csv")
    html_path = write_html_report(result, outdir / "report.html")
    print(table3)
    print(
        f"wrote {len(figure_paths)} figures, {report_path}, and "
        f"{html_path} to {outdir}/"
    )
    if injector is not None:
        quarantined = result.quarantined
        total = sum(len(entries) for entries in quarantined.values())
        print(
            f"fault injection: {len(injector.events)} fault(s) fired in "
            f"this process, {total} session(s) quarantined"
        )
        for entries in quarantined.values():
            for entry in entries:
                print(f"  quarantined {entry.describe()}")
    if obs is not None:
        if args.obs is not None:
            obs_dir = Path(args.obs)
            obs.save(obs_dir)
            print(f"wrote observability bundle to {obs_dir}/")
        if args.profile:
            report = obs.profiler.format_report(top=5)
            if report:
                print(report)
        print(obs.summary_line())
    return 0


def _cmd_study_entry(args: argparse.Namespace) -> int:
    """Dispatch ``study`` vs ``study query ...``.

    The query subcommands bind their handler to ``query_func`` (not
    ``func``) because argparse applies the parent parser's ``func``
    default before a subparser runs, so a child ``func`` default would
    never take effect.
    """
    query_func = getattr(args, "query_func", None)
    if query_func is None:
        return _cmd_study(args)
    from repro.warehouse import StudyWarehouseError

    try:
        return query_func(args)
    except StudyWarehouseError as error:
        print(f"error: {args.warehouse}: {error}", file=sys.stderr)
        return EXIT_NO_WAREHOUSE


def _open_warehouse(args: argparse.Namespace):
    """The warehouse behind ``args.warehouse``, or ``None`` (missing)."""
    from repro.warehouse import StudyWarehouse

    path = Path(args.warehouse)
    if not path.exists():
        print(
            f"error: no study warehouse at {path} "
            f"(build one with `study --warehouse` or "
            f"`ingest serve --study-warehouse`)",
            file=sys.stderr,
        )
        return None
    return StudyWarehouse(path)


def _cmd_query_runs(args: argparse.Namespace) -> int:
    store = _open_warehouse(args)
    if store is None:
        return EXIT_NO_WAREHOUSE
    records = store.runs()
    if args.json:
        print(json.dumps([r.as_dict() for r in records], indent=2))
        return 0
    if not records:
        print("no runs recorded")
        return 0
    print(f"{'RUN':<28s} {'SOURCE':<8s} {'SESSIONS':>8s}  LABEL")
    for record in records:
        print(
            f"{record.run_id:<28s} {record.source:<8s} "
            f"{record.sessions:>8d}  {record.label}"
        )
    return 0


def _cmd_query_aggregate(args: argparse.Namespace) -> int:
    store = _open_warehouse(args)
    if store is None:
        return EXIT_NO_WAREHOUSE
    rows = store.aggregate(
        apps=args.apps, run_ids=args.runs, since_ts=args.since
    )
    if args.json:
        print(json.dumps([r.as_dict() for r in rows], indent=2))
        return 0
    if not rows:
        print("no sessions match")
        return 0
    print(
        f"{'APP':<16s} {'SESSIONS':>8s} {'TRACED':>8s} "
        f"{'PERCEPT':>8s} {'RATE':>7s} {'LONG/MIN':>9s}"
    )
    for row in rows:
        print(
            f"{row.application:<16s} {row.sessions:>8d} "
            f"{row.traced_episodes:>8d} {row.perceptible_episodes:>8d} "
            f"{row.perceptible_rate:>7.3f} {row.mean_long_per_min:>9.2f}"
        )
    return 0


def _cmd_query_top(args: argparse.Namespace) -> int:
    store = _open_warehouse(args)
    if store is None:
        return EXIT_NO_WAREHOUSE
    rows = store.top_patterns(
        n=args.limit, metric=args.analyses, apps=args.apps, run_ids=args.runs
    )
    if args.json:
        print(json.dumps([r.as_dict() for r in rows], indent=2))
        return 0
    if not rows:
        print("no patterns match")
        return 0
    print(
        f"{'APP':<16s} {'OCCUR':>6s} {'PERCEPT':>8s} {'SESSIONS':>8s}  "
        f"PATTERN"
    )
    for row in rows:
        print(
            f"{row.application:<16s} {row.occurrences:>6d} "
            f"{row.perceptible:>8d} {row.sessions:>8d}  {row.pattern_key}"
        )
    return 0


def _cmd_query_series(args: argparse.Namespace) -> int:
    store = _open_warehouse(args)
    if store is None:
        return EXIT_NO_WAREHOUSE
    points = store.series(
        metric=args.metric,
        bucket=args.bucket,
        apps=args.apps,
        run_ids=args.runs,
        since_ts=args.since,
    )
    if args.json:
        print(json.dumps([p.as_dict() for p in points], indent=2))
        return 0
    if not points:
        print("no sessions match")
        return 0
    print(f"{'APP':<16s} {'BUCKET':>12s} {'SESSIONS':>8s} {'VALUE':>10s}")
    for point in points:
        print(
            f"{point.application:<16s} {point.bucket_ts:>12.0f} "
            f"{point.sessions:>8d} {point.value:>10.4f}"
        )
    return 0


def _cmd_query_regressions(args: argparse.Namespace) -> int:
    store = _open_warehouse(args)
    if store is None:
        return EXIT_NO_WAREHOUSE
    report = store.regression(
        baseline_runs=args.baseline,
        candidate_runs=args.candidate,
        metric=args.metric,
        min_delta=args.min_delta,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return EXIT_REGRESSED if report.regressed else 0
    print(
        f"{args.metric}: baseline {', '.join(args.baseline)} vs "
        f"candidate {', '.join(args.candidate)} "
        f"(min delta {args.min_delta})"
    )
    print(
        f"{'APP':<16s} {'BASELINE':>10s} {'CANDIDATE':>10s} "
        f"{'DELTA':>10s}  VERDICT"
    )
    for entry in report.entries:
        verdict = "REGRESSED" if entry.regressed else "ok"
        print(
            f"{entry.application:<16s} {entry.baseline_value:>10.4f} "
            f"{entry.candidate_value:>10.4f} {entry.delta:>+10.4f}  "
            f"{verdict}"
        )
    if report.regressed:
        count = len(report.regressions)
        print(f"{count} application(s) regressed")
        return EXIT_REGRESSED
    print("no regressions")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    store = _open_warehouse(args)
    if store is None:
        return EXIT_NO_WAREHOUSE
    report = store.diff(
        args.run_a,
        args.run_b,
        apps=args.apps,
        perceptible_only=args.perceptible_only,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "run_a": report.run_a,
                    "run_b": report.run_b,
                    "total_delta_ns": report.total_delta_ns,
                    "deltas": [
                        {
                            "label": d.label,
                            "delta_ns": d.delta_ns,
                            "a_total_ns": d.a_total_ns,
                            "b_total_ns": d.b_total_ns,
                            "a_episodes": d.a_episodes,
                            "b_episodes": d.b_episodes,
                        }
                        for d in report.deltas[: args.limit]
                    ],
                },
                indent=2,
            )
        )
        return 0
    if not report.deltas:
        print(f"no cause rows for {args.run_a} or {args.run_b}")
        return 0
    sign = "+" if report.total_delta_ns >= 0 else ""
    print(
        f"{report.run_a} -> {report.run_b}: "
        f"{sign}{report.total_delta_ns / 1e6:.1f} ms in-episode self time"
    )
    if all(delta.delta_ns == 0 for delta in report.deltas):
        print(f"no cause moved between {report.run_a} and {report.run_b}")
        return 0
    # Causes that moved, the heaviest regressions then the heaviest
    # improvements: most labels of two runs of one study hold still.
    moved = report.regressions(args.limit) + report.improvements(args.limit)
    print(f"{'DELTA[ms]':>10s} {'A[ms]':>9s} {'B[ms]':>9s}  CAUSE")
    for delta in moved:
        print(
            f"{delta.delta_ns / 1e6:>+10.1f} "
            f"{delta.a_total_ns / 1e6:>9.1f} "
            f"{delta.b_total_ns / 1e6:>9.1f}  {delta.label}"
        )
    return 0


def _add_query_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--warehouse", default=DEFAULT_WAREHOUSE, metavar="FILE",
        help=f"study warehouse file (default: {DEFAULT_WAREHOUSE})",
    )
    parser.add_argument("--apps", nargs="+", default=None, metavar="APP",
                        help="restrict to these applications")
    parser.add_argument("--runs", nargs="+", default=None, metavar="RUN",
                        help="restrict to these run ids")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``study`` subcommand (run + warehouse queries)."""
    p_st = sub.add_parser(
        "study",
        help="run the full characterization study / query the "
        "study warehouse",
    )
    p_st.add_argument("--seed", type=int, default=20100401)
    p_st.add_argument("--sessions", type=int, default=4)
    p_st.add_argument("--scale", type=float, default=1.0)
    add_output(p_st, "study-output")
    add_workers(p_st, help="processes to fan applications out across "
                "(0 = one per CPU)")
    add_cache_dir(p_st)
    p_st.add_argument("--no-cache", action="store_true",
                      help="recompute everything, bypassing the cache")
    p_st.add_argument("--apps", nargs="+", default=None, metavar="APP",
                      help="restrict the study to these applications "
                      "(default: all of Table II)")
    add_obs(p_st)
    p_st.add_argument("--profile", action="store_true",
                      help="profile analysis map calls with cProfile "
                      "and report the top hotspots")
    add_faults(p_st)
    p_st.add_argument("--warehouse", default=None, metavar="FILE",
                      help="compact this run's results into a study "
                      "warehouse file after the study")
    p_st.add_argument("--warehouse-run-id", default=None, metavar="RUN",
                      help="run id warehouse rows are filed under "
                      "(default: study-<seed>-<config-fp>)")
    p_st.set_defaults(func=_cmd_study_entry)

    # ``study query ...`` rides on an *optional* subparser level so the
    # bare ``study --apps ...`` invocation keeps working unchanged.
    study_sub = p_st.add_subparsers(dest="study_command", metavar="")

    p_q = study_sub.add_parser(
        "query", help="query a study warehouse built by --warehouse"
    )
    query_sub = p_q.add_subparsers(dest="query_command", required=True)

    p_runs = query_sub.add_parser("runs", help="list recorded runs")
    p_runs.add_argument(
        "--warehouse", default=DEFAULT_WAREHOUSE, metavar="FILE",
        help=f"study warehouse file (default: {DEFAULT_WAREHOUSE})",
    )
    p_runs.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")
    p_runs.set_defaults(query_func=_cmd_query_runs)

    p_agg = query_sub.add_parser(
        "aggregate", help="cross-session totals per application"
    )
    _add_query_common(p_agg)
    p_agg.add_argument("--since", type=float, default=None, metavar="TS",
                       help="only sessions ingested at/after this "
                       "unix timestamp")
    p_agg.set_defaults(query_func=_cmd_query_aggregate)

    p_top = query_sub.add_parser(
        "top", help="the N worst patterns fleet-wide"
    )
    _add_query_common(p_top)
    p_top.add_argument(
        "--analyses", default="perceptible_lag",
        choices=("perceptible_lag", "occurrences"),
        help="ranking metric (default: perceptible_lag)",
    )
    p_top.add_argument("-n", "--limit", type=int, default=10,
                       help="patterns to list (default: 10)")
    p_top.set_defaults(query_func=_cmd_query_top)

    p_ser = query_sub.add_parser(
        "series", help="per-app time series over ingest time"
    )
    _add_query_common(p_ser)
    p_ser.add_argument("--metric", default="perceptible_rate",
                       help="series metric (default: perceptible_rate)")
    p_ser.add_argument("--bucket", default="hour",
                       choices=("minute", "hour", "day"),
                       help="bucket width (default: hour)")
    p_ser.add_argument("--since", type=float, default=None, metavar="TS",
                       help="only sessions ingested at/after this "
                       "unix timestamp")
    p_ser.set_defaults(query_func=_cmd_query_series)

    p_reg = query_sub.add_parser(
        "regressions", help="before/after diff between two run sets"
    )
    _add_query_common(p_reg)
    p_reg.add_argument("--baseline", nargs="+", required=True,
                       metavar="RUN", help="baseline run id(s)")
    p_reg.add_argument("--candidate", nargs="+", required=True,
                       metavar="RUN", help="candidate run id(s)")
    p_reg.add_argument("--metric", default="perceptible_rate",
                       help="comparison metric (default: "
                       "perceptible_rate)")
    p_reg.add_argument("--min-delta", type=float, default=0.0,
                       help="regression threshold on the metric delta "
                       "(default: 0.0)")
    p_reg.set_defaults(query_func=_cmd_query_regressions)

    p_diff = study_sub.add_parser(
        "diff",
        help="attribute the latency delta between two runs to causes",
    )
    p_diff.add_argument("run_a", metavar="RUN_A", help="baseline run id")
    p_diff.add_argument("run_b", metavar="RUN_B", help="candidate run id")
    p_diff.add_argument(
        "--warehouse", default=DEFAULT_WAREHOUSE, metavar="FILE",
        help=f"study warehouse file (default: {DEFAULT_WAREHOUSE})",
    )
    p_diff.add_argument("--apps", nargs="+", default=None, metavar="APP",
                        help="restrict to these applications")
    p_diff.add_argument("--perceptible-only", action="store_true",
                        help="diff perceptible-episode self time only")
    p_diff.add_argument("-n", "--limit", type=int, default=15,
                        help="causes to list (default: 15)")
    p_diff.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")
    p_diff.set_defaults(query_func=_cmd_diff)
