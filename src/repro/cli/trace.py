"""Trace-level commands: simulate, analyze, sketch, browse, export,
compare, timeline, and lint."""

from __future__ import annotations

import argparse
import sys

from repro.cli._shared import (
    add_output,
    add_threshold,
    add_traces,
    add_workers,
)
from repro.core.analyzer import AnalysisConfig, LagAlyzer


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.apps.sessions import simulate_session
    from repro.lila.writer import write_trace

    trace = simulate_session(
        args.app, session_index=args.session, seed=args.seed, scale=args.scale
    )
    path = write_trace(trace, args.output)
    print(
        f"wrote {path} ({len(trace.episodes)} episodes, "
        f"{len(trace.samples)} samples, "
        f"{trace.short_episode_count} filtered)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.viz.browser import render_pattern_browser

    config = AnalysisConfig(perceptible_threshold_ms=args.threshold)
    analyzer = LagAlyzer.load(args.traces, config=config, workers=args.workers)
    stats = analyzer.mean_session_stats()
    print(f"Application: {analyzer.application}")
    print(f"Sessions: {len(analyzer.traces)}")
    print(f"Episodes (>= filter): {stats.traced:.0f} per session")
    print(f"Perceptible (>= {args.threshold:.0f} ms): {stats.perceptible:.0f}")
    print(f"In-episode time: {stats.in_episode_pct:.0f}%")
    print(f"Distinct patterns: {analyzer.pattern_table().distinct_count}")
    from repro.core.lagstats import summarize_lags

    print(f"Lag distribution: {summarize_lags(analyzer.episodes).describe()}")
    print()
    print(
        render_pattern_browser(
            analyzer.pattern_table(),
            limit=args.limit,
            perceptible_only=args.perceptible_only,
            threshold_ms=args.threshold,
        )
    )
    if args.inspect is not None:
        from repro.core.drilldown import drill_down_pattern, format_drilldown

        table = analyzer.pattern_table()
        shown = (
            table.perceptible_only(args.threshold)
            if args.perceptible_only
            else table
        )
        rows = shown.rows()
        if not 1 <= args.inspect <= len(rows):
            print(f"--inspect out of range (1..{len(rows)})", file=sys.stderr)
            return 1
        pattern = rows[args.inspect - 1]
        print()
        print(f"drill-down into pattern #{args.inspect}:")
        print(format_drilldown(drill_down_pattern(pattern)))
    return 0


def _cmd_sketch(args: argparse.Namespace) -> int:
    from repro.viz.sketch import render_episode_sketch

    analyzer = LagAlyzer.load([args.trace])
    episodes = analyzer.episodes
    if args.episode is None:
        # Default to the worst episode: the one a developer looks at first.
        episode = max(episodes, key=lambda ep: ep.duration_ns)
    else:
        if not 0 <= args.episode < len(episodes):
            print(
                f"episode index out of range (0..{len(episodes) - 1})",
                file=sys.stderr,
            )
            return 1
        episode = episodes[args.episode]
    path = render_episode_sketch(episode).save(args.output)
    print(f"wrote {path} (episode #{episode.index}, {episode.duration_ms:.0f} ms)")
    return 0


def _cmd_browse(args: argparse.Namespace) -> int:
    from repro.viz.htmlbrowser import write_html_browser

    analyzer = LagAlyzer.load(
        args.traces,
        config=AnalysisConfig(perceptible_threshold_ms=args.threshold),
    )
    path = write_html_browser(
        analyzer,
        args.output,
        max_patterns=args.limit,
        perceptible_only=not args.all_patterns,
    )
    print(f"wrote {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core.export import write_analysis_json, write_patterns_csv

    analyzer = LagAlyzer.load(
        args.traces,
        config=AnalysisConfig(perceptible_threshold_ms=args.threshold),
    )
    if args.format == "json":
        path = write_analysis_json(analyzer, args.output)
    else:
        path = write_patterns_csv(analyzer, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_tables

    before = LagAlyzer.load(args.before)
    after = LagAlyzer.load(args.after)
    report = compare_tables(
        before.pattern_table(), after.pattern_table(),
        threshold_ms=args.threshold,
    )
    print(report.summary())
    regressions = report.regressions[: args.limit]
    if regressions:
        print()
        print("worst regressions:")
        for delta in regressions:
            print(f"  {delta.describe()}")
    improvements = report.improvements[: args.limit]
    if improvements:
        print()
        print("best improvements:")
        for delta in improvements:
            print(f"  {delta.describe()}")
    return 1 if report.regressions and args.fail_on_regression else 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.lila.autodetect import load_trace
    from repro.viz.timeline import render_session_timeline

    trace = load_trace(args.trace)
    doc = render_session_timeline(trace, threshold_ms=args.threshold)
    path = doc.save(args.output)
    print(
        f"wrote {path} ({len(trace.episodes)} episodes, "
        f"{len(trace.perceptible_episodes(args.threshold))} perceptible)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.core.errors import TraceFormatError
    from repro.lila.autodetect import load_trace
    from repro.lila.validation import has_errors, lint_trace

    worst = 0
    for path in args.traces:
        print(f"{path}:")
        try:
            trace = load_trace(path)
        except (TraceFormatError, OSError) as error:
            print(f"  ERROR    FMT000: {error}")
            worst = 2
            continue
        diagnostics = lint_trace(trace)
        if not diagnostics:
            print("  clean")
            continue
        for diagnostic in diagnostics:
            print(f"  {diagnostic}")
        if has_errors(diagnostics):
            worst = max(worst, 2)
        else:
            worst = max(worst, 1 if args.strict else 0)
    return worst


_CONVERT_SUFFIXES = {"text": ".lila", "lilac": ".lilac"}


def _cmd_convert(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.errors import TraceFormatError

    source = Path(args.trace)
    target = (
        Path(args.output)
        if args.output is not None
        else source.with_suffix(_CONVERT_SUFFIXES[args.to])
    )
    if target.resolve() == source.resolve():
        print(
            f"{source}: refusing to overwrite the input "
            f"(pass --output for an explicit target)",
            file=sys.stderr,
        )
        return 1
    try:
        if args.to == "lilac":
            from repro.lila.colfile import write_column_file
            from repro.lila.source import build_store, open_source

            store = build_store(open_source(source))
            path = write_column_file(store, target)
            detail = f"{len(store.threads)} threads"
        else:
            from repro.lila.autodetect import load_trace
            from repro.lila.writer import write_trace

            trace = load_trace(source)
            path = write_trace(trace, target)
            detail = f"{len(trace.episodes)} episodes"
    except (TraceFormatError, OSError) as error:
        print(f"{source}: unreadable trace: {error}", file=sys.stderr)
        return 2
    print(f"wrote {path} ({detail}, {path.stat().st_size} bytes)")
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Add the trace-level subcommands, in help-listing order."""
    p_sim = sub.add_parser("simulate", help="simulate a session, write a trace")
    p_sim.add_argument("--app", required=True, help="application name (Table II)")
    p_sim.add_argument("--session", type=int, default=0)
    p_sim.add_argument("--seed", type=int, default=20100401)
    p_sim.add_argument("--scale", type=float, default=1.0)
    add_output(p_sim, "session.lila")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="analyze trace files")
    add_traces(p_an, help="trace files, directories, or glob patterns")
    add_threshold(p_an)
    add_workers(p_an, help="processes for parallel trace loading "
                "(0 = one per CPU)")
    p_an.add_argument("--limit", type=int, default=20)
    p_an.add_argument("--perceptible-only", action="store_true")
    p_an.add_argument("--inspect", type=int, default=None,
                      help="drill into the Nth pattern of the table")
    p_an.set_defaults(func=_cmd_analyze)

    p_sk = sub.add_parser("sketch", help="render an episode sketch SVG")
    p_sk.add_argument("trace")
    p_sk.add_argument("--episode", type=int, default=None,
                      help="episode index (default: worst episode)")
    add_output(p_sk, "sketch.svg")
    p_sk.set_defaults(func=_cmd_sketch)

    p_br = sub.add_parser(
        "browse", help="write an HTML pattern browser with sketches"
    )
    add_traces(p_br)
    add_threshold(p_br)
    p_br.add_argument("--limit", type=int, default=25)
    p_br.add_argument("--all-patterns", action="store_true",
                      help="include patterns without perceptible episodes")
    add_output(p_br, "browser.html")
    p_br.set_defaults(func=_cmd_browse)

    p_ex = sub.add_parser("export", help="export analysis results")
    add_traces(p_ex)
    p_ex.add_argument("--format", choices=("json", "csv"), default="json")
    add_threshold(p_ex)
    add_output(p_ex, "analysis.json")
    p_ex.set_defaults(func=_cmd_export)

    p_cp = sub.add_parser(
        "compare", help="diff pattern tables of two trace sets"
    )
    p_cp.add_argument("--before", nargs="+", required=True)
    p_cp.add_argument("--after", nargs="+", required=True)
    add_threshold(p_cp)
    p_cp.add_argument("--limit", type=int, default=10)
    p_cp.add_argument("--fail-on-regression", action="store_true")
    p_cp.set_defaults(func=_cmd_compare)

    p_tl = sub.add_parser("timeline", help="render a session-timeline SVG")
    p_tl.add_argument("trace")
    add_threshold(p_tl)
    add_output(p_tl, "timeline.svg")
    p_tl.set_defaults(func=_cmd_timeline)

    p_li = sub.add_parser("lint", help="check trace files for anomalies")
    add_traces(p_li)
    p_li.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings too")
    p_li.set_defaults(func=_cmd_lint)

    p_cv = sub.add_parser(
        "convert", help="re-encode a trace (text or column file)"
    )
    p_cv.add_argument("trace", help="input trace in either encoding")
    p_cv.add_argument("--to", required=True,
                      choices=("text", "lilac"),
                      help="target encoding (lilac = mmap column file)")
    p_cv.add_argument("-o", "--output", default=None,
                      help="output path (default: input with new suffix)")
    p_cv.set_defaults(func=_cmd_convert)
