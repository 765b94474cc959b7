"""The ``engine`` command group: cache maintenance and fault tooling."""

from __future__ import annotations

import argparse
import sys

from repro.cli._shared import add_cache_dir


def _cmd_engine_cache(args: argparse.Namespace) -> int:
    from repro.engine.cache import CODE_VERSION, ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached entries from {cache.root}")
        return 0
    stats, status = cache.persisted_stats_status()
    if status == "missing":
        print(f"cache dir:    {cache.root}")
        if not cache.root.is_dir():
            print("no cache yet (directory does not exist; run a study "
                  "with caching enabled to create it)")
        else:
            print("no recorded statistics yet (cache directory exists but "
                  "no run has persisted stats.json)")
            entries = cache.bundle_count()
            if entries:
                print(f"entries:      {entries} bundles "
                      f"({cache.bundle_bytes()} bytes)")
        return 0
    if status == "corrupt":
        print(
            f"error: cache statistics at {cache.root / 'stats.json'} are "
            f"unreadable (corrupt or wrong format); run "
            f"'engine cache clear' to reset",
            file=sys.stderr,
        )
        return 2
    total = stats.hits + stats.misses
    hit_pct = 100.0 * stats.hits / total if total else 0.0
    print(f"cache dir:    {cache.root}")
    print(f"code version: {CODE_VERSION}")
    print(f"entries:      {cache.bundle_count()} bundles "
          f"({cache.bundle_bytes()} bytes)")
    print(f"hits:         {stats.hits}")
    print(f"misses:       {stats.misses}")
    print(f"stores:       {stats.stores}")
    print(f"hit rate:     {hit_pct:.1f}%")
    print(f"discarded:    {stats.discarded} (failed integrity check)")
    print(f"write errors: {stats.write_errors}")
    print(f"read errors:  {stats.read_errors}")
    return 0


def _cmd_engine_plan(args: argparse.Namespace) -> int:
    """``engine plan explain``: print the fused plan for an analysis set.

    Shows the operators in execution order, which shared stages each
    one requests (stages marked ``*`` are requested by two or more
    operators and therefore computed once per trace instead of once
    per analysis), and the plan fingerprint that keys the fused-bundle
    cache entries.
    """
    from repro.core.analyses import REGISTRY
    from repro.core.errors import AnalysisError
    from repro.core.plan import build_plan

    if args.analyses:
        names = []
        for chunk in args.analyses:
            names.extend(
                part.strip() for part in chunk.split(",") if part.strip()
            )
    else:
        names = list(REGISTRY)
    try:
        plan = build_plan(names)
    except AnalysisError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for line in plan.describe():
        print(line)
    print(f"plan fingerprint: {plan.fingerprint()}")
    print(
        "bundle cache key: sha256(bundle, trace digest, config "
        "fingerprint, plan fingerprint, code version)"
    )
    return 0


def _cmd_engine_faults(args: argparse.Namespace) -> int:
    """``engine faults demo``: a self-contained chaos run, twice.

    Builds a small deterministic fault plan (one injected worker crash,
    universal cache corruption, one truncated trace), runs a miniature
    study cold and then warm against a throwaway cache, and shows that
    the pipeline completes, quarantines exactly the damaged session,
    and fires the same fault schedule both times.
    """
    import tempfile
    from collections import Counter

    from repro.faults import FaultInjector, FaultPlan, FaultRule
    from repro.obs import Observer
    from repro.study.runner import StudyConfig, run_study

    apps = ("CrosswordSage", "FreeMind")
    plan = FaultPlan(
        seed=args.seed,
        rules=(
            FaultRule(kind="worker_crash", at=("1",), mode="raise"),
            FaultRule(kind="cache_corrupt", probability=1.0),
            FaultRule(
                kind="trace_truncated",
                site="trace.map",
                at=(f"{apps[1]}/session-1",),
            ),
        ),
    )
    if args.plan_out:
        path = plan.save(args.plan_out)
        print(f"wrote demo plan to {path}")
    config = StudyConfig(sessions=2, scale=0.05, applications=apps)
    print(
        f"demo plan: {len(plan.rules)} rules, seed {plan.seed}; "
        f"running {len(apps)} applications x {config.sessions} sessions "
        f"twice (cold, then warm cache) ..."
    )
    schedules = []
    with tempfile.TemporaryDirectory() as cache_dir:
        for label in ("cold", "warm", "warm again"):
            injector = FaultInjector(plan)
            obs = Observer()
            result = run_study(
                config,
                workers=1,
                cache_dir=cache_dir,
                use_cache=True,
                obs=obs,
                faults=injector,
            )
            schedules.append(injector.schedule())
            fired = Counter(event.kind for event in injector.events)
            fired_text = (
                ", ".join(
                    f"{kind} x{count}" for kind, count in sorted(fired.items())
                )
                or "none"
            )
            print(f"{label} run: completed; faults fired: {fired_text}")
            counters = obs.metrics.as_dict().get("counters", {})
            for name in (
                "engine.retries",
                "engine.quarantined",
                "cache.read_errors",
                "faults.injected",
            ):
                if name in counters:
                    print(f"  {name:<20} {counters[name]}")
            for entries in result.quarantined.values():
                for entry in entries:
                    print(f"  quarantined {entry.describe()}")
    crash_keys = [
        event["key"]
        for event in schedules[0]
        if event["kind"] == "worker_crash"
    ]
    # Cold and warm runs fire different cache faults (reads only exist
    # warm); reproducibility means identical state -> identical schedule.
    reproducible = schedules[1] == schedules[2]
    print(
        "schedule reproducible across identical runs: "
        f"{'yes' if reproducible else 'NO'} "
        f"(crash at task index {', '.join(sorted(set(crash_keys)))})"
    )
    return 0 if reproducible else 1


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``engine`` subcommand group."""
    p_en = sub.add_parser(
        "engine", help="inspect and manage the analysis engine"
    )
    en_sub = p_en.add_subparsers(dest="engine_command", required=True)
    p_ec = en_sub.add_parser("cache", help="result-cache maintenance")
    p_ec.add_argument("action", choices=("stats", "clear"))
    add_cache_dir(p_ec)
    p_ec.set_defaults(func=_cmd_engine_cache)
    p_ep = en_sub.add_parser(
        "plan", help="inspect fused analysis plans"
    )
    p_ep.add_argument("action", choices=("explain",))
    p_ep.add_argument(
        "--analyses",
        nargs="+",
        default=None,
        metavar="NAME",
        help="analysis names (space- or comma-separated); default: all "
             "registered analyses",
    )
    p_ep.set_defaults(func=_cmd_engine_plan)
    p_ef = en_sub.add_parser(
        "faults", help="fault-injection tooling (see docs/fault_injection.md)"
    )
    p_ef.add_argument("action", choices=("demo",))
    p_ef.add_argument("--seed", type=int, default=7,
                      help="fault-plan seed for the demo run")
    p_ef.add_argument("--plan-out", default=None, metavar="PLAN.json",
                      help="also write the demo plan to this file")
    p_ef.set_defaults(func=_cmd_engine_faults)
