"""Tests for repro.obs: tracing, metrics, profiling, and their CLI.

The load-bearing properties: spans nest correctly within and across
threads and survive the process-pool round-trip as one connected tree;
metric merging is associative and deterministic across worker
orderings; exports validate; and a failing cache write degrades to a
warning plus a counter instead of killing the run.
"""

import itertools
import json
import os
import threading
import warnings

import pytest

from repro.apps.sessions import simulate_sessions
from repro.cli import main
from repro import AnalysisConfig
from repro.engine import MISS, AnalysisEngine, ResultCache
from repro.faults import FaultPlan, FaultRule
from repro.obs import Observer, MetricsRegistry, span_depth
from repro.obs import runtime as obs_runtime
from repro.obs.export import (
    metrics_to_prometheus,
    parse_prometheus,
    spans_from_jsonl,
    spans_to_chrome,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.obs.observer import load_bundle
from repro.obs.profiling import ProfileAggregator
from repro.study.runner import StudyConfig, run_study


@pytest.fixture(autouse=True)
def _no_ambient_observer():
    """Every test starts and ends with observation disabled."""
    obs_runtime.uninstall()
    yield
    obs_runtime.uninstall()


@pytest.fixture(scope="module")
def traces():
    return simulate_sessions("CrosswordSage", count=2, seed=11, scale=0.04)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class TestSpanNesting:
    def test_nested_spans_link_parents(self):
        obs = Observer()
        with obs.span("outer") as outer:
            with obs.span("middle") as middle:
                with obs.span("inner") as inner:
                    pass
        spans = obs.spans()
        assert [s.name for s in spans] == ["inner", "middle", "outer"]
        assert inner.parent_id == middle.span_id
        assert middle.parent_id == outer.span_id
        assert outer.parent_id is None
        assert span_depth(spans) == 3

    def test_span_records_wall_and_cpu_time(self):
        obs = Observer()
        with obs.span("work", answer=42):
            sum(range(10_000))
        (span,) = obs.spans()
        assert span.end_ns >= span.start_ns
        assert span.cpu_ns >= 0
        assert span.attrs["answer"] == 42
        assert span.pid == os.getpid()

    def test_exception_recorded_not_swallowed(self):
        obs = Observer()
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        (span,) = obs.spans()
        assert span.attrs["error"] == "ValueError"

    def test_sibling_threads_nest_independently(self):
        """Each thread gets its own stack; explicit parents cross over."""
        obs = Observer()
        with obs.span("root") as root:
            root_id = root.span_id

            def worker(label):
                with obs.span("thread.task", parent_id=root_id):
                    with obs.span(f"thread.{label}"):
                        pass

            threads = [
                threading.Thread(target=worker, args=(i,), name=f"w{i}")
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        spans = obs.spans()
        tasks = [s for s in spans if s.name == "thread.task"]
        assert len(tasks) == 4
        assert all(s.parent_id == root_id for s in tasks)
        inner = [s for s in spans if s.name.startswith("thread.") and s is not None and s.name != "thread.task"]
        task_ids = {s.span_id for s in tasks}
        assert all(s.parent_id in task_ids for s in inner)
        assert span_depth(spans) == 3

    def test_metric_span_feeds_histogram(self):
        obs = Observer()
        with obs.span("timed", metric="timed_ms"):
            pass
        snapshot = obs.metrics.as_dict()
        assert snapshot["histograms"]["timed_ms"]["count"] == 1


class TestRuntime:
    def test_disabled_helpers_are_noops(self):
        assert obs_runtime.current() is None
        with obs_runtime.maybe_span("x") as span:
            assert span is None
        obs_runtime.count("c")
        obs_runtime.observe("h", 1.0)
        obs_runtime.set_gauge("g", 2.0)
        with obs_runtime.profiled("p"):
            pass

    def test_installed_restores_previous(self):
        first, second = Observer(), Observer()
        with obs_runtime.installed(first):
            assert obs_runtime.current() is first
            with obs_runtime.installed(second):
                assert obs_runtime.current() is second
            assert obs_runtime.current() is first
        assert obs_runtime.current() is None

    def test_installed_none_is_noop(self):
        outer = Observer()
        with obs_runtime.installed(outer):
            with obs_runtime.installed(None):
                assert obs_runtime.current() is outer

    def test_fork_inherited_observer_counts_as_disabled(self, monkeypatch):
        """A pid mismatch (observer inherited via fork) reads as absent."""
        obs = Observer()
        obs_runtime.install(obs)
        monkeypatch.setattr(obs_runtime, "_owner_pid", os.getpid() + 1)
        assert obs_runtime.current() is None
        obs_runtime.count("ghost")
        with obs_runtime.maybe_span("ghost") as span:
            assert span is None
        assert obs.metrics.counter_value("ghost") == 0
        assert obs.spans() == []


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _worker_snapshot(seed):
    registry = MetricsRegistry()
    registry.inc("cache.hits", seed)
    registry.inc("cache.misses", 2 * seed + 1)
    registry.set_gauge("engine.workers", float(seed))
    for value in range(seed + 1):
        registry.observe("engine.map_ms", float(value * 7 % 300))
    return registry.as_dict()


class TestMetricsMerge:
    def test_counters_add_gauges_max(self):
        registry = MetricsRegistry()
        registry.merge({"counters": {"c": 2}, "gauges": {"g": 1.0}})
        registry.merge({"counters": {"c": 3}, "gauges": {"g": 4.0}})
        registry.merge({"counters": {"c": 1}, "gauges": {"g": 2.0}})
        snapshot = registry.as_dict()
        assert snapshot["counters"]["c"] == 6
        assert snapshot["gauges"]["g"] == 4.0

    def test_merge_deterministic_across_worker_orderings(self):
        """Any arrival order of worker snapshots → identical registry."""
        snapshots = [_worker_snapshot(seed) for seed in range(4)]
        results = []
        for ordering in itertools.permutations(range(4)):
            registry = MetricsRegistry()
            for index in ordering:
                registry.merge(snapshots[index])
            results.append(registry.as_dict())
        assert all(result == results[0] for result in results[1:])

    def test_merge_associative(self):
        """merge(merge(a,b),c) == merge(a,merge(b,c)) as snapshots."""
        a, b, c = (_worker_snapshot(seed) for seed in (1, 2, 3))
        left = MetricsRegistry.from_dict(a)
        left.merge(b)
        left = MetricsRegistry.from_dict(left.as_dict())
        left.merge(c)
        bc = MetricsRegistry.from_dict(b)
        bc.merge(c)
        right = MetricsRegistry.from_dict(a)
        right.merge(bc.as_dict())
        assert left.as_dict() == right.as_dict()

    def test_mismatched_buckets_fold_mass_not_dropped(self):
        registry = MetricsRegistry()
        registry.observe("h", 3.0)
        registry.merge(
            {
                "histograms": {
                    "h": {
                        "buckets": [10.0],
                        "counts": [2, 0],
                        "sum": 8.0,
                        "count": 2,
                    }
                }
            }
        )
        hist = registry.as_dict()["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(11.0)


# ----------------------------------------------------------------------
# Observer snapshot / absorb
# ----------------------------------------------------------------------


class TestSnapshotAbsorb:
    def test_absorb_reparents_worker_roots(self):
        worker = Observer()
        with worker.span("worker.root"):
            with worker.span("worker.child"):
                pass
        worker.metrics.inc("cache.hits", 5)

        dispatcher = Observer()
        with dispatcher.span("dispatch") as dispatch:
            dispatcher.absorb(worker.snapshot(), parent_id=dispatch.span_id)
        spans = {s.name: s for s in dispatcher.spans()}
        assert spans["worker.root"].parent_id == dispatch.span_id
        assert spans["worker.child"].parent_id == spans["worker.root"].span_id
        assert dispatcher.metrics.counter_value("cache.hits") == 5
        assert span_depth(dispatcher.spans()) == 3

    def test_absorb_none_is_noop(self):
        obs = Observer()
        obs.absorb(None, parent_id="x")
        assert obs.spans() == []

    def test_absorb_merges_profiles(self):
        worker = Observer(profile=True)
        with worker.profiled("statistics"):
            sum(range(1000))
        dispatcher = Observer()
        dispatcher.absorb(worker.snapshot())
        assert dispatcher.profiler is not None
        assert "statistics" in dispatcher.profiler.keys()

    def test_save_and_load_bundle_roundtrip(self, tmp_path):
        obs = Observer()
        with obs.span("a", k="v"):
            pass
        obs.metrics.inc("cache.hits")
        obs.save(tmp_path / "bundle")
        bundle = load_bundle(tmp_path / "bundle")
        assert [s.name for s in bundle["spans"]] == ["a"]
        assert bundle["spans"][0].attrs == {"k": "v"}
        assert bundle["metrics"]["counters"]["cache.hits"] == 1
        assert bundle["profile"] is None

    def test_load_bundle_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nothing")

    def test_summary_line_mentions_spans_and_cache(self):
        obs = Observer()
        with obs.span("study.run"):
            pass
        obs.metrics.inc("cache.hits", 3)
        obs.metrics.inc("cache.misses", 1)
        line = obs.summary_line()
        assert line.startswith("[obs] spans=1")
        assert "cache=3/4 hits (75.0%)" in line
        assert "slowest=study.run" in line


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------


class TestProfiling:
    def test_profile_aggregates_hotspots(self):
        aggregator = ProfileAggregator()
        for _ in range(2):
            with aggregator.profiled("statistics"):
                sorted(range(5000), key=lambda v: -v)
        rows = aggregator.top("statistics", 5)
        assert rows
        assert all(len(row) == 4 for row in rows)
        assert rows == sorted(rows, key=lambda r: -r[3])
        report = aggregator.format_report(top=3)
        assert "statistics" in report

    def test_merge_adds_counts(self):
        first, second = ProfileAggregator(), ProfileAggregator()
        with first.profiled("k"):
            sum(range(100))
        with second.profiled("k"):
            sum(range(100))
        snapshot = second.as_dict()
        first.merge(snapshot)
        merged_calls = {row[0]: row[1] for row in first.top("k", 50)}
        single_calls = {row[0]: row[1] for row in second.top("k", 50)}
        shared = set(merged_calls) & set(single_calls)
        assert shared
        for label in shared:
            assert merged_calls[label] >= single_calls[label]


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------


def _sample_observer():
    obs = Observer()
    with obs.span("root"):
        with obs.span("child", metric="child_ms"):
            pass
    obs.metrics.inc("cache.hits", 2)
    obs.metrics.inc("cache.misses", 1)
    obs.metrics.set_gauge("engine.workers", 2)
    return obs


class TestExports:
    def test_jsonl_roundtrip(self):
        spans = _sample_observer().spans()
        again = spans_from_jsonl(spans_to_jsonl(spans))
        assert [s.to_dict() for s in again] == [s.to_dict() for s in spans]

    def test_chrome_trace_validates(self):
        document = spans_to_chrome(_sample_observer().spans())
        validate_chrome_trace(document)
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"root", "child"}
        metas = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        # Serialization must be pure JSON (validated by CI smoke too).
        validate_chrome_trace(json.loads(json.dumps(document)))

    def test_chrome_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1,
                                  "name": "x", "ts": -1, "dur": 0}]}
            )

    def test_prometheus_roundtrip(self):
        obs = _sample_observer()
        text = metrics_to_prometheus(obs.metrics.as_dict())
        values = parse_prometheus(text)
        assert values["lagalyzer_cache_hits_total"] == 2
        assert values["lagalyzer_cache_misses_total"] == 1
        assert values["lagalyzer_engine_workers"] == 2
        assert values['lagalyzer_child_ms_bucket{le="+Inf"}'] == 1
        assert values["lagalyzer_child_ms_count"] == 1

    def test_span_timeline_svg(self):
        from repro.viz.obstimeline import render_span_timeline

        doc = render_span_timeline(_sample_observer().spans())
        text = doc.to_string()
        assert text.startswith("<svg")
        assert "pid" in text


# ----------------------------------------------------------------------
# Pipeline integration: engine and study across processes
# ----------------------------------------------------------------------


class TestPipelineIntegration:
    def test_engine_worker_spans_reparented(self, traces):
        obs = Observer()
        engine = AnalysisEngine(workers=2, use_cache=False, obs=obs)
        engine.map_traces(["statistics", "patterns"], traces, AnalysisConfig())
        spans = obs.spans()
        ids = {s.span_id for s in spans}
        dispatch = next(s for s in spans if s.name == "engine.map_traces")
        workers = [s for s in spans if s.name == "engine.worker_task"]
        assert workers, "worker spans did not survive the pool round-trip"
        assert all(w.parent_id == dispatch.span_id for w in workers)
        unresolved = [
            s for s in spans
            if s.parent_id is not None and s.parent_id not in ids
        ]
        assert unresolved == []
        assert span_depth(spans) >= 3
        assert obs.metrics.counter_value("engine.tasks") == 2

    def test_engine_serial_matches_parallel_metrics(self, traces):
        names = ["statistics"]
        serial_obs, parallel_obs = Observer(), Observer()
        AnalysisEngine(workers=1, use_cache=False, obs=serial_obs).map_traces(
            names, traces, AnalysisConfig()
        )
        AnalysisEngine(workers=2, use_cache=False, obs=parallel_obs).map_traces(
            names, traces, AnalysisConfig()
        )
        serial = serial_obs.metrics.as_dict()["counters"]
        parallel = parallel_obs.metrics.as_dict()["counters"]
        for key in ("cache.hits", "cache.misses"):
            assert serial.get(key, 0) == parallel.get(key, 0)

    def test_observed_study_builds_connected_tree(self, tmp_path):
        config = StudyConfig(
            sessions=1,
            scale=0.03,
            applications=("Arabeske", "Euclide"),
        )
        obs = Observer()
        run_study(
            config,
            workers=2,
            cache_dir=str(tmp_path / "cache"),
            obs=obs,
        )
        spans = obs.spans()
        ids = {s.span_id for s in spans}
        names = {s.name for s in spans}
        assert {"study.run", "study.app", "engine.map_traces",
                "analysis.map"} <= names
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["study.run"]
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )
        assert span_depth(spans) >= 4
        counters = obs.metrics.as_dict()["counters"]
        assert counters.get("cache.misses", 0) > 0
        assert counters.get("vm.episodes_built", 0) > 0

    def test_pooled_load_files_worker_spans_under_load_traces(self, tmp_path):
        from repro import LagAlyzer
        from repro.core.analyses import REGISTRY
        from repro.lila.writer import write_trace

        paths = [
            write_trace(trace, tmp_path / f"s{index}.lila")
            for index, trace in enumerate(
                simulate_sessions("Euclide", count=2, seed=2, scale=0.03)
            )
        ]
        obs = Observer()
        LagAlyzer.load(paths, workers=2, obs=obs)
        spans = obs.spans()
        [load] = [s for s in spans if s.name == "engine.load_traces"]
        expected = {
            "lila.read_trace": len(paths),
            "lila.trace_digest": len(paths),
            "analysis.map": len(paths) * len(REGISTRY),
        }
        for name, count in expected.items():
            filed = [s for s in spans if s.name == name]
            assert len(filed) == count, name
            assert all(s.parent_id == load.span_id for s in filed), name
            assert all(s.pid != load.pid for s in filed), name
        ids = {s.span_id for s in spans}
        assert all(s.parent_id in ids for s in spans if s.parent_id is not None)

    @pytest.mark.parametrize("entry", ("map_traces", "run_study"))
    def test_pooled_profile_has_a_row_per_mapped_analysis(
        self, traces, tmp_path, entry
    ):
        obs = Observer(profile=True)
        if entry == "map_traces":
            names = ("statistics", "patterns", "causes")
            AnalysisEngine(workers=2, use_cache=False, obs=obs).map_traces(
                names, traces, AnalysisConfig()
            )
        else:
            from repro.study.runner import _APP_ANALYSES as names

            config = StudyConfig(
                sessions=1, scale=0.03, applications=("Arabeske", "Euclide")
            )
            run_study(
                config, workers=2, cache_dir=str(tmp_path / "cache"), obs=obs
            )
        assert sorted(obs.profiler.keys()) == sorted(names)

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultPlan(seed=1, rules=(
                FaultRule(kind="worker_hang", site="engine.task",
                          probability=1.0, seconds=0.01),
            )),
        ],
        ids=["no-faults", "worker-hang"],
    )
    def test_study_counters_hold_across_worker_counts(self, tmp_path, faults):
        """A fault that fires at a pooled task's ``engine.task`` site
        counts into the study's observer, as a serial task's does."""
        config = StudyConfig(
            sessions=1, scale=0.03, applications=("Arabeske", "Euclide")
        )
        counters = []
        for workers in (1, 2):
            obs = Observer()
            run_study(
                config, workers=workers,
                cache_dir=str(tmp_path / f"cache-{workers}"), obs=obs,
                faults=faults,
            )
            counters.append({
                name: value
                for name, value in obs.metrics.as_dict()["counters"].items()
                if not name.startswith("engine.pool")
            })
        assert counters[0] == counters[1]
        assert counters[0]["cache.misses"] == 2
        if faults is not None:
            assert counters[0]["faults.injected"] > 0

    def test_summary_line_counts_warm_bundle_hits(self, tmp_path):
        """The one-liner reports the cache the engine actually probes:
        cold, every session misses; warm, every session hits."""
        config = StudyConfig(
            sessions=1, scale=0.03, applications=("Arabeske", "Euclide")
        )
        sessions = config.sessions * len(config.applications)
        lines = []
        for _ in ("cold", "warm"):
            obs = Observer()
            run_study(
                config, workers=2, cache_dir=str(tmp_path / "cache"), obs=obs
            )
            lines.append(obs.summary_line())
        assert f"cache=0/{sessions} hits (0.0%)" in lines[0]
        assert f"cache={sessions}/{sessions} hits (100.0%)" in lines[1]

    def test_unobserved_run_collects_nothing(self, traces):
        engine = AnalysisEngine(workers=1, use_cache=False)
        engine.map_traces(["statistics"], traces, AnalysisConfig())
        assert obs_runtime.current() is None


# ----------------------------------------------------------------------
# Cache-write failure degradation (satellite)
# ----------------------------------------------------------------------


class TestCacheWriteFailure:
    def test_put_failure_warns_counts_and_continues(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        obs = Observer()

        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", broken_replace)
        with obs_runtime.installed(obs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cache.put("deadbeef" * 8, {"partial": 1})
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "cache write failed" in str(w.message)
            for w in caught
        )
        assert cache.stats.write_errors == 1
        assert cache.stats.stores == 0
        assert obs.metrics.counter_value("cache.write_errors") == 1
        assert cache.get("deadbeef" * 8) is MISS

    def test_study_survives_cache_write_failures(self, tmp_path, monkeypatch):
        def broken_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", broken_replace)
        config = StudyConfig(
            sessions=1, scale=0.03, applications=("Arabeske",)
        )
        obs = Observer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_study(
                config, cache_dir=str(tmp_path / "cache"), obs=obs
            )
        assert "Arabeske" in result.apps
        assert obs.metrics.counter_value("cache.write_errors") > 0

    def test_persisted_stats_status(self, tmp_path):
        from repro.engine.cache import ResultCache

        missing = ResultCache(tmp_path / "never")
        _, status = missing.persisted_stats_status()
        assert status == "missing"

        corrupt = ResultCache(tmp_path / "bad")
        corrupt.root.mkdir(parents=True)
        (corrupt.root / "stats.json").write_text("{oops", encoding="utf-8")
        _, status = corrupt.persisted_stats_status()
        assert status == "corrupt"

        good = ResultCache(tmp_path / "good")
        good.put("feedf00d" * 8, {"x": 1})
        good.flush_stats()
        stats, status = good.persisted_stats_status()
        assert status == "ok"
        assert stats.stores == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestObsCli:
    @pytest.fixture()
    def bundle_dir(self, tmp_path):
        obs = Observer(profile=True)
        with obs.span("study.run"):
            with obs.span("engine.map_traces"):
                with obs.profiled("statistics"):
                    with obs.span("analysis.map", metric="engine.map_ms"):
                        sum(range(1000))
        obs.metrics.inc("cache.hits", 1)
        obs.metrics.inc("cache.misses", 1)
        return obs.save(tmp_path / "bundle")

    def test_report(self, bundle_dir, capsys):
        assert main(["obs", "report", str(bundle_dir)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "cache.hits" in out
        assert "slowest spans" in out
        assert "statistics" in out  # profile section

    def test_report_lists_pool_starts(self, tmp_path, capsys):
        from repro.engine.scheduler import close_pool

        close_pool()
        obs = Observer()
        config = StudyConfig(
            sessions=1, scale=0.03, applications=("Arabeske", "Euclide")
        )
        run_study(config, workers=2, cache_dir=str(tmp_path / "cache"), obs=obs)
        bundle = obs.save(tmp_path / "bundle")
        assert main(["obs", "report", str(bundle)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  engine.pool.starts           1" in lines

    def test_report_lists_task_payload_counters(self, tmp_path, capsys):
        from repro import LagAlyzer
        from repro.lila.writer import write_trace

        paths = [
            write_trace(trace, tmp_path / f"s{index}.lila")
            for index, trace in enumerate(
                simulate_sessions("Euclide", count=2, seed=2, scale=0.03)
            )
        ]
        obs = Observer()
        loaded = LagAlyzer.load(paths, workers=2, obs=obs)
        # The loaded partials serve the first config; the second ships.
        for config in (loaded.config, loaded.config.with_threshold(30.0)):
            LagAlyzer.from_traces(loaded.traces, config=config, obs=obs).summaries(
                engine=AnalysisEngine(workers=2, use_cache=False, obs=obs)
            )
        bundle = obs.save(tmp_path / "bundle")
        assert main(["obs", "report", str(bundle)]) == 0
        counters = {
            line.split()[0]: int(line.split()[1])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  engine.")
            and len(line.split()) == 2
            and line.split()[1].isdigit()
        }
        assert counters["engine.loaded_partials"] == 2
        assert counters["engine.tasks"] == 2
        assert counters["engine.trace_bytes_in"] > 0
        assert counters["engine.trace_bytes_out"] == counters["engine.trace_bytes_in"]

    def test_report_missing_bundle(self, tmp_path, capsys):
        # Exit code 2 = "no such input", distinct from 1, no traceback.
        assert main(["obs", "report", str(tmp_path / "none")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one actionable line
        assert "no observability bundle" in err
        assert "--obs" in err  # tells the user how to produce one

    def test_report_empty_bundle_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["obs", "report", str(empty)]) == 2
        assert "no observability bundle" in capsys.readouterr().err

    def test_export_missing_bundle(self, tmp_path, capsys):
        code = main(
            ["obs", "export", str(tmp_path / "none"), "--format", "prom"]
        )
        assert code == 2
        assert "no observability bundle" in capsys.readouterr().err

    def test_export_chrome(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["obs", "export", str(bundle_dir), "--format", "chrome",
             "-o", str(out)]
        )
        assert code == 0
        validate_chrome_trace(json.loads(out.read_text()))

    def test_export_prom_stdout(self, bundle_dir, capsys):
        code = main(
            ["obs", "export", str(bundle_dir), "--format", "prom", "-o", "-"]
        )
        assert code == 0
        values = parse_prometheus(capsys.readouterr().out)
        assert values["lagalyzer_cache_hits_total"] == 1

    def test_export_jsonl(self, bundle_dir, tmp_path):
        out = tmp_path / "spans.jsonl"
        code = main(
            ["obs", "export", str(bundle_dir), "--format", "jsonl",
             "-o", str(out)]
        )
        assert code == 0
        assert len(spans_from_jsonl(out.read_text())) == 3

    def test_timeline(self, bundle_dir, tmp_path):
        out = tmp_path / "spans.svg"
        code = main(["obs", "timeline", str(bundle_dir), "-o", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_study_obs_end_to_end(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        code = main(
            ["study", "--apps", "Arabeske", "--sessions", "1",
             "--scale", "0.03", "-o", str(tmp_path / "out"),
             "--cache-dir", str(tmp_path / "cache"),
             "--obs", str(obs_dir), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[obs] spans=" in out
        bundle = load_bundle(obs_dir)
        assert span_depth(bundle["spans"]) >= 4
        assert bundle["profile"]

    def test_study_rejects_unknown_app(self, capsys):
        code = main(["study", "--apps", "NotAnApp"])
        assert code == 1
        assert "unknown application" in capsys.readouterr().err


class TestEngineCacheStatsCli:
    def test_missing_cache_dir(self, tmp_path, capsys):
        code = main(
            ["engine", "cache", "stats",
             "--cache-dir", str(tmp_path / "none")]
        )
        assert code == 0
        assert "no cache yet" in capsys.readouterr().out

    def test_dir_without_stats(self, tmp_path, capsys):
        root = tmp_path / "cache"
        root.mkdir()
        code = main(["engine", "cache", "stats", "--cache-dir", str(root)])
        assert code == 0
        assert "no recorded statistics yet" in capsys.readouterr().out

    def test_corrupt_stats(self, tmp_path, capsys):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "stats.json").write_text("{not json", encoding="utf-8")
        code = main(["engine", "cache", "stats", "--cache-dir", str(root)])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    def test_healthy_stats_include_write_errors(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        cache.put("cafebabe" * 8, {"x": 1})
        cache.flush_stats()
        code = main(
            ["engine", "cache", "stats", "--cache-dir", str(cache.root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stores:       1" in out
        assert "write errors: 0" in out
