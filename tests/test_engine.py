"""Tests for the parallel map-reduce engine and its result cache.

The load-bearing property: for every analysis, every worker count, and
every cache temperature, the produced summary is byte-identical
(``pickle.dumps`` equal) to the serial uncached ``summarize()``.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest

from repro.apps.sessions import simulate_sessions
from repro.core.analyses import (
    REGISTRY,
    OccurrenceAnalysis,
    TriggerAnalysis,
    get_analysis,
    register,
)
from repro import AnalysisConfig, LagAlyzer
from repro.core.errors import AnalysisError, TraceFormatError
from repro.core.family import FAMILIES, IO_SERVICE, register_family
from repro.engine import (
    AnalysisEngine,
    MISS,
    ResultCache,
    parallel_map,
    run_tasks,
    scheduler,
)
from repro.engine.cache import config_fingerprint
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults import runtime as faults_runtime
from repro.lila.digest import file_digest, trace_digest
from repro.lila.writer import write_trace
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer

from helpers import GOLDEN_DIR, dispatch, listener_iv, make_trace

ANALYSES = sorted(REGISTRY)
WORKER_COUNTS = (1, 2, 4)
SEEDS = (11, 42)


@pytest.fixture(scope="module")
def trace_sets():
    """Per-seed simulated session pairs (small but structurally rich)."""
    return {
        seed: simulate_sessions(
            "CrosswordSage", count=2, seed=seed, scale=0.04
        )
        for seed in SEEDS
    }


def _serial(analysis_name, traces, config, perceptible_only=False):
    return get_analysis(analysis_name).summarize(
        traces, config, perceptible_only=perceptible_only
    )


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_summary_identical_across_workers(
        self, trace_sets, analysis_name, workers
    ):
        config = AnalysisConfig()
        for seed, traces in trace_sets.items():
            expected = _serial(analysis_name, traces, config)
            engine = AnalysisEngine(workers=workers, use_cache=False)
            got = engine.summarize(analysis_name, traces, config)
            assert pickle.dumps(got) == pickle.dumps(expected), (
                f"{analysis_name} differs at workers={workers}, seed={seed}"
            )

    @pytest.mark.parametrize(
        "analysis_name", ["triggers", "location", "concurrency", "threadstates"]
    )
    def test_perceptible_only_identical(self, trace_sets, analysis_name):
        config = AnalysisConfig()
        traces = trace_sets[SEEDS[0]]
        expected = _serial(analysis_name, traces, config, perceptible_only=True)
        engine = AnalysisEngine(workers=2, use_cache=False)
        got = engine.summarize(
            analysis_name, traces, config, perceptible_only=True
        )
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_reduce_is_order_sensitive_like_serial(self, trace_sets):
        """Partials merged in trace order reproduce pattern tie-breaks."""
        config = AnalysisConfig()
        traces = trace_sets[SEEDS[0]]
        analysis = get_analysis("patterns")
        partials = [analysis.map_trace(t, config) for t in traces]
        merged = analysis.reduce(partials)
        analyzer = LagAlyzer.from_traces(traces, config=config)
        table = analyzer.pattern_table()
        assert merged.distinct_patterns == table.distinct_count
        assert merged.covered_episodes == table.covered_episodes
        assert list(merged.cdf) == table.cumulative_episode_distribution()


class TestCachedEquivalence:
    @pytest.mark.parametrize("analysis_name", ANALYSES)
    def test_cached_summary_identical(
        self, trace_sets, analysis_name, tmp_path
    ):
        config = AnalysisConfig()
        traces = trace_sets[SEEDS[0]]
        expected = _serial(analysis_name, traces, config)
        cold = AnalysisEngine(workers=1, cache_dir=tmp_path)
        got_cold = cold.summarize(analysis_name, traces, config)
        assert cold.cache.stats.hits == 0
        assert cold.cache.stats.stores == len(traces)
        warm = AnalysisEngine(workers=1, cache_dir=tmp_path)
        got_warm = warm.summarize(analysis_name, traces, config)
        assert warm.cache.stats.hits == len(traces)
        assert warm.cache.stats.misses == 0
        assert pickle.dumps(got_cold) == pickle.dumps(expected)
        assert pickle.dumps(got_warm) == pickle.dumps(expected)

    def test_warm_cache_skips_all_map_work(self, trace_sets, tmp_path):
        config = AnalysisConfig()
        traces = trace_sets[SEEDS[1]]
        names = list(REGISTRY)
        cold = AnalysisEngine(cache_dir=tmp_path)
        cold.map_traces(names, traces, config)
        # Cold: one bundle probe misses and one bundle is stored per trace.
        assert cold.cache.stats.misses == len(traces)
        assert cold.cache.stats.stores == len(traces)
        assert cold.cache.bundle_count() == len(traces)
        warm = AnalysisEngine(cache_dir=tmp_path)
        warm.map_traces(names, traces, config)
        # Warm: the whole request is served from one bundle read per trace.
        assert warm.cache.stats.hits == len(traces)
        assert warm.cache.stats.misses == 0
        assert warm.cache.stats.stores == 0

    @staticmethod
    def _after_fused_run(traces, config, cache_dir, request):
        """Run every analysis over ``traces``, then ``request`` on two
        fresh engines. A request for a different analysis set has its own
        plan fingerprint: the first engine misses, maps, and stores its
        own bundle per trace, which the second then hits. Returns both
        results."""
        AnalysisEngine(cache_dir=cache_dir).map_traces(
            list(REGISTRY), traces, config
        )
        first = AnalysisEngine(cache_dir=cache_dir)
        got_first = request(first)
        assert first.cache.stats.misses == len(traces)
        assert first.cache.stats.stores == len(traces)
        assert first.cache.stats.hits == 0
        again = AnalysisEngine(cache_dir=cache_dir)
        got_again = request(again)
        assert again.cache.stats.hits == len(traces)
        assert again.cache.stats.misses == 0
        assert again.cache.stats.stores == 0
        assert ResultCache(cache_dir).bundle_count() == 2 * len(traces)
        return got_first, got_again

    def test_single_analysis_after_fused_run_stores_its_own_bundle(
        self, trace_sets, tmp_path
    ):
        config = AnalysisConfig()
        traces = trace_sets[SEEDS[1]]
        expected = pickle.dumps(_serial("triggers", traces, config))
        cold, warm = self._after_fused_run(
            traces,
            config,
            tmp_path,
            lambda engine: engine.summarize("triggers", traces, config),
        )
        assert pickle.dumps(cold) == expected
        assert pickle.dumps(warm) == expected

    def test_subset_plan_after_fused_run_stores_its_own_bundle(
        self, trace_sets, tmp_path
    ):
        config = AnalysisConfig()
        traces = trace_sets[SEEDS[1]]
        self._after_fused_run(
            traces,
            config,
            tmp_path,
            lambda engine: engine.map_traces(
                ["triggers", "location"], traces, config
            ),
        )

    def test_config_change_invalidates(self, trace_sets, tmp_path):
        traces = trace_sets[SEEDS[0]]
        engine = AnalysisEngine(cache_dir=tmp_path)
        engine.summarize("triggers", traces, AnalysisConfig())
        engine.summarize(
            "triggers", traces, AnalysisConfig(perceptible_threshold_ms=150.0)
        )
        assert engine.cache.stats.hits == 0
        assert engine.cache.stats.misses == 2 * len(traces)


class TestCacheRobustness:
    def _one_entry(self, tmp_path):
        trace = make_trace(
            [dispatch(0.0, 50.0, [listener_iv("a.A.m", 0.0, 49.0)])]
        )
        config = AnalysisConfig()
        engine = AnalysisEngine(cache_dir=tmp_path)
        expected = engine.summarize("triggers", [trace], config)
        entries = sorted((tmp_path / "bundles").rglob("*.pkl"))
        assert len(entries) == 1
        return trace, config, entries[0], expected

    def test_truncated_entry_discarded(self, tmp_path):
        trace, config, entry, expected = self._one_entry(tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        engine = AnalysisEngine(cache_dir=tmp_path)
        got = engine.summarize("triggers", [trace], config)
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert engine.cache.stats.discarded == 1
        assert engine.cache.stats.hits == 0

    def test_garbage_entry_discarded(self, tmp_path):
        trace, config, entry, expected = self._one_entry(tmp_path)
        entry.write_bytes(b"this is not a cache entry at all")
        engine = AnalysisEngine(cache_dir=tmp_path)
        got = engine.summarize("triggers", [trace], config)
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert engine.cache.stats.discarded == 1

    def test_checksum_mismatch_discarded(self, tmp_path):
        trace, config, entry, expected = self._one_entry(tmp_path)
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload bit
        entry.write_bytes(bytes(blob))
        engine = AnalysisEngine(cache_dir=tmp_path)
        got = engine.summarize("triggers", [trace], config)
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert engine.cache.stats.discarded == 1

    def test_discarded_entry_is_rewritten(self, tmp_path):
        trace, config, entry, _ = self._one_entry(tmp_path)
        entry.write_bytes(b"garbage")
        engine = AnalysisEngine(cache_dir=tmp_path)
        engine.summarize("triggers", [trace], config)
        warm = AnalysisEngine(cache_dir=tmp_path)
        warm.summarize("triggers", [trace], config)
        assert warm.cache.stats.hits == 1

    def test_clear_and_stats(self, tmp_path):
        trace, config, entry, _ = self._one_entry(tmp_path)
        cache = ResultCache(tmp_path)
        assert cache.bundle_count() == 1
        assert cache.bundle_bytes() == entry.stat().st_size > 0
        assert cache.clear() == 1
        assert cache.bundle_count() == 0
        assert cache.get_bundle("0" * 64) is MISS

    def test_clear_removes_older_per_analysis_entries(self, tmp_path):
        """Entries an older version wrote under ``objects/`` are never
        read, but ``clear`` still reclaims them and counts them."""
        trace, config, entry, _ = self._one_entry(tmp_path)
        legacy = tmp_path / "objects" / "ab" / ("ab" + "0" * 62 + ".pkl")
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(entry.read_bytes())
        cache = ResultCache(tmp_path)
        assert cache.bundle_count() == 1
        assert cache.clear() == 2
        assert not legacy.exists()
        assert not entry.exists()

    def test_bundle_key_format_is_stable(self):
        # Caches written by earlier versions keep hitting only while the
        # key format holds.
        expected = hashlib.sha256(b"bundle\nd\nc\np\nv").hexdigest()
        assert ResultCache.bundle_key("d", "c", "p", code_version="v") == expected

    def test_stats_cli_reports_one_population(self, trace_sets, tmp_path, capsys):
        from repro.cli import main

        config = AnalysisConfig()
        traces = trace_sets[SEEDS[0]]
        for _ in ("cold", "warm"):
            engine = AnalysisEngine(cache_dir=tmp_path)
            engine.map_traces(list(REGISTRY), traces, config)
            engine.flush_cache_stats()
        assert main(["engine", "cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        count = len(traces)
        assert f"entries:      {count} bundles" in out
        for line in ("hits", "misses", "stores"):
            assert f"{line + ':':<14}{count}\n" in out
        assert "hit rate:     50.0%" in out
        assert "per-analysis" not in out
        assert main(["engine", "cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert f"cleared {count} cached entries" in capsys.readouterr().out

    def test_stats_flush_accumulates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.stats.hits = 3
        cache.stats.misses = 1
        cache.flush_stats()
        cache.stats.hits = 2
        total = cache.flush_stats()
        assert total.hits == 5
        assert total.misses == 1
        assert ResultCache(tmp_path).persisted_stats().hits == 5

    def test_concurrent_stats_flushes_never_fail(self, tmp_path):
        """Two processes flushing at once each write through a temp file
        of their own: no flush fails, and ``stats.json`` stays whole."""
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        results = context.Queue()
        writers = [
            context.Process(
                target=_flush_repeatedly,
                args=(str(tmp_path), barrier, results),
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        outcomes = [results.get(timeout=120) for _ in writers]
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        assert outcomes == [(0, 0), (0, 0)]
        stats, status = ResultCache(tmp_path).persisted_stats_status()
        assert status == "ok"
        assert 0 < stats.hits <= 400
        assert not list(tmp_path.glob(".tmp-*"))


def _flush_repeatedly(root: str, barrier, results) -> None:
    """Flush one hit 200 times; put ``(warnings, cache.write_errors)``."""
    observer = Observer()
    cache = ResultCache(root)
    barrier.wait()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with obs_runtime.installed(observer):
            for _ in range(200):
                cache.stats.hits += 1
                cache.flush_stats()
    results.put(
        (len(caught), observer.metrics.counter_value("cache.write_errors"))
    )


class TestDigests:
    def test_trace_digest_stable_and_memoized(self, trace_sets):
        trace = trace_sets[SEEDS[0]][0]
        first = trace_digest(trace)
        assert first == trace_digest(trace)
        assert len(first) == 64

    def test_digest_distinguishes_sessions(self, trace_sets):
        a, b = trace_sets[SEEDS[0]]
        assert trace_digest(a) != trace_digest(b)

    def test_file_digest_tracks_content(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"abc")
        first = file_digest(path)
        path.write_bytes(b"abcd")
        assert file_digest(path) != first

    def test_config_fingerprint_sensitivity(self):
        base = AnalysisConfig()
        assert config_fingerprint(base) == config_fingerprint(AnalysisConfig())
        assert config_fingerprint(base) != config_fingerprint(
            AnalysisConfig(perceptible_threshold_ms=150.0)
        )
        assert config_fingerprint(base) != config_fingerprint(
            AnalysisConfig(include_gc_in_patterns=True)
        )


class TestLoadDigest:
    """Each loaded trace is digested once, in the load worker that parsed it."""

    @staticmethod
    def _files(tmp_path, traces):
        return [
            write_trace(trace, tmp_path / f"s{index}.lila")
            for index, trace in enumerate(traces)
        ]

    @staticmethod
    def _unserializable(tmp_path, trace):
        """A text trace the parser reads but the format cannot carry."""
        template = write_trace(trace, tmp_path / "template.lila")
        text = template.read_text(encoding="utf-8")
        template.unlink()
        line = next(line for line in text.splitlines() if line.startswith("O "))
        start, kind, _symbol = line[2:].split(" ", 2)
        bad = tmp_path / "bad.lila"
        bad.write_text(
            text.replace(line, f"O {start} {kind} foo\tbar", 1), encoding="utf-8"
        )
        return bad

    @pytest.mark.parametrize("workers", (1, 2))
    def test_unserializable_trace_fails_at_load_with_its_path(
        self, tmp_path, trace_sets, workers
    ):
        traces = trace_sets[SEEDS[0]]
        good = self._files(tmp_path, traces[1:])
        bad = self._unserializable(tmp_path, traces[0])
        with pytest.raises(TraceFormatError, match="forbidden character") as info:
            LagAlyzer.load([good[0], bad], workers=workers)
        assert Path(info.value.path) == bad

    @pytest.mark.parametrize("workers", (1, 2))
    def test_unserializable_trace_is_quarantined_at_load(
        self, tmp_path, trace_sets, workers
    ):
        traces = trace_sets[SEEDS[0]]
        good = self._files(tmp_path, traces)
        bad = self._unserializable(tmp_path, traces[0])
        engine = AnalysisEngine(workers=workers, use_cache=False)
        loaded = engine.load_traces(
            [good[0], bad, good[1]], on_error="quarantine"
        )
        assert [trace_digest(trace) for trace in loaded] == [
            file_digest(path) for path in good
        ]
        assert [entry.session_id for entry in engine.quarantined] == ["bad.lila"]
        assert "forbidden character" in engine.quarantined[0].error

    @pytest.mark.parametrize("workers", (1, 2))
    def test_load_worker_digest_serves_the_cold_cached_map(
        self, tmp_path, trace_sets, monkeypatch, workers
    ):
        import repro.engine.engine as engine_mod
        from repro.core.store import ColumnarTrace

        paths = self._files(tmp_path, trace_sets[SEEDS[1]])
        loaded = AnalysisEngine(workers=workers, use_cache=False).load_traces(
            paths
        )
        # Writer-made files are canonical, so each memo is the file's hash.
        assert [vars(trace.columnar).get("_content_digest") for trace in loaded] == [
            file_digest(path) for path in paths
        ]

        serialized = []
        canonical_lines = ColumnarTrace.canonical_lines
        digested = []
        digest = engine_mod.trace_digest

        def counting_lines(store):
            serialized.append(store)
            return canonical_lines(store)

        def counting_digest(trace):
            digested.append(trace)
            return digest(trace)

        monkeypatch.setattr(ColumnarTrace, "canonical_lines", counting_lines)
        monkeypatch.setattr(engine_mod, "trace_digest", counting_digest)
        engine = AnalysisEngine(workers=workers, cache_dir=tmp_path / "cache")
        engine.map_traces(ANALYSES, loaded, AnalysisConfig())
        assert serialized == []
        assert len(digested) == len(loaded)
        assert engine.cache.stats.stores == len(loaded)
        warm = AnalysisEngine(workers=workers, cache_dir=tmp_path / "cache")
        warm.map_traces(ANALYSES, loaded, AnalysisConfig())
        assert warm.cache.stats.hits == len(loaded)


class TestScheduler:
    def test_parallel_map_preserves_order(self):
        assert parallel_map(abs, [-3, 2, -1], workers=2) == [3, 2, 1]

    def test_serial_fallback_for_single_item(self):
        assert parallel_map(abs, [-7], workers=8) == [7]

    def test_task_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map((1).__truediv__, [1, 0], workers=1)

    def test_negative_workers_rejected(self):
        with pytest.raises(AnalysisError):
            parallel_map(abs, [1, 2], workers=-2)


def _worker_pid(_item):
    return os.getpid()


def _close_inherited_pool(_item):
    """Worker: close the pool this worker inherited from its parent."""
    scheduler.close_pool()
    return os.getpid()


def _mark_or_fail(item):
    """Worker: fail at once on task 0; mark every other task as done."""
    directory, index = item
    if index == 0:
        raise ValueError("task 0 fails")
    time.sleep(0.2)
    (Path(directory) / str(index)).touch()
    return index


class _OccurrenceCopy(OccurrenceAnalysis):
    """An analysis registered after the pool's workers were forked."""

    name = "test-pool-occurrence"


def _gone(pid):
    """True once ``pid`` has exited (a zombie has exited too)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


_POOLED_LOAD = """
import multiprocessing
import sys
import tempfile

from repro import LagAlyzer

LagAlyzer.load(sys.argv[1:], workers=2)
print(*sorted(child.pid for child in multiprocessing.active_children()))
"""


_HUNG_WORKER = """
import sys

from repro.engine.scheduler import run_tasks
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.faults import runtime as faults_runtime

plan = FaultPlan(
    seed=3, rules=(FaultRule(kind="worker_hang", at=("0",), seconds=10.0),)
)
with faults_runtime.installed(FaultInjector(plan)):
    outcomes = run_tasks(abs, [-1, -2, -3], workers=2, timeout=0.3)
print(*[outcome.value for outcome in outcomes])
"""


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(scheduler.__file__).parents[2]), env.get("PYTHONPATH", "")]
    )
    return env


def _pooled_child(results):
    """A multiprocessing child that starts a pool of its own and returns."""
    outcomes = run_tasks(abs, [-1, -2, -3], workers=2)
    results.put([outcome.value for outcome in outcomes])


class TestPool:
    """One worker pool per process, replaced only when its key changes."""

    CONFIG = AnalysisConfig()

    @pytest.fixture
    def obs(self):
        """An observer installed over a process with no pool yet."""
        scheduler.close_pool()
        observer = Observer()
        with obs_runtime.installed(observer):
            yield observer

    @staticmethod
    def _starts(obs):
        return obs.metrics.counter_value("engine.pool.starts")

    @staticmethod
    def _pids(items=4, workers=2):
        outcomes = run_tasks(_worker_pid, range(items), workers=workers)
        return {outcome.value for outcome in outcomes}

    @staticmethod
    def _children():
        return {child.pid for child in multiprocessing.active_children()}

    @staticmethod
    def _app_files(tmp_path, app, seed):
        traces = simulate_sessions(app, count=2, seed=seed, scale=0.04)
        return [
            write_trace(trace, tmp_path / f"{app}-{index}.lila")
            for index, trace in enumerate(traces)
        ]

    def test_pooled_calls_share_one_pool(self, obs):
        first = self._pids(workers=3)
        pool = self._children()
        assert first <= pool and os.getpid() not in first
        # A batch smaller than the pool reuses it.
        assert self._pids(items=2, workers=3) <= pool
        assert self._pids(workers=3) <= pool
        assert self._starts(obs) == 1

    def test_budget_cold_two_application_sequence_starts_one_pool(
        self, obs, tmp_path
    ):
        """A cold load + summaries of two applications at workers=2:
        four pooled calls, one pool."""
        apps = {
            app: self._app_files(tmp_path, app, seed)
            for app, seed in (("CrosswordSage", 3), ("JFreeChart", 4))
        }
        for app, paths in apps.items():
            analyzer = LagAlyzer.load(paths, workers=2)
            engine = AnalysisEngine(workers=2, cache_dir=tmp_path / "cache")
            results = analyzer.summaries(engine=engine)
            assert pickle.dumps(results) == pickle.dumps(
                LagAlyzer.load(paths).summaries()
            ), app
            assert engine.cache.stats.stores == len(paths)
        assert self._starts(obs) == 1

    def test_budget_study_then_load_starts_one_pool(self, obs, tmp_path):
        from repro.study.runner import StudyConfig, run_study

        config = StudyConfig(
            sessions=1, scale=0.04, applications=("CrosswordSage", "JFreeChart")
        )
        run_study(config, workers=2, cache_dir=tmp_path / "study-cache")
        paths = self._app_files(tmp_path, "CrosswordSage", 5)
        LagAlyzer.load(paths, workers=2).summaries(
            engine=AnalysisEngine(workers=2, cache_dir=tmp_path / "cache")
        )
        assert self._starts(obs) == 1

    def test_register_after_a_pooled_call_starts_a_new_pool(
        self, obs, trace_sets
    ):
        traces = trace_sets[SEEDS[0]]
        AnalysisEngine(workers=2, use_cache=False).summarize(
            "occurrence", traces, self.CONFIG
        )
        register(_OccurrenceCopy())
        try:
            got = AnalysisEngine(workers=2, use_cache=False).summarize(
                "test-pool-occurrence", traces, self.CONFIG
            )
        finally:
            del REGISTRY["test-pool-occurrence"]
        expected = _OccurrenceCopy().summarize(traces, self.CONFIG)
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert self._starts(obs) == 2

    def test_register_family_after_a_pooled_call_starts_a_new_pool(
        self, obs, tmp_path
    ):
        golden = sorted(GOLDEN_DIR.glob("OrderApi-session-*.lila"))
        LagAlyzer.load(golden, workers=2)
        renamed = []
        for path in golden:
            text = path.read_text(encoding="utf-8")
            assert "M x.family io_service\n" in text
            renamed.append(tmp_path / path.name)
            renamed[-1].write_text(
                text.replace("M x.family io_service\n", "M x.family test-pool\n"),
                encoding="utf-8",
            )
        register_family(dataclasses.replace(IO_SERVICE, name="test-pool"))
        try:
            got = LagAlyzer.load(renamed, workers=2).summaries(
                engine=AnalysisEngine(workers=2, use_cache=False)
            )
            expected = LagAlyzer.load(renamed).summaries()
        finally:
            del FAMILIES["test-pool"]
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert self._starts(obs) == 2

    def test_patched_analysis_method_starts_a_new_pool(self, obs, trace_sets):
        traces = trace_sets[SEEDS[0]]
        AnalysisEngine(workers=2, use_cache=False).summarize(
            "occurrence", traces, self.CONFIG
        )
        analysis = get_analysis("occurrence")
        analysis.map_context = analysis.map_context
        try:
            AnalysisEngine(workers=2, use_cache=False).summarize(
                "occurrence", traces, self.CONFIG
            )
        finally:
            del analysis.map_context
        assert self._starts(obs) == 2

    @pytest.mark.parametrize(
        "rule, timeout, counter",
        [
            (FaultRule(kind="broken_pool", at=("0",)), None, "engine.pool_breaks"),
            (
                FaultRule(kind="worker_crash", at=("0",), mode="exit"),
                None,
                "engine.pool_breaks",
            ),
            (
                FaultRule(kind="worker_hang", at=("0",), seconds=1.0),
                0.3,
                "engine.timeouts",
            ),
        ],
        ids=["broken_pool", "worker_exit", "task_timeout"],
    )
    def test_next_batch_after_a_break_runs_on_a_new_pool(
        self, obs, rule, timeout, counter
    ):
        first = self._pids()
        plan = FaultPlan(seed=3, rules=(rule,))
        with faults_runtime.installed(FaultInjector(plan)):
            outcomes = run_tasks(abs, [-1, -2, -3], workers=2, timeout=timeout)
        assert [outcome.value for outcome in outcomes] == [1, 2, 3]
        assert obs.metrics.counter_value(counter) == 1
        assert self._starts(obs) == 1
        assert not self._pids() & first
        assert self._starts(obs) == 2

    def test_pool_broken_while_idle_is_replaced(self, obs):
        before = self._children()
        self._pids()
        workers = self._children() - before
        os.kill(min(workers), signal.SIGKILL)
        # The executor reaps every worker once it has marked itself broken.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            os.path.exists(f"/proc/{pid}") for pid in workers
        ):
            time.sleep(0.05)
        pids = self._pids()
        assert os.getpid() not in pids and not pids & workers
        assert obs.metrics.counter_value("engine.pool_breaks") == 1
        assert self._starts(obs) == 2

    def test_forked_workers_never_touch_their_parents_pool(self, obs):
        from repro.study.runner import StudyConfig, run_study

        self._pids()
        pool = self._children()
        # A worker that shut its inherited executor down would block on
        # the lock its parent held at the fork: the timeout turns that
        # into a failure here instead of a hang.
        outcomes = run_tasks(
            _close_inherited_pool, range(4), workers=2, timeout=60
        )
        assert {outcome.value for outcome in outcomes} <= pool
        config = StudyConfig(
            sessions=1, scale=0.04, applications=("CrosswordSage", "JFreeChart")
        )
        pooled = run_study(config, workers=2, use_cache=False)
        serial = run_study(config, workers=1, use_cache=False)
        assert pickle.dumps(pooled.apps) == pickle.dumps(serial.apps)
        assert self._pids() <= pool
        assert self._starts(obs) == 1

    def test_tasks_run_in_the_dispatchers_working_directory(
        self, obs, tmp_path, trace_sets, monkeypatch
    ):
        for seed, directory in zip(SEEDS, ("a", "b")):
            (tmp_path / directory).mkdir()
            for index, trace in enumerate(trace_sets[seed]):
                write_trace(trace, tmp_path / directory / f"s{index}.lila")
        names = ["s0.lila", "s1.lila"]
        for directory in ("a", "b"):
            monkeypatch.chdir(tmp_path / directory)
            loaded = LagAlyzer.load(names, workers=2).traces
            assert [trace_digest(trace) for trace in loaded] == [
                file_digest(name) for name in names
            ], directory
        assert self._starts(obs) == 1

    def test_workers_outlive_the_deletion_of_their_directory(
        self, obs, tmp_path, trace_sets, monkeypatch
    ):
        """The pool starts inside a directory that is then deleted; the
        next pooled calls, made from another directory, still succeed."""
        names = [
            write_trace(trace, tmp_path / f"s{index}.lila").name
            for index, trace in enumerate(trace_sets[SEEDS[0]])
        ]
        with tempfile.TemporaryDirectory() as gone:
            monkeypatch.chdir(gone)
            LagAlyzer.load([tmp_path / name for name in names], workers=2)
            monkeypatch.chdir(tmp_path)
        got = LagAlyzer.load(names, workers=2).summaries(
            engine=AnalysisEngine(workers=2, use_cache=False)
        )
        assert pickle.dumps(got) == pickle.dumps(
            LagAlyzer.load(names).summaries()
        )
        assert obs.metrics.counter_value("engine.quarantined") == 0
        assert self._starts(obs) == 1

    def test_task_error_leaves_no_work_running(self, obs, tmp_path):
        """A propagating task error waits for the round's started tasks,
        so none of them runs on in the pool after the call returns."""
        items = [(str(tmp_path), index) for index in range(6)]
        with pytest.raises(ValueError):
            parallel_map(_mark_or_fail, items, workers=2)
        done = set(os.listdir(tmp_path))
        time.sleep(0.5)
        assert set(os.listdir(tmp_path)) == done
        assert self._pids() and self._starts(obs) == 1

    def test_process_exits_cleanly_with_a_live_pool(self, tmp_path, trace_sets):
        paths = [
            str(write_trace(trace, tmp_path / f"s{index}.lila"))
            for index, trace in enumerate(trace_sets[SEEDS[0]])
        ]
        done = subprocess.run(
            [sys.executable, "-c", _POOLED_LOAD, *paths],
            capture_output=True, text=True, timeout=120, env=_subprocess_env(),
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(_gone(pid) for pid in pids)

    def test_multiprocessing_child_with_a_pool_exits(self):
        """A child's pool is closed before the child waits for its own
        children, which idle pool workers would never let it finish."""
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_pooled_child, args=(results,))
        child.start()
        try:
            assert results.get(timeout=60) == [1, 2, 3]
            child.join(timeout=30)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    def test_hung_worker_does_not_delay_exit(self):
        """A timed-out pool's workers are terminated: the process exits
        long before its hung worker would have returned."""
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _HUNG_WORKER],
            capture_output=True, text=True, timeout=120, env=_subprocess_env(),
        )
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "2", "3"]
        assert elapsed < 5.0, f"exit took {elapsed:.2f} s"


def _perceptible_triggers_map(self, ctx):
    """``triggers``' map with its whole-population half replaced by the
    perceptible one, so every summary it reduces to differs."""
    partial = TriggerAnalysis.map_context(self, ctx)
    return dataclasses.replace(partial, all=partial.perceptible)


class _PerceptibleTriggers(TriggerAnalysis):
    map_context = _perceptible_triggers_map


class _FailsOnOneTrace(OccurrenceAnalysis):
    """An analysis whose map raises ``error`` on ``session-1`` only."""

    name = "test-fails-on-one"

    def __init__(self, error):
        self.error = error

    def map_context(self, ctx):
        if ctx.store.metadata.session_id == "session-1":
            raise self.error
        return super().map_context(ctx)


class TestLoadMapsAhead:
    """A pooled ``LagAlyzer.load`` maps each trace where it parsed it;
    ``summaries(engine=...)`` stores those partials and ships no trace,
    and serves them nowhere else."""

    CONFIG = AnalysisConfig()

    @pytest.fixture
    def obs(self):
        scheduler.close_pool()
        observer = Observer()
        with obs_runtime.installed(observer):
            yield observer

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ahead")
        traces = simulate_sessions("CrosswordSage", count=3, seed=7, scale=0.04)
        return [
            write_trace(trace, root / f"s{index}.lila")
            for index, trace in enumerate(traces)
        ]

    @staticmethod
    def _counter(obs, name):
        return obs.metrics.counter_value(name)

    @staticmethod
    def _serial(paths, config=None):
        return pickle.dumps(LagAlyzer.load(paths, config=config).summaries())

    def test_budget_cold_two_application_sequence_ships_no_trace_out(
        self, obs, tmp_path
    ):
        """A cold load + summaries of two applications at workers=2
        submits no map task, ships no trace to a worker and stores one
        bundle per trace."""
        cache_dir = tmp_path / "cache"
        loaded = 0
        for app, seed in (("CrosswordSage", 3), ("JFreeChart", 4)):
            paths = TestPool._app_files(tmp_path, app, seed)
            analyzer = LagAlyzer.load(paths, workers=2)
            engine = AnalysisEngine(workers=2, cache_dir=cache_dir)
            results = analyzer.summaries(engine=engine)
            assert pickle.dumps(results) == self._serial(paths), app
            assert engine.cache.stats.stores == len(paths)
            loaded += len(paths)
        assert self._counter(obs, "engine.tasks") == 0
        assert self._counter(obs, "engine.trace_bytes_out") == 0
        assert self._counter(obs, "engine.trace_bytes_in") > 0
        assert self._counter(obs, "engine.loaded_partials") == loaded
        assert len(list(ResultCache(cache_dir).iter_bundles())) == loaded

    @pytest.mark.parametrize("observed", (False, True))
    def test_pooled_trace_pickles_as_the_serial_one(self, paths, observed):
        obs = Observer() if observed else None
        pooled = LagAlyzer.load(paths, workers=2, obs=obs).traces
        serial = LagAlyzer.load(paths).traces
        assert all(
            hasattr(trace.columnar, "_partials_memo") for trace in pooled
        )
        assert [pickle.dumps(trace) for trace in pooled] == [
            pickle.dumps(trace) for trace in serial
        ]

    def test_bundles_match_the_serial_map(self, paths, tmp_path):
        pooled = AnalysisEngine(workers=2, cache_dir=tmp_path / "pooled")
        LagAlyzer.load(paths, workers=2).summaries(engine=pooled)
        serial = AnalysisEngine(workers=1, cache_dir=tmp_path / "serial")
        LagAlyzer.load(paths).summaries(engine=serial)

        def decoded(cache):
            return [
                (
                    record.key,
                    record.meta,
                    {name: pickle.dumps(part) for name, part in record.partials.items()},
                )
                for record in cache.iter_bundles()
            ]

        assert decoded(pooled.cache) == decoded(serial.cache)
        assert len(decoded(serial.cache)) == len(paths)

    def test_serial_load_maps_nothing_ahead(self, paths):
        loaded = LagAlyzer.load(paths, workers=1).traces
        assert not any(
            hasattr(trace.columnar, "_partials_memo") for trace in loaded
        )

    def test_reregistered_analysis_maps_again(self, obs, paths):
        analyzer = LagAlyzer.load(paths, workers=2)
        original = get_analysis("triggers")
        register(_PerceptibleTriggers(), replace=True)
        try:
            got = analyzer.summaries(
                engine=AnalysisEngine(workers=2, use_cache=False)
            )
            expected = self._serial(paths)
        finally:
            register(original, replace=True)
        assert pickle.dumps(got) == expected
        assert expected != self._serial(paths)
        assert self._counter(obs, "engine.loaded_partials") == 0

    def test_patched_analysis_method_maps_again(self, obs, paths):
        analyzer = LagAlyzer.load(paths, workers=2)
        analysis = get_analysis("triggers")
        analysis.map_context = _perceptible_triggers_map.__get__(analysis)
        try:
            got = analyzer.summaries(
                engine=AnalysisEngine(workers=2, use_cache=False)
            )
            expected = self._serial(paths)
        finally:
            del analysis.map_context
        assert pickle.dumps(got) == expected
        assert expected != self._serial(paths)
        assert self._counter(obs, "engine.loaded_partials") == 0

    def test_another_config_maps_as_before(self, obs, paths):
        loaded = LagAlyzer.load(paths, workers=2)
        config = self.CONFIG.with_threshold(30.0)
        analyzer = LagAlyzer.from_traces(loaded.traces, config=config)
        engine = AnalysisEngine(workers=2, use_cache=False)
        got = analyzer.summaries(engine=engine)
        assert pickle.dumps(got) == self._serial(paths, config)
        assert self._serial(paths, config) != self._serial(paths)
        assert self._counter(obs, "engine.tasks") == len(paths)
        assert self._counter(obs, "engine.loaded_partials") == 0

    @pytest.mark.parametrize(
        "error", (TraceFormatError("damaged"), ValueError("bug")),
        ids=["quarantined", "raised"],
    )
    def test_map_error_at_load_surfaces_at_the_map(self, paths, error):
        register(_FailsOnOneTrace(error))
        outcomes = []
        try:
            for workers in (1, 2):
                analyzer = LagAlyzer.load(paths, workers=workers)
                assert len(analyzer.traces) == len(paths)
                engine = AnalysisEngine(workers=workers, use_cache=False)
                try:
                    results = pickle.dumps(analyzer.summaries(engine=engine))
                except ValueError as raised:
                    results = repr(raised)
                outcomes.append(
                    (results, [entry.describe() for entry in engine.quarantined])
                )
        finally:
            del REGISTRY["test-fails-on-one"]
        assert outcomes[0] == outcomes[1]
        if isinstance(error, ValueError):
            assert outcomes[0] == (repr(error), [])
        else:
            assert outcomes[0][1] == [f"CrosswordSage/session-1: {error!r}"]

    def test_trace_map_fault_quarantines_the_same_traces(self, paths):
        plan = FaultPlan(
            seed=5,
            rules=(
                FaultRule(
                    kind="trace_truncated",
                    site="trace.map",
                    at=("CrosswordSage/session-1",),
                ),
            ),
        )
        outcomes = []
        for workers in (1, 2):
            with faults_runtime.installed(FaultInjector(plan)):
                analyzer = LagAlyzer.load(paths, workers=workers)
                engine = AnalysisEngine(workers=workers, use_cache=False)
                results = analyzer.summaries(engine=engine)
            outcomes.append(
                (
                    pickle.dumps(results),
                    [entry.session_id for entry in engine.quarantined],
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == ["session-1"]

    def test_file_backed_traces_count_zero_copy_bytes(self, obs, paths, tmp_path):
        from repro.lila.colfile import open_column_store, write_column_file

        lilac = []
        for path in paths:
            store = LagAlyzer.load([path]).traces[0].columnar
            lilac.append(write_column_file(store, tmp_path / f"{path.stem}.lilac"))
        loaded = LagAlyzer.load(lilac, workers=2)
        nbytes = sum(open_column_store(path).backing.nbytes for path in lilac)
        assert self._counter(obs, "store.zero_copy_bytes") == nbytes
        # A file-backed store pickles as its path.
        assert 0 < self._counter(obs, "engine.trace_bytes_in") < 1024 * len(lilac)
        got = LagAlyzer.from_traces(
            loaded.traces, config=self.CONFIG.with_threshold(30.0)
        ).summaries(engine=AnalysisEngine(workers=2, use_cache=False))
        assert pickle.dumps(got) == self._serial(
            lilac, self.CONFIG.with_threshold(30.0)
        )
        assert self._counter(obs, "store.zero_copy_bytes") == 2 * nbytes
        assert 0 < self._counter(obs, "engine.trace_bytes_out") < 1024 * len(lilac)


class TestStudyParallelism:
    @staticmethod
    def _tiny_config():
        from repro.study.runner import StudyConfig

        return StudyConfig(
            sessions=2, scale=0.04, applications=("CrosswordSage", "JFreeChart")
        )

    def test_run_study_workers_and_cache_identical(self, tmp_path):
        from repro.study.runner import run_study

        config = self._tiny_config()
        baseline = run_study(config, workers=1, use_cache=False)
        variants = {
            "workers=2": run_study(config, workers=2, use_cache=False),
            "cold cache": run_study(config, workers=1, cache_dir=tmp_path),
            "warm cache": run_study(config, workers=2, cache_dir=tmp_path),
        }
        for name in baseline.apps:
            expected = pickle.dumps(baseline.apps[name])
            for label, result in variants.items():
                assert pickle.dumps(result.apps[name]) == expected, (
                    f"{name} differs under {label}"
                )

    def test_study_completes_for_every_application_at_two_workers(
        self, tmp_path
    ):
        """The engine smoke gate: a cold study of four applications at
        workers=2 returns every application, none quarantined."""
        from repro.study.runner import StudyConfig, run_study

        config = StudyConfig(
            sessions=2,
            scale=0.05,
            applications=("CrosswordSage", "JFreeChart", "SwingSet", "JEdit"),
        )
        result = run_study(config, workers=2, cache_dir=tmp_path / "cache")
        assert sorted(result.apps) == sorted(config.applications)
        assert result.quarantined == {}
        for app in result.apps.values():
            assert len(app.session_stats) == config.sessions

    def test_warm_study_run_does_no_map_work(self, tmp_path):
        from repro.study.runner import StudyConfig, analyze_app

        config = StudyConfig(
            sessions=1, scale=0.04, applications=("CrosswordSage",)
        )
        cold = AnalysisEngine(cache_dir=tmp_path)
        analyze_app("CrosswordSage", config, engine=cold)
        assert cold.cache.stats.stores == config.sessions
        warm = AnalysisEngine(cache_dir=tmp_path)
        analyze_app("CrosswordSage", config, engine=warm)
        # The warm study is served entirely from bundles: no misses,
        # one hit per session.
        assert warm.cache.stats.hits == config.sessions
        assert warm.cache.stats.misses == 0
