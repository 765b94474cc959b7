"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

Covers the self-time arithmetic, the percentile rule, the per-process
span merge across a forked pool, the result's metric names against
``BENCHMARK.json``, and a tiny-corpus smoke pass of every workload that
must pass its checks with the true reference and fail them with a
deliberately wrong one.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import multiprocessing
import pickle
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import run  # noqa: E402
from measure import Samples, percentile  # noqa: E402
from tracing import (  # noqa: E402
    ID, NAME, OP, PARENT, PER_LAYER, PID, Tracer, layer_metrics, load_spans,
    self_times,
)
from workloads import WORKLOADS  # noqa: E402


# -- self time ----------------------------------------------------------


def _span(name, start, end, span_id, parent, pid=1, tid=1, op=1, counters=None):
    return [name, start, end, span_id, parent, pid, tid, op, counters]


SPAN_TREE = [
    _span("a", 0.0, 10.0, "1-1", None),
    _span("b", 1.0, 4.0, "1-2", "1-1"),
    _span("c", 2.0, 3.0, "1-3", "1-2"),
    _span("d", 5.0, 6.0, "1-4", "1-1"),
    # A pool worker's span: a child of "a", but in another process.
    _span("e", 0.5, 9.0, "2-1", "1-1", pid=2),
    # Another thread of the same process.
    _span("f", 7.0, 8.0, "1-5", "1-1", tid=2),
]


def test_self_time_subtracts_only_same_thread_children():
    selfs = self_times(SPAN_TREE)
    assert selfs["1-1"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs["1-2"] == pytest.approx(2.0)
    assert selfs["1-3"] == pytest.approx(1.0)
    assert selfs["1-4"] == pytest.approx(1.0)
    assert selfs["2-1"] == pytest.approx(8.5)
    assert selfs["1-5"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("a", 0.0, 10.0, "1-1", None),
        _span("b", 1.0, 5.0, "1-2", "1-1"),
        _span("c", 3.0, 12.0, "1-3", "1-1"),
    ]
    assert self_times(spans)["1-1"] == pytest.approx(1.0)


def test_coverage_is_main_thread_self_time_over_timed_wall():
    metrics = layer_metrics(SPAN_TREE, passes=1, main=(1, 1), timed_s=10.0,
                            overhead_pct=3.0)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["trace.overhead_pct"] == 3.0
    assert [name for name, _unit, _better in PER_LAYER] == list(metrics)


def test_layer_metrics_sum_counters_per_pass():
    spans = [
        _span("lila.parse", 0.0, 2.0, "1-1", None, counters={"records": 10}),
        _span("lila.parse", 2.0, 4.0, "2-1", None, pid=2,
              counters={"records": 30}),
        _span("engine.cache.get_bundle", 4.0, 5.0, "1-2", None,
              counters={"hit": 1}),
        _span("engine.cache.get_bundle", 5.0, 6.0, "1-3", None,
              counters={"hit": 0}),
    ]
    metrics = layer_metrics(spans, passes=2, main=(1, 1), timed_s=6.0,
                            overhead_pct=0.0)
    assert metrics["lila.parse.calls"] == 1.0
    assert metrics["lila.parse.records"] == 20.0
    assert metrics["lila.parse.busy_s"] == pytest.approx(2.0)
    assert metrics["engine.cache.bundle_hit_ratio"] == 0.5
    assert metrics["trace.coverage"] == pytest.approx(4.0 / 6.0)


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize("q, needed", [(0.5, 20), (0.9, 100), (0.95, 200)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    assert percentile(list(range(needed - 1)), q) is None
    samples = list(range(needed))
    value = percentile(samples, q)
    assert value is not None
    assert sum(1 for x in samples if x > value) >= 10


def test_report_states_sample_count_and_unsupported_percentiles(capsys):
    run.print_report({
        "entry": {"workload": "w", "seed": 1, "trace": 0, "passes": 1},
        "report": [("reopen_ms_p90", None, "ms", 44),
                   ("reopen_ms_p50", 12.5, "ms", 44)],
        "failures": [],
    })
    out = capsys.readouterr().out
    assert "reopen_ms_p90" in out and "n/a" in out and "n=44" in out
    assert "12.5" in out


# -- spans across forked pool workers -----------------------------------

_INNER = None


def _task(value):
    return _INNER(value)


def test_spans_merge_across_forked_pool_workers(tmp_path):
    global _INNER
    tracer = Tracer(tmp_path / "spans")
    _INNER = tracer.wrap("inner", lambda value: value * 2)

    def fan_out():
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            return list(pool.map(_task, range(4)))

    outer = tracer.wrap("outer", fan_out)
    tracer.op = 7
    try:
        assert outer() == [0, 2, 4, 6]
    finally:
        tracer.close()
    files = list((tmp_path / "spans").glob("spans-*.jsonl"))
    spans = load_spans(tmp_path / "spans")
    (outer_span,) = [s for s in spans if s[NAME] == "outer"]
    inner = [s for s in spans if s[NAME] == "inner"]
    assert len(files) >= 2
    assert len(inner) == 4
    assert {s[PID] for s in inner} != {outer_span[PID]}
    assert all(s[PARENT] == outer_span[ID] and s[OP] == 7 for s in inner)
    # Workers ran in other processes: the fan-out's self time is its wall.
    assert self_times(spans)[outer_span[ID]] == pytest.approx(
        outer_span[2] - outer_span[1]
    )


def test_install_wraps_bound_names_and_uninstall_restores(tmp_path):
    import repro.engine.engine as engine_mod
    import repro.lila.digest as digest_mod

    original = digest_mod.trace_digest
    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        assert engine_mod.trace_digest is digest_mod.trace_digest
        assert engine_mod.trace_digest.__wrapped__ is original
    finally:
        tracer.close()
    assert engine_mod.trace_digest is original
    assert digest_mod.trace_digest is original


# -- the contract -------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# -- tiny-corpus smoke passes -------------------------------------------

TINY_APPS = [("CrosswordSage", "gui"), ("OrderApi", "io_service")]


@pytest.fixture(scope="module")
def study_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    manifest = inputs.generate("study", 3, out, apps=TINY_APPS, sessions=2,
                               scale=0.05)
    with (out / "reference.pkl").open("rb") as handle:
        return manifest, pickle.load(handle)


def _two_passes(name, manifest, reference, work):
    """Set up and make two passes; the second queries the first's warehouse."""
    workload = WORKLOADS[name](work, manifest, reference)
    samples = Samples()
    try:
        workload.setup()
        workload.run_pass(samples)
        workload.run_pass(samples)
    finally:
        workload.close()
    assert len(samples.get("query_s")) > 0
    return samples


@pytest.mark.parametrize("name", ["study_cold", "study_warm"])
def test_study_pass_checks_its_outputs(name, study_inputs, tmp_path):
    manifest, reference = study_inputs
    good = _two_passes(name, manifest, reference, tmp_path / "good")
    assert good.attempted > 0
    assert good.failed == 0, good.failures

    wrong = copy.deepcopy(reference)
    app = manifest["apps"][0]["app"]
    row = wrong["base"][app]["sessions"][0]
    row["stats"] = dataclasses.replace(row["stats"],
                                       traced=row["stats"].traced + 1)
    wrong["base"][app]["summaries"] = pickle.dumps({"wrong": True})
    bad = _two_passes(name, manifest, wrong, tmp_path / "bad")
    assert bad.failed > 0


def test_fleet_pass_checks_its_outputs(tmp_path):
    manifest = inputs.generate("fleet", 3, tmp_path / "inputs",
                               apps=TINY_APPS, sessions=3, scale=0.02)
    good = _two_passes("ingest_fleet", manifest, None, tmp_path / "good")
    assert good.attempted > 0
    assert good.failed == 0, good.failures

    wrong = copy.deepcopy(manifest)
    wrong["apps"][0]["files"][0]["lines"] += 1
    bad = _two_passes("ingest_fleet", wrong, None, tmp_path / "bad")
    assert bad.failed == 2  # the tampered session, once per pass
