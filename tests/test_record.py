"""``benchmarks/record.py``: the trajectory writer's pair protocol.

``--pairs N --parent DIR`` runs N alternating parent/change pairs,
appends the first pair and prints, per end-to-end metric, both medians,
the parent's quartiles and the change's wins. The summary is checked on
fixed reports, and the protocol on two stand-in checkouts whose
``perfbench/run.py`` prints a fixed report and logs each call.
"""

from __future__ import annotations

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "query_mix_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "records_per_s", "unit": "records/s", "better": "higher",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def report(**values: float) -> dict:
    return {
        "metrics": {
            name: {"unit": "x", "value": value}
            for name, value in values.items()
        }
    }


class TestSummary:
    #: Four pairs: the change reads lower on query_mix_ms in three (one
    #: tie), higher on records_per_s in two; setup_s is missing from
    #: one point, so it is left out.
    PAIRS = [
        (report(query_mix_ms=50.0, records_per_s=10.0, setup_s=1.0),
         report(query_mix_ms=40.0, records_per_s=12.0, setup_s=1.0)),
        (report(query_mix_ms=54.0, records_per_s=11.0, setup_s=1.0),
         report(query_mix_ms=41.0, records_per_s=10.0, setup_s=1.0)),
        (report(query_mix_ms=52.0, records_per_s=12.0, setup_s=1.0),
         report(query_mix_ms=52.0, records_per_s=12.0, setup_s=1.0)),
        (report(query_mix_ms=58.0, records_per_s=13.0, setup_s=1.0),
         report(query_mix_ms=39.0, records_per_s=14.0)),
    ]

    def test_medians_quartiles_and_wins(self, record):
        rows = {row["name"]: row for row in record.summarize(self.PAIRS, METRICS)}
        assert sorted(rows) == ["query_mix_ms", "records_per_s"]
        mix = rows["query_mix_ms"]
        assert (mix["parent_median"], mix["change_median"]) == (53.0, 40.5)
        # Parent 50, 52, 54, 58 interpolated: 51.5 and 55.0.
        assert (mix["parent_q1"], mix["parent_q3"]) == (51.5, 55.0)
        assert (mix["wins"], mix["pairs"]) == (3, 4)
        rate = rows["records_per_s"]
        assert (rate["parent_median"], rate["change_median"]) == (11.5, 12.0)
        assert rate["wins"] == 2
        assert rate["better"] == "higher"

    def test_one_pair_has_degenerate_quartiles(self, record):
        (row, *_) = record.summarize(self.PAIRS[:1], METRICS)
        assert (row["parent_q1"], row["parent_q3"]) == (50.0, 50.0)
        assert row["wins"] == 1

    def test_format_names_every_number(self, record):
        lines = record.format_summary(record.summarize(self.PAIRS, METRICS))
        assert lines[0] == (
            "query_mix_ms   parent 53 [51.5-55] change 40.5 ms"
            " (-23.6 %, lower is better), change better in 3 of 4"
        )
        assert len(lines) == 2

    def test_reads_the_benchmark_declaration(self, record):
        names = [metric["name"] for metric in record.end_to_end_metrics()]
        assert names == ["setup_s", "peak_rss_mb", "records_per_s",
                         "query_mix_ms"]


FAKE_RUN = textwrap.dedent('''\
    """A stand-in perfbench: logs its call, prints a fixed report.

    Its first call also notes the bytecode caches its checkout's
    ``src/`` holds, in ``<label>.cached`` beside the log.
    """
    import json, sys
    from pathlib import Path

    LABEL, LOG, MIX = {label!r}, Path({log!r}), {mix!r}
    calls = LOG.read_text().splitlines() if LOG.exists() else []
    LOG.write_text("".join(line + "\\n" for line in calls + [LABEL]))
    CACHED = LOG.with_name(LABEL + ".cached")
    if not CACHED.exists():
        src = Path(__file__).resolve().parent.parent / "src"
        CACHED.write_text(json.dumps(
            sorted(path.name for path in src.glob("**/*.pyc"))))
    args = sys.argv[1:]
    print("perfbench says hello")
    print("entry: " + json.dumps({{
        "workload": args[args.index("--workload") + 1],
        "seed": int(args[args.index("--seed") + 1]),
        "trace": int(args[args.index("--trace") + 1]),
        "git_sha": LABEL,
    }}))
    print(json.dumps({{
        "correct": True, "attempted": 6, "failed": 0,
        "metrics": {{
            "query_mix_ms": {{"unit": "ms", "value": MIX + len(calls)}},
            "records_per_s": {{"unit": "records/s", "value": 100.0}},
        }},
    }}))
''')


def checkout(root: Path, label: str, log: Path, mix: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(label=label, log=str(log), mix=mix), encoding="utf-8"
    )
    (root / "src").mkdir()
    (root / "src" / "stand_in.py").write_text("VALUE = 1\n", encoding="utf-8")
    return root


class TestPairs:
    def test_alternates_appends_first_pair_and_summarizes(
        self, record, tmp_path, capsys
    ):
        log = tmp_path / "calls.log"
        parent = checkout(tmp_path / "parent", "parent", log, 50.0)
        change = checkout(tmp_path / "change", "change", log, 40.0)
        out = tmp_path / "trajectory.json"
        code = record.main([
            "--workload", "study_warm", "--seconds", "1", "--pairs", "3",
            "--parent", str(parent), "--root", str(change), "--out", str(out),
        ])
        assert code == 0
        # The order flips every pair, so neither side always runs first.
        assert log.read_text().split() == [
            "parent", "change", "change", "parent", "parent", "change",
        ]
        points = json.loads(out.read_text())["trajectory"]
        assert [(p["label"], p["entry"]["git_sha"]) for p in points] == [
            ("parent", "parent"), ("change", "change"),
        ]
        # The first pair: the parent ran first call, the change second.
        assert [p["metrics"]["query_mix_ms"]["value"] for p in points] == [
            50.0, 41.0,
        ]
        printed = capsys.readouterr().out
        assert "query_mix_ms" in printed
        assert "change better in 3 of 3" in printed
        assert "change better in 0 of 3" in printed  # records_per_s ties

    def test_both_sides_start_from_bytecode_caches(
        self, record, tmp_path, capsys
    ):
        log = tmp_path / "calls.log"
        parent = checkout(tmp_path / "parent", "parent", log, 50.0)
        change = checkout(tmp_path / "change", "change", log, 40.0)
        assert record.main([
            "--workload", "study_warm", "--pairs", "1", "--parent",
            str(parent), "--root", str(change),
            "--out", str(tmp_path / "trajectory.json"),
        ]) == 0
        for label in ("parent", "change"):
            cached = json.loads((tmp_path / f"{label}.cached").read_text())
            assert [name.split(".")[0] for name in cached] == ["stand_in"]
        # Nothing in either checkout was deleted.
        for side in (parent, change):
            assert (side / "src" / "stand_in.py").exists()

    def test_missing_result_records_nothing(self, record, tmp_path, capsys):
        log = tmp_path / "calls.log"
        parent = tmp_path / "parent"
        (parent / "perfbench").mkdir(parents=True)
        (parent / "perfbench" / "run.py").write_text(
            "print('no result')\n", encoding="utf-8"
        )
        change = checkout(tmp_path / "change", "change", log, 40.0)
        out = tmp_path / "trajectory.json"
        assert record.main([
            "--workload", "study_warm", "--pairs", "2",
            "--parent", str(parent), "--root", str(change), "--out", str(out),
        ]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", (["--pairs", "3"], ["--parent", "somewhere"]),
        ids=("pairs-alone", "parent-alone"),
    )
    def test_pairs_and_parent_go_together(self, record, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            record.main(["--workload", "study_warm", *argv])
        assert exited.value.code == 2
