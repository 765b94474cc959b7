"""The line kernel against the reference record stream.

:func:`repro.lila.source.build_store` parses text with the line kernel
:class:`~repro.lila.source.TextParser`, straight into columns;
``oracle.reference_build_store`` folds the reference record stream
(:meth:`~repro.lila.source.TraceSource.records`) through
:meth:`~repro.core.store.ColumnarBuilder.feed`, the way text was built
before the kernel. Over the golden corpus, simulated sessions of all 16
applications, and seeded single-line mutations of both, the two must
build equal stores (threads, every column, interns, stacks, samples,
metadata, short count and record count) or raise the same error type
with the same message, path and line. Every input goes through
``LinesTraceSource`` and ``TextTraceSource(faults=True)``, and is pushed
line by line through an ``IncrementalSessionAnalyzer``, whose finalized
store or first error must match too.

``PARITY_FAMILY`` narrows the golden part to one workload family's
traces, as in ``test_columnar_parity.py``.
"""

from __future__ import annotations

import functools
import random

import pytest

import repro.lila.source as source_mod
from repro.apps.async_pipeline import simulate_pipeline_session
from repro.apps.catalog import APPLICATION_NAMES
from repro.apps.io_service import simulate_service_session
from repro.apps.sessions import simulate_session
from repro.core.errors import TraceFormatError
from repro.core.store.columns import SAMPLE_COLUMN_SPECS, THREAD_COLUMN_SPECS
from repro.ingest.incremental import IncrementalSessionAnalyzer
from repro.lila.source import LinesTraceSource, TextTraceSource, build_store
from repro.lila.writer import trace_to_lines
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer

from helpers import parity_golden_traces
from oracle import reference_build_store

SEED = 20100401
SCALE = 0.01
#: Seeds per (input, mutation) pair.
MUTATION_SEEDS = range(3)


@functools.lru_cache(maxsize=None)
def _simulated_lines(app: str) -> tuple:
    if app == "OrderApi":
        trace = simulate_service_session(app, seed=SEED, scale=SCALE)
    elif app == "IndexBuilder":
        trace = simulate_pipeline_session(app, seed=SEED, scale=SCALE)
    else:
        trace = simulate_session(app, seed=SEED, scale=SCALE)
    return tuple(trace_to_lines(trace))


#: ``(id, loader)`` of every input: the golden traces, then one
#: simulated session of each of the 16 applications.
INPUTS = [
    (path.stem, lambda path=path: tuple(path.read_text().splitlines()))
    for path in parity_golden_traces()
] + [
    (f"sim-{app}", functools.partial(_simulated_lines, app))
    for app in (*APPLICATION_NAMES, "OrderApi", "IndexBuilder")
]


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------


def snapshot(store) -> dict:
    """Everything a store holds, as comparable plain data."""
    meta = store.metadata
    return {
        "metadata": (
            meta.application, meta.session_id, meta.start_ns, meta.end_ns,
            meta.gui_thread, meta.sample_period_ns, meta.filter_ms,
            dict(meta.extra),
        ),
        "threads": [
            (
                columns.name,
                {
                    attr: list(getattr(columns, attr))
                    for attr, _typecode in THREAD_COLUMN_SPECS
                },
            )
            for columns in store.threads
        ],
        "thread_map": dict(store._thread_map),
        "strings": list(store.strings),
        "stacks": list(store.stacks),
        "samples": {
            attr: list(getattr(store, attr))
            for attr, _typecode in SAMPLE_COLUMN_SPECS
        },
        "short": store.short_episode_count,
    }


def failure(error: Exception) -> tuple:
    return (
        "error",
        type(error),
        str(error),
        getattr(error, "path", None),
        getattr(error, "line", None),
    )


def built(build, source) -> tuple:
    """``build(source)`` as ``("store", snapshot, records, lines)`` or
    its error; ``lines`` is the number of the last line read."""
    observer = Observer()
    try:
        with obs_runtime.installed(observer):
            store = build(source)
    except Exception as error:
        return failure(error)
    records = observer.metrics.counter_value("lila.records_streamed")
    return ("store", snapshot(store), records, source.line)


def pushed(lines) -> tuple:
    """``lines`` pushed one at a time into a live session, then sealed."""
    analyzer = IncrementalSessionAnalyzer()
    try:
        for line in lines:
            analyzer.push_line(line)
        trace = analyzer.finalize()
    except Exception as error:
        return failure(error)
    summary = analyzer.rolling_summary()
    return ("store", snapshot(trace.columnar), summary["records"],
            summary["lines"])


def assert_kernel_matches_reference(lines, tmp_path) -> tuple:
    """Every route of ``lines`` through the kernel equals the reference.

    Returns the reference outcome over the in-memory lines.
    """
    path = tmp_path / "trace.lila"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    reference = built(reference_build_store, LinesTraceSource(lines))
    assert built(build_store, LinesTraceSource(lines)) == reference
    assert pushed(lines) == reference
    assert built(build_store, TextTraceSource(path, faults=True)) == built(
        reference_build_store, TextTraceSource(path, faults=True)
    )
    return reference


@pytest.fixture(params=INPUTS, ids=lambda item: item[0])
def input_lines(request):
    return request.param[1]()


def test_inputs_build_equal_stores(input_lines, tmp_path):
    outcome = assert_kernel_matches_reference(input_lines, tmp_path)
    assert outcome[0] == "store"


# ----------------------------------------------------------------------
# Seeded single-line mutations
# ----------------------------------------------------------------------


def _line_index(lines, rng, tags=None) -> int:
    """A random body line (not the header), optionally of given tags."""
    candidates = [
        index
        for index in range(1, len(lines))
        if tags is None or lines[index][:1] in tags
    ]
    return rng.choice(candidates)


def insert(lines, rng):
    """A copy of a record at a random place. The tag is drawn first, so
    rare records (a ``T`` among the samples, say) move as often as
    common ones."""
    tags = sorted({line[:1] for line in lines[1:]})
    copy = lines[_line_index(lines, rng, rng.choice(tags))]
    lines.insert(rng.randint(1, len(lines)), copy)


def drop(lines, rng):
    del lines[_line_index(lines, rng)]


def swap(lines, rng):
    first, second = _line_index(lines, rng), _line_index(lines, rng)
    lines[first], lines[second] = lines[second], lines[first]


def change_tag(lines, rng):
    index = _line_index(lines, rng)
    tag = rng.choice("OCGPTMFt".replace(lines[index][:1], ""))
    lines[index] = tag + lines[index][1:]


def truncate(lines, rng):
    index = _line_index(lines, rng)
    lines[index] = lines[index][: rng.randrange(len(lines[index]) + 1)]


def duplicate(lines, rng):
    index = _line_index(lines, rng)
    lines.insert(index + 1, lines[index])


def negate_timestamp(lines, rng):
    index = _line_index(lines, rng, "OCPG")
    parts = lines[index].split(" ")
    field = rng.choice((1, 2)) if parts[0] == "G" else 1
    parts[field] = "-" + parts[field]
    lines[index] = " ".join(parts)


def unknown_token(lines, rng):
    """An unknown kind or state, or a known one in a spelling not seen
    before (the parse is case-insensitive)."""
    index = _line_index(lines, rng, "Ot")
    parts = lines[index].split(" ")
    parts[2] = rng.choice(("bogus", parts[2].upper()))
    lines[index] = " ".join(parts)


MUTATIONS = (
    insert,
    drop,
    swap,
    change_tag,
    truncate,
    duplicate,
    negate_timestamp,
    unknown_token,
)


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda fn: fn.__name__)
def test_mutated_inputs_agree(input_lines, mutate, tmp_path):
    for seed in MUTATION_SEEDS:
        lines = list(input_lines)
        mutate(lines, random.Random(f"{mutate.__name__}/{seed}"))
        assert_kernel_matches_reference(lines, tmp_path)


@pytest.mark.parametrize(
    "lines",
    [
        [],
        ["#%lila 1"],
        ["#%lila 2", "M application App"],
        ["#%lila 1", "O 5 dispatch a#b"],
        ["#%lila 1", "T gui", "t gui runnable a.B#c"],
        # The second entry's tokens are cached, but a T closed the tick.
        ["#%lila 1", "P 5", "t gui runnable a.B#c", "T gui",
         "t gui runnable a.B#c"],
    ],
    ids=["empty", "header-only", "bad-version", "open-before-thread",
         "entry-before-tick", "entry-after-thread"],
)
def test_degenerate_inputs_agree(lines, tmp_path):
    assert assert_kernel_matches_reference(lines, tmp_path)[0] == "error"


#: Metadata every sealed trace needs, as lines.
_META = [
    "M application App", "M session_id s", "M start_ns 0",
    "M end_ns 100", "M gui_thread gui",
]
_BEYOND = str(2**63 + 5)
_BELOW = str(-(2**63) - 1)


@pytest.mark.parametrize(
    "lines, line",
    [
        # Found at the seal, so it carries the last line read.
        (["#%lila 1"] + _META[:3] + ["M end_ns -5", "M gui_thread gui"], 6),
        (["#%lila 1"] + _META + ["T gui", f"O {_BEYOND} dispatch a#b"], 8),
        (["#%lila 1"] + _META + ["T gui", f"O {_BELOW} dispatch a#b"], 8),
        (["#%lila 1"] + _META + ["T gui", "O 5 dispatch a#b", f"C {_BEYOND}"],
         9),
        (["#%lila 1"] + _META + ["T gui", f"G 5 {_BEYOND} young"], 8),
        (["#%lila 1"] + _META + ["T gui", f"P {_BEYOND}"], 8),
        # The same kind token again: the second line takes the fast path.
        (["#%lila 1"] + _META + ["T gui", "O 5 dispatch a#b", "C 6",
                                 f"O {_BEYOND} dispatch a#b"], 10),
    ],
    ids=["metadata-ends-before-start", "open-beyond-int64",
         "open-below-int64", "close-beyond-int64", "gc-beyond-int64",
         "tick-beyond-int64", "fast-open-beyond-int64"],
)
def test_damage_past_the_columns_is_typed(lines, line, tmp_path):
    """An end before the start and a timestamp past the 64-bit columns
    are damage like any other: a typed error, from the kernel and the
    reference alike, with the line for a timestamp."""
    outcome = assert_kernel_matches_reference(lines, tmp_path)
    assert outcome[:2] == ("error", TraceFormatError)
    assert outcome[4] == line


# ----------------------------------------------------------------------
# The fast path carries the load
# ----------------------------------------------------------------------


def test_reference_parse_runs_only_for_rare_and_first_seen_lines(
    monkeypatch,
):
    """``_parse_body_line`` sees a rare record, or a ``t``/``O`` line
    whose state, stack or kind token the parser has not met yet; every
    other line stays on the fast path."""
    lines = _simulated_lines("JMol")
    calls = []
    reference_parse = source_mod._parse_body_line

    def counting(source, line_no, line, state):
        calls.append(line_no)
        return reference_parse(source, line_no, line, state)

    monkeypatch.setattr(source_mod, "_parse_body_line", counting)
    build_store(LinesTraceSource(lines))

    expected, seen = [], set()
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if parts[0] == "t":
            tokens = {("state", parts[2]), ("stack", parts[3])}
        elif parts[0] == "O":
            tokens = {("kind", parts[2])}
        elif parts[0] in ("C", "P", "G"):
            continue
        else:
            expected.append(line_no)
            continue
        if not tokens <= seen:
            expected.append(line_no)
            seen |= tokens
    assert calls == expected
    assert len(calls) < len(lines) // 10
