"""Property-based tests (hypothesis) on core invariants."""

import hashlib
import string
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro import AnalysisConfig, LagAlyzer
from repro.apps.catalog import APPLICATION_NAMES
from repro.apps.sessions import simulate_session
from repro.core.intervals import (
    Interval,
    IntervalKind,
    IntervalTreeBuilder,
    merge_adjacent,
    total_span_ns,
)
from repro.core.patterns import PatternTable, key_depth, pattern_key
from repro.core.samples import (
    Sample,
    StackFrame,
    StackTrace,
    ThreadSample,
    ThreadState,
    samples_in_range,
)
from repro.core.store import as_columnar
from repro.lila.autodetect import load_trace
from repro.lila.colfile import (
    open_column_store,
    open_column_trace,
    store_digest,
    write_column_file,
)
from repro.lila.digest import trace_digest
from repro.lila.format import (
    decode_frame,
    decode_stack,
    encode_frame,
    encode_stack,
)
from repro.lila.writer import trace_to_lines, write_trace

from helpers import GUI, dispatch, episode, listener_iv
from oracle import OracleAnalyzer, plain

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_identifier = st.text(
    alphabet=string.ascii_letters + string.digits + "_$",
    min_size=1,
    max_size=12,
)

_class_name = st.builds(
    lambda parts: ".".join(parts),
    st.lists(_identifier, min_size=1, max_size=4),
)

_frame = st.builds(
    StackFrame,
    class_name=_class_name,
    method_name=_identifier,
    is_native=st.booleans(),
)

_stack = st.builds(StackTrace, st.lists(_frame, max_size=6))


@st.composite
def _event_sequences(draw):
    """Random well-formed open/close event sequences for the builder."""
    events = []
    time = 0
    depth = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        time += draw(st.integers(min_value=0, max_value=50))
        if depth == 0 or draw(st.booleans()):
            kind = draw(st.sampled_from(list(IntervalKind)))
            events.append(("open", kind, time))
            depth += 1
        else:
            events.append(("close", None, time))
            depth -= 1
    while depth > 0:
        time += draw(st.integers(min_value=0, max_value=50))
        events.append(("close", None, time))
        depth -= 1
    return events


@st.composite
def _interval_trees(draw, max_depth=3):
    """Random properly nested trees via the builder."""
    builder = IntervalTreeBuilder()
    for action, kind, time in draw(_event_sequences()):
        if action == "open":
            builder.open(kind, "sym", time)
        else:
            builder.close(time)
    return builder.finish()


# ----------------------------------------------------------------------
# Interval invariants
# ----------------------------------------------------------------------


@given(_interval_trees())
@settings(max_examples=60)
def test_builder_output_always_validates(roots):
    for root in roots:
        root.validate()


@given(_interval_trees())
@settings(max_examples=60)
def test_descendant_count_matches_traversal(roots):
    for root in roots:
        assert root.descendant_count() == sum(1 for _ in root.descendants())


@given(_interval_trees())
@settings(max_examples=60)
def test_children_nest_in_time(roots):
    for root in roots:
        for node in root.preorder():
            for child in node.children:
                assert node.start_ns <= child.start_ns
                assert child.end_ns <= node.end_ns


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=200),
), max_size=20))
@settings(max_examples=60)
def test_merge_adjacent_disjoint_and_sorted(raw):
    intervals = [
        Interval(IntervalKind.GC, "g", start, start + length)
        for start, length in raw
    ]
    merged = merge_adjacent(intervals)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    # Coverage is preserved: every original point lies in some span.
    for interval in intervals:
        assert any(
            s <= interval.start_ns and interval.end_ns <= e
            for s, e in merged
        )
    assert total_span_ns(intervals) == sum(e - s for s, e in merged)


# ----------------------------------------------------------------------
# Pattern-key invariants
# ----------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=500),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=40)
def test_pattern_key_ignores_timing(a_ms, b_ms):
    ep_a = episode(dispatch(0.0, float(a_ms),
                            [listener_iv("x.Y.m", 0.0, float(a_ms) * 0.9)]))
    ep_b = episode(dispatch(0.0, float(b_ms),
                            [listener_iv("x.Y.m", 0.0, float(b_ms) * 0.9)]))
    assert pattern_key(ep_a) == pattern_key(ep_b)


@given(_interval_trees())
@settings(max_examples=60)
def test_key_depth_never_exceeds_tree_depth(roots):
    for root in roots:
        if root.kind is not IntervalKind.DISPATCH:
            continue
        ep = episode(root)
        assert key_depth(pattern_key(ep)) <= root.depth()


def _key_depth_oracle(key):
    """The original per-character ``key_depth`` loop, kept as the oracle."""
    depth = 1
    best = 1
    for char in key:
        if char == "(":
            depth += 1
            if depth > best:
                best = depth
        elif char == ")":
            depth -= 1
    return best


@given(st.text(alphabet=st.one_of(st.sampled_from("()|"), st.characters())))
@example("")
@example(")(")
@example(")))(((")
@example("(listener|é.Ä.m(paint|☃.x))(iowait|日本.y")
@settings(max_examples=300)
def test_key_depth_matches_the_character_loop(key):
    assert key_depth(key) == _key_depth_oracle(key)


@given(_interval_trees())
@settings(max_examples=60)
def test_pattern_table_covers_structured_episodes(roots):
    episodes = [
        episode(root, index=i)
        for i, root in enumerate(roots)
        if root.kind is IntervalKind.DISPATCH
    ]
    table = PatternTable.from_episodes(episodes)
    structured = sum(1 for ep in episodes if ep.has_structure)
    assert table.covered_episodes == structured
    assert table.covered_episodes + table.excluded_episodes == len(episodes)


# ----------------------------------------------------------------------
# Sample slicing
# ----------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=40),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60)
def test_samples_in_range_matches_filter(times, a, b):
    start, end = min(a, b), max(a, b)
    samples = [
        Sample(t, [ThreadSample(GUI, ThreadState.RUNNABLE)])
        for t in sorted(times)
    ]
    picked = samples_in_range(samples, start, end)
    expected = [s for s in samples if start <= s.timestamp_ns < end]
    assert [s.timestamp_ns for s in picked] == [
        s.timestamp_ns for s in expected
    ]


# ----------------------------------------------------------------------
# LiLa format round trips
# ----------------------------------------------------------------------


@given(_frame)
@settings(max_examples=100)
def test_frame_roundtrip(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(_stack)
@settings(max_examples=100)
def test_stack_roundtrip(stack):
    assert decode_stack(encode_stack(stack)) == stack


#: One simulated session: ``(application, session index, seed)``.
_SESSIONS = dict(
    app=st.sampled_from(APPLICATION_NAMES),
    session=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@given(**_SESSIONS)
@settings(max_examples=30, deadline=None)
def test_canonical_serializer_and_digest_round_trip(app, session, seed):
    """Columns serialize like the writer; every representation digests
    to the SHA-256 of the written file."""
    trace = simulate_session(app, session, seed=seed, scale=0.01)
    lines = trace_to_lines(trace)
    assert as_columnar(trace).columnar.canonical_lines() == lines
    expected = trace_digest(trace)
    with tempfile.TemporaryDirectory() as tmp:
        text = write_trace(trace, Path(tmp) / "session.lila")
        assert hashlib.sha256(text.read_bytes()).hexdigest() == expected
        loaded = load_trace(text)
        assert trace_digest(loaded) == expected
        column = write_column_file(loaded.columnar, Path(tmp) / "session.lilac")
        assert trace_digest(open_column_trace(column)) == expected
        # Re-derive the digest from the mapped columns, not the header.
        mapped = open_column_store(column)
        del mapped._content_digest
        assert store_digest(mapped) == expected


# JMol sessions hold Swing's async-wrapping-paint episodes, the one
# trigger rule no golden trace exercises.
@given(**_SESSIONS)
@example(app="JMol", session=0, seed=1)
@settings(max_examples=40, deadline=None)
def test_column_kernels_match_the_object_oracle(app, session, seed):
    """Every summary of a plain simulated trace, mapped through the
    column kernels, equals the object-model oracle's answer."""
    trace = simulate_session(app, session, seed=seed, scale=0.01)
    for config in (AnalysisConfig(), AnalysisConfig(all_dispatch_threads=True)):
        kernels = LagAlyzer.from_traces([trace], config).summaries()
        oracle = OracleAnalyzer([trace], config).summaries()
        assert {name: plain(value) for name, value in kernels.items()} == {
            name: plain(value) for name, value in oracle.items()
        }
