"""Stable content digests of session traces.

The engine's on-disk result cache (:mod:`repro.engine.cache`) is
content-addressed: a cached analysis partial is valid exactly as long
as the trace bytes it was computed from are unchanged. This module
provides the digest both for in-memory traces (hashing the canonical
text serialization, so a trace digests identically no matter whether it
was simulated, parsed from text, or opened from a `.lilac` column file)
and for trace files (hashing raw bytes, cheaper when the file is already
on disk).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Sequence, Union

from repro.core.trace import Trace

#: Attribute used to memoize a digest: on the columnar store of a
#: columnar-backed trace (so it travels with the store between
#: processes), on the trace itself otherwise. Traces are immutable once
#: built, so the digest never needs invalidation.
_MEMO_ATTR = "_content_digest"

_CHUNK = 1 << 20

#: Lines hashed per ``update``: few calls, bounded extra memory.
_SLICE = 4096


def lines_digest(lines: Sequence[str]) -> str:
    """Hex SHA-256 of ``lines``, each terminated by a newline.

    The lines are hashed as joined slices of :data:`_SLICE` lines, one
    ``update`` per slice.
    """
    digest = hashlib.sha256()
    for first in range(0, len(lines), _SLICE):
        text = "\n".join(lines[first:first + _SLICE])
        text += "\n"
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def trace_digest(trace: Trace) -> str:
    """Hex digest of a trace's canonical (text-format) content.

    The digest is computed once and memoized; it is stable across
    processes and runs because the text serialization is fully
    deterministic (sorted metadata, ordered threads, sorted samples).
    A columnar-backed trace serializes straight from its columns and
    keeps the memo on the store, which is where a store opened from a
    `.lilac` file already holds the digest from its header; a memo is
    returned before anything is imported or a span is opened.
    """
    store = getattr(trace, "columnar", None)
    holder = trace if store is None else store
    memo = getattr(holder, _MEMO_ATTR, None)
    if memo is not None:
        return memo
    from repro.obs import runtime as obs_runtime

    with obs_runtime.maybe_span(
        "lila.trace_digest", metric="lila.digest_ms"
    ):
        if store is not None:
            lines = store.canonical_lines()
        else:
            from repro.lila.writer import trace_to_lines

            lines = trace_to_lines(trace)
        value = lines_digest(lines)
    setattr(holder, _MEMO_ATTR, value)
    return value


def file_digest(path: Union[str, Path]) -> str:
    """Hex digest of a trace file's raw bytes (streamed)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
