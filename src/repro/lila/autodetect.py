"""Loading traces regardless of encoding.

Both encodings are self-identifying (``#%lila`` for text, ``LILC`` for
the mmap-backed column file), so callers should not have to care:
:func:`load_trace` sniffs the first bytes and dispatches. A file in the
binary encoding that API version 4 removed (magic ``LILB``) is refused
with a :class:`TraceFormatError` that says so.
"""

from __future__ import annotations

import glob as glob_mod
from pathlib import Path
from typing import List, Sequence, Union

from repro.core.errors import TraceFormatError
from repro.core.trace import Trace
from repro.lila import format as text_format
from repro.lila.reader import read_trace

#: File suffixes picked up when a directory is given to
#: :func:`expand_trace_paths`. ``.lilb`` stays listed so a directory of
#: removed binary traces fails loudly instead of being skipped.
TRACE_SUFFIXES = (".lila", ".lilb", ".lilac")

#: Magic of the binary encoding removed in API version 4.
_REMOVED_BINARY_MAGIC = b"LILB"

_GLOB_CHARS = frozenset("*?[")


def detect_format(path: Union[str, Path]) -> str:
    """``"text"`` or ``"lilac"``, by magic bytes.

    Raises:
        TraceFormatError: when no magic matches, or the file is in the
            removed binary encoding.
    """
    from repro.lila import colfile

    path = Path(path)
    with path.open("rb") as handle:
        head = handle.read(8)
    if head.startswith(colfile.MAGIC):
        return "lilac"
    if head.startswith(text_format.MAGIC.encode("utf-8")):
        return "text"
    if head.startswith(_REMOVED_BINARY_MAGIC):
        raise TraceFormatError(
            f"{path}: binary LiLa trace (.lilb); that encoding was removed "
            f"in API version 4 — convert it to text or .lilac with an "
            f"older release",
            path=path,
        )
    raise TraceFormatError(
        f"{path}: not a LiLa trace in any encoding "
        f"(first bytes: {head!r})"
    )


def expand_trace_paths(
    paths: Union[str, Path, Sequence[Union[str, Path]]],
) -> List[Path]:
    """Resolve files, directories, and glob patterns to trace files.

    Each entry may be an explicit file path, a directory (every file
    inside with a :data:`TRACE_SUFFIXES` suffix, sorted), or a glob pattern
    (matches sorted). Order is preserved across entries so session
    order stays under the caller's control.

    Raises:
        TraceFormatError: when an entry matches no file at all.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    resolved: List[Path] = []
    for entry in paths:
        text = str(entry)
        path = Path(entry)
        if path.is_dir():
            matches = sorted(
                child
                for child in path.iterdir()
                if child.is_file() and child.suffix in TRACE_SUFFIXES
            )
            if not matches:
                raise TraceFormatError(
                    f"{path}: directory contains no trace files "
                    f"({'/'.join(TRACE_SUFFIXES)})"
                )
            resolved.extend(matches)
        elif _GLOB_CHARS.intersection(text):
            matches = sorted(Path(m) for m in glob_mod.glob(text))
            if not matches:
                raise TraceFormatError(f"{text}: glob matched no trace files")
            resolved.extend(m for m in matches if m.is_file())
        else:
            resolved.append(path)
    if not resolved:
        raise TraceFormatError("no trace paths given")
    return resolved


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace file in whichever encoding it uses."""
    from repro.obs import runtime as obs_runtime

    if detect_format(path) == "text":
        return read_trace(path)
    from repro.lila.colfile import open_column_trace

    with obs_runtime.maybe_span(
        "lila.read_trace",
        metric="lila.parse_ms",
        path=Path(path).name,
        format="lilac",
    ):
        trace = open_column_trace(path)
    if obs_runtime.current() is not None:
        obs_runtime.count("lila.traces_parsed")
        try:
            obs_runtime.count("lila.bytes_read", Path(path).stat().st_size)
        except OSError:
            pass
    return trace
