"""Per-session spool files: the durable side of the ingest daemon.

A spool is an ordinary LiLa *text* trace file grown by appends. The
daemon writes exactly the record lines a client shipped (header
included), one write and one flush per batch — so at any
moment the spool is a plain ``.lila`` file that
:func:`repro.lila.source.open_source` reads like any other trace. A
client that disconnected mid-stream leaves everything it got acked
on disk; nothing about the spool format says "partial".

Spool files are named ``{application}-{session}.lila`` with both parts
sanitized to a filesystem-safe alphabet, so a hostile session id cannot
escape the spool directory.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Optional, Sequence, Union

#: Characters allowed verbatim in a spool file name component.
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(part: str, fallback: str) -> str:
    cleaned = _UNSAFE.sub("_", part).strip("._")
    return cleaned or fallback


def spool_name(session: str, application: str = "") -> str:
    """The spool file name for one session."""
    app = _sanitize(application, "app")
    sess = _sanitize(session, "session")
    return f"{app}-{sess}.lila"


class SessionSpool:
    """Append-only LiLa text spool for one ingest session.

    Thread-safe: the daemon's flush thread and an END handler may both
    append (never concurrently for the same batch, but the lock makes
    the file position safe regardless).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        session: str,
        application: str = "",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.session = session
        self.application = application
        self.path = self.directory / spool_name(session, application)
        self._lock = threading.Lock()
        self._file: Optional[object] = None
        #: Record lines durably appended so far.
        self.lines_written = 0

    def _handle(self) -> object:
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        return self._file

    def append(self, lines: Sequence[str]) -> int:
        """Append record lines (newline-terminated) and flush; count written."""
        if not lines:
            return 0
        with self._lock:
            handle = self._handle()
            handle.write("\n".join(lines) + "\n")
            handle.flush()
            self.lines_written += len(lines)
        return len(lines)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "SessionSpool":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"SessionSpool({str(self.path)!r}, "
            f"{self.lines_written} lines)"
        )
