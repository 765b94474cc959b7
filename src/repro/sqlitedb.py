"""The SQLite layer under both warehouses.

The study warehouse (:mod:`repro.warehouse.store`) and the telemetry
warehouse (:mod:`repro.obs.warehouse`) are each one SQLite file (stdlib
:mod:`sqlite3`), and both open it through :class:`SQLiteStore`:

- **One connection per public call.** A public method opens one
  connection on first use and closes it when it returns; public methods
  it calls on the same instance and thread reuse it. Nothing outlives
  the call, so a file deleted between calls is recreated by the next
  write, and a store pickles as its constructor arguments.
- **WAL and ``synchronous=NORMAL``** on every connection.
- **A migration chain per store.** ``MIGRATIONS[n]`` upgrades a
  version-``n`` file to ``n + 1``; opening a file walks the chain from
  its recorded version, one ``BEGIN IMMEDIATE`` transaction per step
  (:func:`ensure_schema`). A file that records a newer version is
  refused, and so is a file whose ``meta`` table has no row under the
  store's version key: it belongs to another store.

A store names its busy timeout, chain, version key and typed error as
class constants.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Type, Union

from repro.core.errors import LagAlyzerError


def enable_wal(connection: sqlite3.Connection, timeout_s: float) -> None:
    """Switch the file to WAL, waiting out a concurrent first open.

    Switching a fresh file into WAL takes an exclusive lock without
    consulting the busy handler, so the loser of two racing first opens
    fails at once; it retries for up to ``timeout_s`` (the connection's
    own busy timeout) instead.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() >= deadline:
                raise
            time.sleep(0.005)


def stored_version(
    connection: sqlite3.Connection, key: str, error: Type[LagAlyzerError]
) -> int:
    """The schema version recorded under ``key``, 0 for a fresh file.

    Raises:
        error: the file has a ``meta`` table with no ``key`` row — it
            was written by another store.
    """
    row = connection.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
    ).fetchone()
    if row is None:
        return 0
    row = connection.execute(
        "SELECT value FROM meta WHERE key = ?", (key,)
    ).fetchone()
    if row is None:
        raise error(
            f"the file's meta table has no {key!r} row, so another store"
            f" wrote it — use a fresh file"
        )
    return int(row[0])


def _statements(script: str) -> List[str]:
    """The individual statements of a migration script.

    Scripts are executed statement by statement inside an explicit
    transaction (``executescript`` would commit around itself and break
    the write-lock serialization below). A statement ends at the first
    semicolon after which :func:`sqlite3.complete_statement` holds, so
    a trigger body's inner semicolons, and semicolons inside string
    literals, stay in their statement.
    """
    statements: List[str] = []
    pending = ""
    for part in script.split(";"):
        pending += part + ";"
        if sqlite3.complete_statement(pending):
            statements.append(pending.strip())
            pending = ""
    # An unterminated tail stays in, so executing it raises.
    return [
        statement for statement in statements + [pending.strip()]
        if statement.strip(";")
    ]


def ensure_schema(
    connection: sqlite3.Connection,
    migrations: Sequence[str],
    key: str,
    error: Type[LagAlyzerError],
) -> int:
    """Walk ``connection`` up ``migrations`` to version ``len(migrations)``.

    Returns the version the file started at; ``key`` is the ``meta`` row
    the version is stored under. Each step runs inside a ``BEGIN
    IMMEDIATE`` transaction: the write lock serializes concurrent
    first-opens (the version is re-read under the lock, so the loser
    sees the winner's work instead of re-running a non-idempotent
    ``ALTER TABLE``), and a crash mid-chain leaves a valid lower-version
    file that the next open resumes upgrading. An up-to-date file costs
    two reads.

    Raises:
        error: the file belongs to another store, or reports a version
            newer than this code understands.
    """
    latest = len(migrations)
    start = version = stored_version(connection, key, error)
    if start > latest:
        raise error(
            f"schema v{start} ({key}) is newer than this code's"
            f" v{latest} — upgrade repro or use a fresh file"
        )
    while version < latest:
        connection.execute("BEGIN IMMEDIATE")
        try:
            version = stored_version(connection, key, error)
            if version < latest:
                for statement in _statements(migrations[version]):
                    connection.execute(statement)
                version += 1
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)"
                    " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                    (key, str(version)),
                )
            connection.execute("COMMIT")
        except BaseException:
            if connection.in_transaction:
                connection.execute("ROLLBACK")
            raise
    return start


class SQLiteStore:
    """One SQLite file, opened once per public call.

    Args:
        path: the database file (created, with parents, on first use).
    """

    #: How long a connection waits on another writer's lock.
    BUSY_TIMEOUT_S: float
    #: ``MIGRATIONS[n]`` upgrades a version-``n`` file to ``n + 1``.
    MIGRATIONS: Tuple[str, ...]
    #: The ``meta`` row the schema version is stored under.
    VERSION_KEY: str
    #: What an unusable file raises.
    ERROR: Type[LagAlyzerError]

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._local = threading.local()

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        # Pickles as its path: the thread-local only ever holds the
        # connection of a call in progress.
        return (type(self), (self.path,))

    @contextmanager
    def _connection(self) -> Iterator[Callable[[], sqlite3.Connection]]:
        """Scope one public call to one connection, opened on first use.

        Yields ``connect()``, which returns the scope's connection —
        opening it (WAL, schema migrated) on the first call, so a query
        that never calls it never creates the file. Re-entrant per
        instance and thread: a scope entered inside another yields the
        outer ``connect``, and the outermost exit closes the connection.
        """
        outer = getattr(self._local, "connect", None)
        if outer is not None:
            yield outer
            return
        opened: Optional[sqlite3.Connection] = None

        def connect() -> sqlite3.Connection:
            nonlocal opened
            if opened is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                connection = sqlite3.connect(
                    str(self.path), timeout=self.BUSY_TIMEOUT_S
                )
                try:
                    enable_wal(connection, self.BUSY_TIMEOUT_S)
                    connection.execute("PRAGMA synchronous=NORMAL")
                    ensure_schema(
                        connection, self.MIGRATIONS, self.VERSION_KEY,
                        self.ERROR,
                    )
                except BaseException:
                    connection.close()
                    raise
                opened = connection
            return opened

        self._local.connect = connect
        try:
            yield connect
        finally:
            self._local.connect = None
            if opened is not None:
                opened.close()

    def _rows(self, sql: str, params: Sequence[Any] = ()) -> List[tuple]:
        """Every row of one read query; a missing file reads as empty."""
        if not self.path.exists():
            return []
        with self._connection() as connect:
            return connect().execute(sql, params).fetchall()

    def schema_version(self) -> int:
        """The schema version of the file (migrating it if behind)."""
        with self._connection() as connect:
            return stored_version(connect(), self.VERSION_KEY, self.ERROR)
