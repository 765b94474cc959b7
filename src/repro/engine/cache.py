"""Content-addressed on-disk cache for fused analysis partials.

Analyses re-run over unchanged traces dominate LagAlyzer's offline cost
(the paper's full study is 7.5 hours of sessions). The cache stores one
**bundle** per trace: every partial one fused pass produced for that
trace, keyed by everything that could change it:

- the **trace digest** (:func:`repro.lila.digest.trace_digest`) — the
  content hash of the session trace;
- the **config fingerprint** — a stable hash of the
  :class:`~repro.core.analyzer.AnalysisConfig` in effect;
- the **plan fingerprint** (:func:`repro.core.plan.plan_fingerprint`) —
  the deduplicated set of analyses the pass ran;
- the **code version** — bumped whenever an analysis implementation
  changes shape, invalidating all prior entries at once.

A warm trace therefore costs one read whether the request names one
analysis or all of them. A request for a different analysis set than
an earlier run's has a different plan fingerprint, so it maps the trace
once and stores its own bundle.

Entries are self-checking: each file carries a magic header and a
checksum of its pickled payload, so truncated or corrupted entries are
detected, discarded, and transparently recomputed — a damaged cache can
slow a run down but never change its results.

Layout under the cache directory (default ``~/.cache/lagalyzer``,
overridable with ``cache_dir=`` or the ``LAGALYZER_CACHE_DIR``
environment variable)::

    bundles/<kk>/<key>.pkl   one fused bundle per (digest, config, plan)
    stats.json               cumulative hit/miss/store counters

Older versions also wrote one entry per analysis beside the bundles.
Nothing reads those any more; :meth:`ResultCache.clear` deletes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

import repro
from repro.faults import runtime as faults_runtime
from repro.obs import runtime as obs_runtime

#: Bump when the shape of cached partials changes incompatibly; stale
#: entries then simply never match and age out via ``cache clear``.
#: Schema 2: bundles carry a ``{"meta": ..., "partials": ...}`` envelope
#: recording trace provenance (application, session, digest, config and
#: plan fingerprints) so the study warehouse can compact a cache without
#: re-reading any trace.
CACHE_SCHEMA = 2

#: The code-version component of every cache key.
CODE_VERSION = f"{repro.__version__}/s{CACHE_SCHEMA}"

#: Sentinel returned by :meth:`ResultCache.get_bundle` on a miss, so
#: ``None`` stays a cacheable value.
MISS = object()

_MAGIC = b"LAGCACHE"
_CHECKSUM_BYTES = 16
_ENTRY_SUFFIX = ".pkl"

_ENVELOPE_KEYS = frozenset({"meta", "partials"})


def bundle_envelope(
    partials: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Wrap fused-pass ``partials`` with provenance ``meta`` for storage.

    ``meta`` records where the bundle came from (application, session
    id, trace digest, config/plan fingerprints, analysis names) so the
    study warehouse can compact a cache directory into queryable rows
    without touching the original traces.
    """
    return {"meta": dict(meta or {}), "partials": partials}


def bundle_parts(
    value: Any,
) -> Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """``(meta, partials)`` from a stored bundle value.

    Schema-2 envelopes yield their recorded meta; a pre-envelope raw
    ``{analysis: partial}`` dict (only reachable through hand-rolled
    keys — schema-1 keys no longer match) yields ``(None, value)``. A
    value that is not a bundle at all yields ``(None, None)``.
    """
    if not isinstance(value, dict):
        return None, None
    if set(value) == _ENVELOPE_KEYS and isinstance(value["partials"], dict):
        meta = value["meta"]
        return (meta if isinstance(meta, dict) else None), value["partials"]
    return None, value


@dataclass(frozen=True)
class BundleRecord:
    """One stored fused bundle, as yielded by :meth:`ResultCache.iter_bundles`."""

    key: str
    """The content-address (filename stem) of the bundle entry."""
    meta: Optional[Dict[str, Any]]
    """Provenance envelope, or ``None`` for pre-envelope bundles."""
    partials: Dict[str, Any]
    """The fused pass's ``{analysis_name: partial}`` payload."""


def default_cache_dir() -> Path:
    """The cache root honoring ``LAGALYZER_CACHE_DIR``."""
    env = os.environ.get("LAGALYZER_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "lagalyzer"


def config_fingerprint(config: Any) -> str:
    """Stable hex fingerprint of an analysis configuration.

    Relies on the config having a deterministic ``repr`` (true for the
    frozen :class:`~repro.core.analyzer.AnalysisConfig` dataclass); the type
    name is folded in so two config classes never collide.
    """
    text = f"{type(config).__module__}.{type(config).__qualname__}:{config!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Counters for one cache (this process plus the persisted totals)."""

    hits: int = 0
    """Bundle probes served from ``bundles/``."""
    misses: int = 0
    """Bundle probes that found no usable entry."""
    stores: int = 0
    """Bundles written."""
    discarded: int = 0
    """Entries dropped because they failed the integrity check."""
    write_errors: int = 0
    """Stores that failed (disk full, permissions) and were skipped."""
    read_errors: int = 0
    """Reads that failed below the integrity check (IO errors, entries
    that passed their checksum but would not unpickle)."""

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{
                field.name: getattr(self, field.name) + getattr(other, field.name)
                for field in fields(self)
            }
        )

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def _write_atomically(path: Path, data: bytes, suffix: str) -> None:
    """Write ``data`` to ``path`` through a temp file of this writer's
    own in the same directory, renamed over ``path``: readers, and
    writers racing for the same name, only ever see a whole file."""
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """A content-addressed pickle store with integrity checking.

    Thread/process safety model: entries are immutable once written
    (writes go through a temp file + atomic rename), so concurrent
    readers and writers can only race benignly — at worst the same
    entry is computed twice. The persisted counters are merged with a
    read-modify-write on :meth:`flush_stats`; counts lost to a rare
    concurrent flush are cosmetic.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    @staticmethod
    def bundle_key(
        trace_digest: str,
        config_fingerprint: str,
        plan_fingerprint: str,
        code_version: str = CODE_VERSION,
    ) -> str:
        """The content address of one fused pass's partial bundle.

        Keyed by the **plan** fingerprint (the deduplicated analysis
        set, see :func:`repro.core.plan.plan_fingerprint`); the
        ``bundle`` marker keeps the key space disjoint from the
        per-analysis entries older versions wrote.
        """
        text = "\n".join(
            ("bundle", trace_digest, config_fingerprint, plan_fingerprint,
             code_version)
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _bundle_path_for(self, key: str) -> Path:
        return self.root / "bundles" / key[:2] / (key + _ENTRY_SUFFIX)

    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------

    def get_bundle(self, key: str) -> Any:
        """The cached fused-partial bundle for ``key``, or :data:`MISS`.

        Unreadable, truncated, or checksum-failing entries are deleted
        and reported as misses — corruption is never fatal. An absent
        entry is an ordinary miss; an entry that *exists* but cannot be
        read (IO error) additionally counts ``cache.read_errors`` and
        warns, because that usually means failing storage, not a cold
        cache. Every probe counts one ``cache.hits`` or ``cache.misses``.
        """
        value = self._read(self._bundle_path_for(key), key)
        if value is MISS:
            self.stats.misses += 1
            obs_runtime.count("cache.misses")
        else:
            self.stats.hits += 1
            obs_runtime.count("cache.hits")
        return value

    def put_bundle(self, key: str, value: Any) -> None:
        """Store a fused-partial bundle under ``key`` atomically.

        Write failures (disk full, permission denied, a file squatting
        on the shard directory path) never propagate: the cache is an
        optimization, so a failed store warns, bumps the
        ``cache.write_errors`` obs counter, and lets the run continue
        uncached.
        """
        with obs_runtime.maybe_span("cache.put"):
            try:
                self._write_entry(self._bundle_path_for(key), key, value)
            except OSError as error:
                self.stats.write_errors += 1
                obs_runtime.count("cache.write_errors")
                warnings.warn(
                    f"result cache write failed for {key[:12]}… under "
                    f"{self.root}: {error} — continuing uncached",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return
        self.stats.stores += 1
        obs_runtime.count("cache.stores")

    # perfbench/tracing.py wraps these names on the class and sizes each
    # write through ``_path_for``. They are the bundle methods under
    # their older names, not a second tier.
    get = get_bundle
    put = put_bundle
    _path_for = _bundle_path_for

    def _read(self, path: Path, key: str) -> Any:
        """The value stored at ``path``, or :data:`MISS`.

        The one read path behind :meth:`get_bundle` and
        :meth:`iter_bundles`: passes the ``cache.read`` fault site, warns
        and counts ``cache.read_errors`` on an IO error, and deletes an
        entry that fails its integrity check (counted ``discarded``).
        """
        try:
            faults_runtime.check("cache.read", key=key)
            blob = path.read_bytes()
        except FileNotFoundError:
            return MISS
        except OSError as error:
            self.stats.read_errors += 1
            obs_runtime.count("cache.read_errors")
            warnings.warn(
                f"result cache read failed for {key[:12]}… under "
                f"{self.root}: {error} — treating as a miss",
                RuntimeWarning,
                stacklevel=3,
            )
            return MISS
        blob = faults_runtime.filter_bytes("cache.read", key, blob)
        value = self._decode(blob, key)
        if value is MISS:
            self.stats.discarded += 1
            obs_runtime.count("cache.discarded")
            try:
                path.unlink()
            except OSError:
                pass
            return MISS
        return value[0]

    def _write_entry(self, path: Path, key: str, value: Any) -> None:
        faults_runtime.check("cache.write", key=key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES]
        _write_atomically(path, _MAGIC + checksum + payload, _ENTRY_SUFFIX)

    def _decode(self, blob: bytes, key: str = "") -> Any:
        """``(value,)`` on success, :data:`MISS` on corruption.

        An entry that passes its checksum but still fails to unpickle
        (schema drift, an unimportable class) is *not* silently
        swallowed: it warns, counts ``cache.read_errors``, and reads as
        a miss. Interpreter-level failures — ``KeyboardInterrupt``,
        ``SystemExit``, ``MemoryError``, ``RecursionError`` — re-raise:
        they signal the process, not the entry.
        """
        header = len(_MAGIC) + _CHECKSUM_BYTES
        if len(blob) < header or not blob.startswith(_MAGIC):
            return MISS
        checksum = blob[len(_MAGIC) : header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest()[:_CHECKSUM_BYTES] != checksum:
            return MISS
        try:
            return (pickle.loads(payload),)
        except (KeyboardInterrupt, SystemExit, MemoryError, RecursionError):
            raise
        except Exception as error:
            self.stats.read_errors += 1
            obs_runtime.count("cache.read_errors")
            warnings.warn(
                f"cache entry {key[:12]}… passed its checksum but failed "
                f"to unpickle ({error!r}) — discarding and recomputing",
                RuntimeWarning,
                stacklevel=4,
            )
            return MISS

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------

    def _entries(self, directory: str = "bundles") -> Iterator[Path]:
        """Entry files under ``root/directory``, in key order."""
        root = self.root / directory
        if not root.is_dir():
            return
        for shard in sorted(root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix == _ENTRY_SUFFIX and not entry.name.startswith("."):
                    yield entry

    def iter_bundles(
        self, skip: Optional[Callable[[str], bool]] = None
    ) -> Iterator[BundleRecord]:
        """Every stored fused bundle, in deterministic key order.

        This is the supported iteration surface for consumers like the
        study warehouse compactor — the shard layout under ``bundles/``
        is an implementation detail. Entries are yielded sorted by key
        (ascending hex, which matches the sorted shard/file walk), so
        two sweeps of the same cache always see the same sequence.

        ``skip(key)``, when given, is asked as the sweep reaches each
        entry, after the consumer has handled every earlier one; an
        entry it accepts is neither opened nor checked nor yielded.

        Robustness matches :meth:`get_bundle`: unreadable, corrupt, or
        non-bundle entries are discarded (counted, unlinked where
        possible) and skipped, never fatal. A sweep counts no hits or
        misses.
        """
        for path in self._entries():
            if skip is not None and skip(path.stem):
                continue
            value = self._read(path, path.stem)
            if value is MISS:
                continue
            meta, partials = bundle_parts(value)
            if partials is None:
                self.stats.discarded += 1
                obs_runtime.count("cache.discarded")
                continue
            yield BundleRecord(key=path.stem, meta=meta, partials=partials)

    def bundle_count(self) -> int:
        """Fused-bundle entries (``bundles/``)."""
        return sum(1 for _ in self._entries())

    def bundle_bytes(self) -> int:
        """Bytes held by fused-bundle entries."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every bundle, the per-analysis entries older versions
        left under ``objects/``, and the counters. Returns entries
        removed."""
        removed = 0
        for entry in list(self._entries()) + list(self._entries("objects")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self._stats_path().unlink()
        except OSError:
            pass
        return removed

    # ------------------------------------------------------------------
    # Persistent counters
    # ------------------------------------------------------------------

    def flush_stats(self) -> CacheStats:
        """Merge this process's counters into ``stats.json``.

        Returns the merged cumulative totals; in-process counters reset
        so repeated flushes don't double count. Like :meth:`put_bundle`,
        a write failure warns and continues — losing a counter flush
        must not kill the analysis that produced the counters.
        """
        current = self.stats
        if not any(current.as_dict().values()):
            return self.persisted_stats()
        self.stats = CacheStats()
        total = self.persisted_stats().merge(current)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            _write_atomically(
                self._stats_path(),
                json.dumps(total.as_dict()).encode("utf-8"),
                ".json",
            )
        except OSError as error:
            self.stats = self.stats.merge(current)  # keep counters for a later flush
            obs_runtime.count("cache.write_errors")
            warnings.warn(
                f"cache stats flush failed under {self.root}: {error} — "
                f"continuing",
                RuntimeWarning,
                stacklevel=2,
            )
        return total

    def persisted_stats(self) -> CacheStats:
        """The cumulative counters previously flushed to disk.

        Lenient: a missing or corrupt ``stats.json`` reads as all
        zeros. Callers that must distinguish those cases (the CLI's
        ``engine cache stats``) use :meth:`persisted_stats_status`.
        """
        return self.persisted_stats_status()[0]

    def persisted_stats_status(self) -> Tuple[CacheStats, str]:
        """``(stats, status)`` — status is ``"ok"``, ``"missing"``
        (no ``stats.json`` yet), or ``"corrupt"`` (file exists but is
        unreadable or not a counter mapping; stats read as zeros).
        Counters this version does not keep are ignored."""
        try:
            text = self._stats_path().read_text(encoding="utf-8")
        except FileNotFoundError:
            return CacheStats(), "missing"
        except OSError:
            return CacheStats(), "corrupt"
        try:
            raw = json.loads(text)
            if not isinstance(raw, dict):
                raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
            return (
                CacheStats(
                    **{
                        field.name: int(raw.get(field.name, 0))
                        for field in fields(CacheStats)
                    }
                ),
                "ok",
            )
        except (TypeError, ValueError):
            return CacheStats(), "corrupt"

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, {self.stats})"
