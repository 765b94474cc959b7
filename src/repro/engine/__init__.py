"""The parallel map–reduce analysis engine with on-disk result caching.

LagAlyzer's analyses decompose into per-trace ``map_trace`` partials
merged by a ``reduce`` (see :mod:`repro.core.analyses`). This package
executes that decomposition at scale:

- :class:`~repro.engine.engine.AnalysisEngine` — fan one fused pass per
  trace out across worker processes and satisfy repeats from a
  content-addressed cache, with results bit-identical to the serial
  path.
- :class:`~repro.engine.cache.ResultCache` — the on-disk store: one
  bundle of partials per (trace digest, config fingerprint, plan
  fingerprint, code version).
- :mod:`~repro.engine.scheduler` — process-pool plumbing with a serial
  fallback for restricted environments.

The unit of work is one whole trace: each task maps one trace in one
fused pass, so a trace is never split across workers.
"""

from repro.engine.cache import (
    CACHE_SCHEMA,
    CODE_VERSION,
    MISS,
    CacheStats,
    ResultCache,
    config_fingerprint,
    default_cache_dir,
)
from repro.engine.engine import (
    QUARANTINE_ERRORS,
    AnalysisEngine,
    QuarantinedTrace,
)
from repro.engine.scheduler import (
    RetryPolicy,
    TaskOutcome,
    parallel_map,
    resolve_workers,
    run_tasks,
)

__all__ = [
    "AnalysisEngine",
    "CACHE_SCHEMA",
    "CODE_VERSION",
    "CacheStats",
    "MISS",
    "QUARANTINE_ERRORS",
    "QuarantinedTrace",
    "ResultCache",
    "RetryPolicy",
    "TaskOutcome",
    "config_fingerprint",
    "default_cache_dir",
    "parallel_map",
    "resolve_workers",
    "run_tasks",
]
