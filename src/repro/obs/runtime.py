"""The ambient observer: process-global, one-branch disabled guards.

Deep pipeline code (the trace reader, the result cache, the simulator's
tracer) cannot have an ``obs=`` parameter threaded through every
signature. Instead an :class:`~repro.obs.observer.Observer` is
*installed* for the duration of an observed run and hot paths consult
it through the helpers here. Every helper starts with the same single
branch — ``if _current is None: return`` — so the disabled mode costs
one global read and one comparison per site (verified by
``benchmarks/bench_gates.py``).

Worker processes never *use* the parent's observer: on fork-start
platforms a child inherits the module global, but its spans and
counters would land in a throwaway copy, so the installation records
the owning pid and :func:`current` treats a foreign-pid observer as
absent. The scheduler then installs a fresh observer per pooled task
and absorbs its snapshot back (see :mod:`repro.engine.scheduler`).
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.obs.spans import NULL_SPAN

#: The installed observer, or None (observation disabled).
_current: Optional[Any] = None
#: Pid that installed it; a forked child sees a mismatch and ignores it.
_owner_pid: int = -1


def install(observer: Any) -> None:
    """Make ``observer`` the ambient observer for this process."""
    global _current, _owner_pid
    _current = observer
    _owner_pid = os.getpid()


def uninstall() -> None:
    """Disable ambient observation."""
    global _current
    _current = None


def current() -> Optional[Any]:
    """The ambient observer, or None when observation is disabled.

    An observer inherited through ``fork`` (pid mismatch) counts as
    disabled: recording into it could never be shipped back.
    """
    if _current is None or _owner_pid != os.getpid():
        return None
    return _current


class installed:
    """Context manager: install an observer, restore the previous one.

    A no-op when ``observer`` is None, so call sites don't need their
    own branch. Not re-entrancy-safe across threads (the ambient
    observer is process-global by design).
    """

    __slots__ = ("_observer", "_previous", "_previous_pid")

    def __init__(self, observer: Optional[Any]) -> None:
        self._observer = observer
        self._previous: Optional[Any] = None
        self._previous_pid: int = -1

    def __enter__(self) -> Optional[Any]:
        if self._observer is not None:
            self._previous = _current
            self._previous_pid = _owner_pid
            install(self._observer)
        return self._observer

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if self._observer is not None:
            global _current, _owner_pid
            _current = self._previous
            _owner_pid = self._previous_pid
        return False


# ----------------------------------------------------------------------
# One-branch guarded helpers (the only obs API hot paths should touch)
# ----------------------------------------------------------------------


def maybe_span(name: str, metric: Optional[str] = None, **attrs: Any) -> Any:
    """A span context under the ambient observer, or the shared no-op."""
    if _current is None:
        return NULL_SPAN
    if _owner_pid != os.getpid():
        return NULL_SPAN
    return _current.span(name, metric=metric, **attrs)


def count(name: str, n: int = 1) -> None:
    """Increment an ambient counter (no-op when disabled)."""
    if _current is None:
        return
    if _owner_pid != os.getpid():
        return
    _current.metrics.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    if _current is None:
        return
    if _owner_pid != os.getpid():
        return
    _current.metrics.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (merges across processes keep the max; no-op when disabled)."""
    if _current is None:
        return
    if _owner_pid != os.getpid():
        return
    _current.metrics.set_gauge(name, value)


def profiled(key: str) -> Any:
    """A cProfile context under the ambient observer (no-op unless
    the observer was built with ``profile=True``)."""
    if _current is None:
        return NULL_SPAN
    if _owner_pid != os.getpid():
        return NULL_SPAN
    return _current.profiled(key)
