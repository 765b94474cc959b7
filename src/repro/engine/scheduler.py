"""Hardened process-pool scheduling: retry, timeouts, quarantine.

The engine parallelizes *embarrassingly parallel* units — one
``map_trace`` per session trace, one application per study task — with
a :class:`~concurrent.futures.ProcessPoolExecutor`. This module is the
layer that keeps those units alive under failure:

- **One pool per process** — the first pooled round starts a pool and
  every later round reuses it while its key holds: the worker count,
  the pid, and the analysis and family registries as its workers were
  forked with (see :func:`_make_pool`). A broken or timed-out pool is
  discarded, and :func:`close_pool` (run at interpreter exit) shuts it
  down.
- **Serial fallback** — everything degrades to the serial path whenever
  a pool is not worth it (``workers=1``, a single item) or not
  available (restricted environments), so callers never need a
  fallback of their own and results are identical either way.
- **Per-task retry** — transient failures (IO errors, injected crashes,
  timeouts) are retried with exponential backoff and *deterministic*
  jitter, up to :attr:`RetryPolicy.max_attempts`.
- **Per-call timeouts** — :func:`run_tasks` bounds each task's result
  wait; a hung worker trips the timeout, the pool is torn down and its
  workers terminated, and the unfinished work re-runs serially.
- **Pool-break recovery** — a worker that dies without raising (OOM
  kill, hard crash) breaks the whole pool; completed results are kept
  and only the unfinished tasks re-execute serially.
- **Quarantine** — tasks that fail *deterministically* (a typed trace
  damage error, or a transient error that survived every retry) can be
  quarantined — reported as a failed :class:`TaskOutcome` instead of
  aborting the batch — when the caller opts in.

Fault injection (:mod:`repro.faults`) plugs in at the task wrapper:
the ambient plan is shipped inside each task payload so worker
processes make the same deterministic decisions as the parent. So is
the dispatcher's working directory, so a long-lived worker resolves
relative paths as a worker forked for the call would. Observation
(:mod:`repro.obs`) rides the same way: when the dispatcher observes, a
pooled task runs under a fresh worker :class:`~repro.obs.Observer` and
its snapshot is absorbed under the span that was current when
:func:`run_tasks` was called, so callers see only their tasks' values.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.errors import AnalysisError
from repro.faults import runtime as faults_runtime
from repro.faults.injector import TransientFault
from repro.faults.plan import hash_unit
from repro.obs import runtime as obs_runtime
from repro.obs.observer import Observer

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob.

    ``None`` or ``0`` means "one per CPU"; anything below zero is a
    configuration error.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise AnalysisError(f"workers must be >= 0, got {workers}")
    return workers


def fans_out(workers: Optional[int], items: int) -> bool:
    """True when :func:`run_tasks` sends a batch of ``items`` to the pool."""
    return min(resolve_workers(workers), items) > 1


@dataclass(frozen=True)
class RetryPolicy:
    """How transient task failures are retried.

    Backoff for retry round ``k`` (1-based) is
    ``min(base_delay_s * backoff_factor**(k-1), max_delay_s)`` scaled
    by ``1 + jitter * u`` where ``u`` is a deterministic hash draw —
    re-running the same batch sleeps the same amounts.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    backoff_factor: float = 2.0
    jitter: float = 0.5
    retryable: Tuple[type, ...] = (OSError, TransientFault, TimeoutError)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def delay_for(self, round_no: int, token: Any = 0) -> float:
        if round_no <= 0 or self.base_delay_s <= 0:
            return 0.0
        delay = min(
            self.base_delay_s * self.backoff_factor ** (round_no - 1),
            self.max_delay_s,
        )
        return delay * (1.0 + self.jitter * hash_unit(0, "retry", token, round_no))


#: parallel_map semantics: no retries, errors propagate on first failure.
_NO_RETRY = RetryPolicy(max_attempts=1, base_delay_s=0.0)


@dataclass
class TaskOutcome:
    """The terminal state of one task in a :func:`run_tasks` batch."""

    index: int
    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 0
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.quarantined


def _call_one(
    spec: Tuple[
        Callable, Any, int, int, Optional[dict], Optional[str], Optional[bool]
    ]
) -> Tuple[Any, Optional[dict]]:
    """Execute one task under its fault-injection and observation context.

    Module-level so it pickles into workers; the plan dict rides along
    in the spec and :class:`~repro.faults.runtime.task_scope` rebuilds
    the injector in a fresh worker process. A pooled task also carries
    its dispatcher's working directory, which the worker enters first
    without reading its own: that one may have been deleted since.

    Returns ``(value, snapshot)``. ``profile`` is the dispatching
    observer's profile flag, None when the dispatcher does not observe;
    a process with no observer of its own then runs the task's fault
    check and ``func`` under a fresh one and returns its snapshot, which
    is None otherwise.
    """
    func, item, index, attempt, plan_dict, cwd, profile = spec
    if cwd is not None:
        os.chdir(cwd)
    worker = None
    if profile is not None and obs_runtime.current() is None:
        worker = Observer(profile=profile)
    with faults_runtime.task_scope(plan_dict, index=index, attempt=attempt):
        with obs_runtime.installed(worker):
            faults_runtime.check("engine.task", key=index)
            value = func(item)
    return value, None if worker is None else worker.snapshot()


def _settle_failure(
    index: int,
    error: BaseException,
    attempts: Sequence[int],
    outcomes: List[Optional[TaskOutcome]],
    still_pending: List[int],
    retry: RetryPolicy,
    quarantine_types: Tuple[type, ...],
) -> None:
    """Route one task failure: quarantine, retry, or re-raise."""
    if quarantine_types and isinstance(error, quarantine_types):
        # Deterministic damage: retrying cannot help; quarantine now.
        outcomes[index] = TaskOutcome(
            index, error=error, attempts=attempts[index], quarantined=True
        )
        obs_runtime.count("engine.quarantined")
        return
    if retry.is_retryable(error):
        if attempts[index] < retry.max_attempts:
            obs_runtime.count("engine.retries")
            still_pending.append(index)
            return
        if quarantine_types:
            # Retries exhausted but the caller asked never to abort.
            outcomes[index] = TaskOutcome(
                index, error=error, attempts=attempts[index],
                quarantined=True,
            )
            obs_runtime.count("engine.quarantined")
            return
    raise error


def _serial_round(
    func: Callable[[T], R],
    items: Sequence[T],
    pending: Sequence[int],
    attempts: List[int],
    outcomes: List[Optional[TaskOutcome]],
    retry: RetryPolicy,
    quarantine_types: Tuple[type, ...],
    plan_dict: Optional[dict],
) -> List[int]:
    still_pending: List[int] = []
    for index in pending:
        attempt = attempts[index]
        attempts[index] += 1
        try:
            # In the dispatching process: spans land on its own observer.
            value, _snapshot = _call_one(
                (func, items[index], index, attempt, plan_dict, None, None)
            )
        except Exception as error:
            _settle_failure(
                index, error, attempts, outcomes, still_pending,
                retry, quarantine_types,
            )
        else:
            outcomes[index] = TaskOutcome(
                index, value=value, attempts=attempts[index]
            )
    return still_pending


def _pool_round(
    func: Callable[[T], R],
    items: Sequence[T],
    pending: Sequence[int],
    attempts: List[int],
    outcomes: List[Optional[TaskOutcome]],
    workers: int,
    timeout: Optional[float],
    retry: RetryPolicy,
    quarantine_types: Tuple[type, ...],
    plan_dict: Optional[dict],
    observer: Optional[Observer],
    parent_id: Optional[str],
) -> Tuple[List[int], bool]:
    """One pooled attempt over ``pending``, on this process's pool.

    Returns ``(still_pending, pool_usable)``; a broken or timed-out
    pool is discarded and flips ``pool_usable`` off so the caller
    finishes serially. Each finished task's snapshot is absorbed into
    ``observer`` under ``parent_id``.
    """
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    pool = _make_pool(workers)
    if pool is None:
        obs_runtime.count("engine.pool_fallbacks")
        return list(pending), False
    try:
        faults_runtime.check("engine.pool")
    except BrokenProcessPool:
        close_pool()
        obs_runtime.count("engine.pool_breaks")
        return list(pending), False

    def settle(index: int, result: Tuple[Any, Optional[dict]]) -> None:
        value, snapshot = result
        if observer is not None:
            observer.absorb(snapshot, parent_id=parent_id)
        outcomes[index] = TaskOutcome(
            index, value=value, attempts=attempts[index]
        )

    still_pending: List[int] = []
    broke = False
    try:
        cwd: Optional[str] = os.getcwd()
    except OSError:  # the directory is gone; workers keep their own
        cwd = None
    profile = None if observer is None else observer.profiler is not None
    obs_runtime.set_gauge("engine.workers", min(workers, len(pending)))
    with obs_runtime.maybe_span(
        "engine.parallel_map", items=len(pending), workers=workers
    ):
        futures: List[Tuple[int, Any]] = []
        try:
            for index in pending:
                attempt = attempts[index]
                attempts[index] += 1
                futures.append(
                    (
                        index,
                        pool.submit(
                            _call_one,
                            (
                                func, items[index], index, attempt,
                                plan_dict, cwd, profile,
                            ),
                        ),
                    )
                )
        except BrokenProcessPool:
            broke = True
            submitted = {index for index, _ in futures}
            for index in pending:
                if index not in submitted:
                    still_pending.append(index)
        try:
            for index, future in futures:
                if broke:
                    # Harvest whatever finished before the break; the
                    # rest re-runs serially (attempt charge reverted
                    # for tasks that never started).
                    if future.done() and not future.cancelled():
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            still_pending.append(index)
                        except Exception as error:
                            _settle_failure(
                                index, error, attempts, outcomes,
                                still_pending, retry, quarantine_types,
                            )
                        else:
                            settle(index, result)
                    else:
                        attempts[index] -= 1
                        still_pending.append(index)
                    continue
                try:
                    result = future.result(timeout=timeout)
                except (FuturesTimeout, TimeoutError):
                    # A hung worker: count it, abandon the pool, and
                    # let every unfinished task re-run serially.
                    obs_runtime.count("engine.timeouts")
                    obs_runtime.count("engine.retries")
                    broke = True
                    still_pending.append(index)
                except BrokenProcessPool:
                    obs_runtime.count("engine.pool_breaks")
                    obs_runtime.count("engine.retries")
                    broke = True
                    still_pending.append(index)
                except Exception as error:
                    _settle_failure(
                        index, error, attempts, outcomes, still_pending,
                        retry, quarantine_types,
                    )
                else:
                    settle(index, result)
        finally:
            if broke:
                _forget_pool()
                # Its workers are terminated, not waited for: a hung one
                # would run on, and interpreter exit waits for them all.
                processes = list((getattr(pool, "_processes", None) or {}).values())
                pool.shutdown(wait=False, cancel_futures=True)
                for process in processes:
                    process.terminate()
            else:
                # The pool outlives the round, so a task error that
                # propagates leaves no work of this round running in it.
                for _index, future in futures:
                    future.cancel()
                wait([future for _index, future in futures])
    return still_pending, not broke


def run_tasks(
    func: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = 1,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    quarantine_types: Tuple[type, ...] = (),
) -> List[TaskOutcome]:
    """Run ``func`` over ``items`` with retries, timeouts, and quarantine.

    Args:
        func: a module-level picklable callable.
        workers: process fan-out (``1`` serial, ``0``/``None`` per-CPU).
        timeout: per-task result wait in seconds (pooled path only; the
            serial path cannot interrupt a running call). A timeout
            tears the pool down and re-runs unfinished tasks serially.
        retry: transient-failure policy; defaults to 3 attempts with
            exponential backoff and deterministic jitter.
        quarantine_types: exception types that mark a task
            *deterministically* failed — its outcome is returned with
            ``quarantined=True`` instead of raising. When non-empty,
            exhausted retries also quarantine rather than abort.

    Under an ambient observer, a pooled task's spans, metrics and
    profile are merged into it, its root spans under the calling
    thread's current span.

    Returns:
        One :class:`TaskOutcome` per item, in item order; ``value`` is
        what ``func`` returned. Errors that are neither retryable nor
        quarantinable propagate.
    """
    items = list(items)
    retry = retry or RetryPolicy()
    outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
    attempts = [0] * len(items)
    pending = list(range(len(items)))
    plan_dict = faults_runtime.plan_snapshot()
    observer = obs_runtime.current()
    parent_id = observer.current_span_id() if observer is not None else None
    pool_usable = fans_out(workers, len(items))
    round_no = 0
    while pending:
        if round_no > 0:
            delay = retry.delay_for(round_no, token=tuple(pending))
            if delay > 0:
                time.sleep(delay)
        if pool_usable and len(pending) > 1:
            pending, pool_usable = _pool_round(
                func, items, pending, attempts, outcomes,
                resolve_workers(workers), timeout, retry,
                quarantine_types, plan_dict, observer, parent_id,
            )
        else:
            pending = _serial_round(
                func, items, pending, attempts, outcomes, retry,
                quarantine_types, plan_dict,
            )
        round_no += 1
    return outcomes  # type: ignore[return-value]


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = 1,
) -> List[R]:
    """``[func(x) for x in items]``, fanned out over processes.

    ``func`` and every item must be picklable (``func`` a module-level
    callable or a :func:`functools.partial` of one). Result order
    matches item order. Exceptions raised by ``func`` propagate; only
    *pool infrastructure* failures (no process support, a worker dying
    without raising, a per-task timeout) trigger serial re-execution of
    the unfinished work. Tasks are submitted one by one, so partial
    completion survives a pool break.
    """
    outcomes = run_tasks(func, items, workers=workers, retry=_NO_RETRY)
    return [outcome.value for outcome in outcomes]


#: This process's pool, the key it was started under, and the registry
#: objects that key's identities stand for (held so that no id in the
#: key is reused while the pool lives).
_pool: Optional[ProcessPoolExecutor] = None
_pool_key: Tuple[Any, ...] = ()
_pool_pins: Tuple[Any, ...] = ()
#: Pid that registered :func:`close_pool` to run at exit.
_exit_hook_pid = -1


def _registry_state() -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
    """The analysis and family registries as a worker forked now sees them.

    Returns ``(fingerprint, objects)``. The fingerprint pairs each
    registered name with the identity of its analysis or family, and
    each attribute set on an analysis instance (where a patched
    ``map_context`` lives) with the identity of its value.
    """
    from repro.core.analyses import REGISTRY
    from repro.core.family import FAMILIES

    named: List[Tuple[str, Any]] = []
    for name, analysis in REGISTRY.items():
        named.append((name, analysis))
        named.extend(
            (f"{name}.{attr}", value)
            for attr, value in getattr(analysis, "__dict__", {}).items()
        )
    named.extend((f"family:{name}", family) for name, family in FAMILIES.items())
    return (
        tuple((label, id(value)) for label, value in named),
        tuple(value for _label, value in named),
    )


def _make_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """This process's pool of ``workers``, started on first use.

    The live pool is reused while its key holds and it is not broken:
    the worker count, this process's pid (a forked child never uses the
    executor it inherited) and :func:`_registry_state`, since a forked
    worker runs what the parent held at the fork. Otherwise the old
    pool is shut down and a new one started. None when the platform
    can't provide a pool.
    """
    global _pool, _pool_key, _pool_pins, _exit_hook_pid
    fingerprint, pins = _registry_state()
    key = (workers, os.getpid(), fingerprint)
    if _pool is not None and _pool_key == key:
        # A worker that died while the pool was idle leaves it broken
        # (the executor's own flag; a submit would raise): replace it
        # rather than run the whole batch serially.
        if not getattr(_pool, "_broken", False):
            return _pool
        obs_runtime.count("engine.pool_breaks")
    close_pool()
    try:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import util

        pool = ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError, PermissionError):
        return None
    if _exit_hook_pid != os.getpid():
        # multiprocessing runs its finalizers at interpreter exit, and in
        # a multiprocessing child before that child joins its own
        # children, which idle pool workers would never let finish.
        # Priority 20 runs ahead of the pool queues' finalizers (10).
        util.Finalize(None, close_pool, exitpriority=20)
        _exit_hook_pid = os.getpid()
    obs_runtime.count("engine.pool.starts")
    _pool, _pool_key, _pool_pins = pool, key, pins
    return pool


def _forget_pool() -> Optional[ProcessPoolExecutor]:
    """Drop this process's pool; return it only if this process owns it."""
    global _pool, _pool_key, _pool_pins
    pool, key = _pool, _pool_key
    _pool, _pool_key, _pool_pins = None, (), ()
    if pool is None or key[1] != os.getpid():
        return None
    return pool


def close_pool() -> None:
    """Shut this process's worker pool down and wait for its workers.

    The next pooled call starts a new pool. Runs at interpreter exit;
    in a forked child it only forgets the pool inherited from the
    parent, which that child must not shut down.
    """
    pool = _forget_pool()
    if pool is not None:
        pool.shutdown(wait=True)
