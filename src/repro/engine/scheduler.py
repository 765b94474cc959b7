"""Hardened process-pool scheduling: retry, timeouts, quarantine.

The engine parallelizes *embarrassingly parallel* units — one
``map_trace`` per session trace, one application per study task — with
a :class:`~concurrent.futures.ProcessPoolExecutor`. This module is the
layer that keeps those units alive under failure:

- **Serial fallback** — everything degrades to the serial path whenever
  a pool is not worth it (``workers=1``, a single item) or not
  available (restricted environments), so callers never need a
  fallback of their own and results are identical either way.
- **Per-task retry** — transient failures (IO errors, injected crashes,
  timeouts) are retried with exponential backoff and *deterministic*
  jitter, up to :attr:`RetryPolicy.max_attempts`.
- **Per-call timeouts** — :func:`run_tasks` bounds each task's result
  wait; a hung worker trips the timeout, the pool is torn down, and the
  unfinished work re-runs serially.
- **Pool-break recovery** — a worker that dies without raising (OOM
  kill, hard crash) breaks the whole pool; completed results are kept
  and only the unfinished tasks re-execute serially.
- **Quarantine** — tasks that fail *deterministically* (a typed trace
  damage error, or a transient error that survived every retry) can be
  quarantined — reported as a failed :class:`TaskOutcome` instead of
  aborting the batch — when the caller opts in.

Fault injection (:mod:`repro.faults`) plugs in at the task wrapper:
the ambient plan is shipped inside each task payload so worker
processes make the same deterministic decisions as the parent.
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


def _call_one(spec: Tuple[Callable, Any, int, int, Optional[dict]]) -> Any:
    """Execute one task under its fault-injection context.

    Module-level so it pickles into workers; the plan dict rides along
    in the spec and :class:`~repro.faults.runtime.task_scope` rebuilds
    the injector in a fresh worker process.
    """
    func, item, index, attempt, plan_dict = spec
    with faults_runtime.task_scope(plan_dict, index=index, attempt=attempt):
        faults_runtime.check("engine.task", key=index)
        return func(item)


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
            value = _call_one((func, items[index], index, attempt, plan_dict))
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
) -> Tuple[List[int], bool]:
    """One pooled attempt over ``pending``.

    Returns ``(still_pending, pool_usable)``; a broken or timed-out
    pool flips ``pool_usable`` off so the caller finishes serially.
    """
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    pool = _make_pool(min(workers, len(pending)))
    if pool is None:
        obs_runtime.count("engine.pool_fallbacks")
        return list(pending), False
    try:
        faults_runtime.check("engine.pool")
    except BrokenProcessPool:
        pool.shutdown(wait=True)
        obs_runtime.count("engine.pool_breaks")
        return list(pending), False

    still_pending: List[int] = []
    broke = False
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
                            (func, items[index], index, attempt, plan_dict),
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
                            value = future.result()
                        except BrokenProcessPool:
                            still_pending.append(index)
                        except Exception as error:
                            _settle_failure(
                                index, error, attempts, outcomes,
                                still_pending, retry, quarantine_types,
                            )
                        else:
                            outcomes[index] = TaskOutcome(
                                index, value=value, attempts=attempts[index]
                            )
                    else:
                        attempts[index] -= 1
                        still_pending.append(index)
                    continue
                try:
                    value = future.result(timeout=timeout)
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
                    outcomes[index] = TaskOutcome(
                        index, value=value, attempts=attempts[index]
                    )
        finally:
            if broke:
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
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

    Returns:
        One :class:`TaskOutcome` per item, in item order. Errors that
        are neither retryable nor quarantinable propagate.
    """
    items = list(items)
    retry = retry or RetryPolicy()
    outcomes: List[Optional[TaskOutcome]] = [None] * len(items)
    attempts = [0] * len(items)
    pending = list(range(len(items)))
    plan_dict = faults_runtime.plan_snapshot()
    pool_usable = (
        min(resolve_workers(workers), len(items)) > 1 and len(items) > 1
    )
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
                quarantine_types, plan_dict,
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
    chunksize: int = 1,
) -> List[R]:
    """``[func(x) for x in items]``, fanned out over processes.

    ``func`` and every item must be picklable (``func`` a module-level
    callable or a :func:`functools.partial` of one). Result order
    matches item order. Exceptions raised by ``func`` propagate; only
    *pool infrastructure* failures (no process support, a worker dying
    without raising, a per-task timeout) trigger serial re-execution of
    the unfinished work. ``chunksize`` is accepted for backward
    compatibility and ignored (tasks are submitted individually so
    partial completion survives a pool break).
    """
    del chunksize
    outcomes = run_tasks(func, items, workers=workers, retry=_NO_RETRY)
    return [outcome.value for outcome in outcomes]


def _make_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """A process pool, or None when the platform can't provide one."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError, PermissionError):
        return None
