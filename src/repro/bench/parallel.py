"""Process-parallel map with deterministic ordering and serial fallback.

``parallel_map`` is the repo's one fan-out primitive: the bench
harness uses it to compile/measure kernels concurrently, rule
synthesis uses it to verify candidate rules concurrently, and
``compile_many`` fans one whole-kernel compile per task through
``parallel_starmap``.  The contract is strict so callers never have
to reason about parallelism:

- **Deterministic ordering**: results always come back in input order,
  regardless of completion order.
- **Graceful degradation**: if process pools are unavailable (no
  ``fork``/semaphores in a sandbox), a task's payload or result
  doesn't pickle, or a worker dies, the affected tasks are recomputed
  serially in this process — the answer is identical, only slower.
  ``REPRO_PARALLEL=0`` forces the serial path outright.
- **Task errors run once**: an exception the task itself raises in a
  worker comes back as the task's outcome and is re-raised in the
  caller (first failing task in input order), without recomputing
  the task.
- **Per-task timeouts**: a hung worker only costs ``task_timeout``
  seconds; its task is recomputed serially and the pool is abandoned
  without waiting for stragglers.

Workers disable nested parallelism (a fan-out inside a fan-out would
oversubscribe the machine quadratically).
"""

from __future__ import annotations

import concurrent.futures
import os
import traceback
from typing import Callable, Iterable, Sequence

_FALSY = ("0", "false", "no", "off")
_AUTO = ("", "1", "true", "yes", "on", "auto")


def parallel_workers(limit: int | None = None) -> int:
    """Worker count the environment allows (1 means run serially).

    ``REPRO_PARALLEL`` wins: ``0`` forces serial, an integer sets the
    count, anything truthy/unset means one worker per CPU.  ``limit``
    (e.g. a ``jobs=`` argument) caps the result.
    """
    raw = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if raw in _FALSY:
        return 1
    if raw in _AUTO:
        workers = os.cpu_count() or 1
    else:
        try:
            workers = int(raw)
        except ValueError:
            workers = os.cpu_count() or 1
    if limit is not None:
        workers = min(workers, limit)
    return max(1, workers)


def _disable_nested_parallelism() -> None:  # pragma: no cover - in worker
    os.environ["REPRO_PARALLEL"] = "0"


def parallel_map(
    fn: Callable,
    items: Iterable,
    max_workers: int | None = None,
    task_timeout: float | None = None,
    min_items: int = 2,
) -> list:
    """``[fn(item) for item in items]``, fanned out across processes.

    ``fn`` and every item must be picklable for the parallel path; if
    they are not, or the pool cannot be created at all, the result is
    still produced — serially.  ``max_workers`` caps the pool size
    (``None`` = environment default); with fewer than ``min_items``
    tasks the pool is skipped as pure overhead.
    """
    items = list(items)
    workers = parallel_workers(max_workers)
    if workers <= 1 or len(items) < min_items:
        return [fn(item) for item in items]

    try:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(items)),
            initializer=_disable_nested_parallelism,
        )
    except Exception:
        return [fn(item) for item in items]

    abandoned = False
    results = []
    try:
        try:
            guarded = _Guarded(fn)
            futures = [executor.submit(guarded, item) for item in items]
        except Exception:
            abandoned = True
            return [fn(item) for item in items]
        for item, future in zip(items, futures):
            try:
                outcome = future.result(timeout=task_timeout)
            except concurrent.futures.TimeoutError:
                # Hung worker: recompute here, stop waiting on the pool.
                abandoned = True
                results.append(fn(item))
                continue
            except Exception:
                # Worker crash, or a payload or result that does not
                # pickle: the serial recomputation either produces the
                # value or raises the task's genuine error here.
                results.append(fn(item))
                continue
            if isinstance(outcome, _TaskError):
                raise outcome.error from _RemoteTraceback(outcome.text)
            results.append(outcome)
        return results
    finally:
        if abandoned:
            executor.shutdown(wait=False, cancel_futures=True)
        else:
            executor.shutdown()


def parallel_starmap(
    fn: Callable,
    argtuples: Iterable[Sequence],
    max_workers: int | None = None,
    task_timeout: float | None = None,
    min_items: int = 2,
) -> list:
    """``parallel_map`` over argument tuples (``fn(*args)`` per task)."""
    return parallel_map(
        _StarCall(fn),
        [tuple(args) for args in argtuples],
        max_workers=max_workers,
        task_timeout=task_timeout,
        min_items=min_items,
    )


class _StarCall:
    """Picklable ``fn(*args)`` adapter (lambdas don't cross processes)."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, args):
        return self._fn(*args)


class _TaskError:
    """A task's own exception, returned from a worker as its outcome."""

    __slots__ = ("error", "text")

    def __init__(self, error: Exception, text: str):
        self.error = error
        self.text = text


class _RemoteTraceback(Exception):
    """The worker-side traceback, chained as a re-raised error's cause."""

    def __str__(self):
        return self.args[0]


class _Guarded:
    """Picklable ``fn(item)`` that returns the task's exception as a value.

    A worker exception would otherwise reach the caller only as a
    failed future, indistinguishable from a pool failure.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable):
        self._fn = fn

    def __call__(self, item):
        try:
            return self._fn(item)
        except Exception as exc:
            return _TaskError(exc, traceback.format_exc())
