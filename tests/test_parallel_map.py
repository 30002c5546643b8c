"""Tests for the process-parallel fan-out helper (repro.bench.parallel).

``os.cpu_count()`` may be 1 in CI, so tests that exercise the real
pool force ``max_workers=2`` explicitly; the env-knob tests cover the
auto-sizing path.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.parallel import parallel_map, parallel_starmap, parallel_workers


# Pool targets must be picklable → module-level functions.
def _square(x):
    return x * x


def _affine(x, y):
    return 10 * x + y


def _boom(x):
    if x == 3:
        raise ValueError("worker failure")
    return -x


def _logged_boom(args):
    """Log each call to a file (workers share no memory), then fail on
    the odd items."""
    x, log = args
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    if x % 2:
        raise ValueError(f"task {x} failed")
    return x


class _Unpicklable(Exception):
    """An error carrying a lock, so it cannot cross a process boundary."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def _raise_unpicklable(x):
    if x == 2:
        raise _Unpicklable("stuck in the worker")
    return x


def _slow_then_value(x):
    if x == 1:
        import time

        time.sleep(5.0)
    return x + 100


class TestWorkerCount:
    def test_env_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert parallel_workers() == 1

    def test_env_count_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "6")
        assert parallel_workers() == 6

    def test_env_garbage_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "many")
        assert parallel_workers() >= 1

    def test_explicit_limit_caps_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert parallel_workers(limit=1) == 1


class TestParallelMap:
    # ``max_workers`` is a cap, not a floor, and CI boxes may report a
    # single CPU — so tests that must exercise the real pool force the
    # worker count through the environment.
    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")

    def test_results_in_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, max_workers=2) == [
            x * x for x in items
        ]

    def test_serial_and_parallel_agree(self, monkeypatch):
        items = list(range(12))
        parallel = parallel_map(_square, items, max_workers=2)
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        serial = parallel_map(_square, items)
        assert parallel == serial

    def test_empty_and_tiny_inputs(self):
        assert parallel_map(_square, [], max_workers=2) == []
        # Below min_items the pool is skipped entirely.
        assert parallel_map(_square, [7], max_workers=2) == [49]

    def test_worker_exception_reaches_caller(self):
        # A failed task's own exception comes back as its outcome, so
        # the caller sees the original exception, not a pool artifact.
        with pytest.raises(ValueError, match="worker failure"):
            parallel_map(_boom, [1, 2, 3, 4], max_workers=2)

    def test_failed_task_runs_once(self, tmp_path):
        # The worker's exception is re-raised, not recomputed: every
        # item, failing or not, runs exactly once, and the first
        # failure in input order is the one raised.
        log = str(tmp_path / "calls.log")
        items = [(x, log) for x in range(6)]
        with pytest.raises(ValueError, match="task 1 failed"):
            parallel_map(_logged_boom, items, max_workers=2)
        with open(log) as fh:
            calls = sorted(int(line) for line in fh)
        assert calls == list(range(6))

    def test_unpicklable_exception_still_surfaces(self):
        # The error cannot travel back from the worker, so the task is
        # recomputed here and raises its genuine exception.
        with pytest.raises(_Unpicklable, match="stuck in the worker"):
            parallel_map(_raise_unpicklable, [1, 2, 3], max_workers=2)

    def test_unpicklable_fn_degrades_to_serial(self):
        results = parallel_map(lambda x: x + 1, [1, 2, 3, 4], max_workers=2)
        assert results == [2, 3, 4, 5]

    def test_timeout_recovers_serially(self):
        # Task 1 sleeps past the per-task timeout; the pool is
        # abandoned and every unfinished item recomputed serially.
        results = parallel_map(
            _slow_then_value,
            [0, 2, 4],
            max_workers=2,
            task_timeout=30.0,
        )
        assert results == [100, 102, 104]


class TestParallelStarmap:
    @pytest.fixture(autouse=True)
    def _two_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")

    def test_argument_unpacking_and_order(self):
        pairs = [(i, i + 1) for i in range(8)]
        assert parallel_starmap(_affine, pairs, max_workers=2) == [
            10 * x + y for x, y in pairs
        ]

    def test_serial_env_identical(self, monkeypatch):
        pairs = [(3, 4), (5, 6)]
        fanned = parallel_starmap(_affine, pairs, max_workers=2)
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert parallel_starmap(_affine, pairs) == fanned
