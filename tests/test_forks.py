"""forks.shares: one task in the process, one forked child per other task.

Each case checks the process hygiene the reader and the bootstrap rely on:
afterwards the open file descriptors and the CPU mask are those from
before, and no child is left unreaped.
"""

import os
import time
from contextlib import contextmanager

import pytest

from famespan import forks

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


def _cpu_mask() -> set | None:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@contextmanager
def _leaves_nothing_behind():
    fds, cpus = sorted(os.listdir("/proc/self/fd")), _cpu_mask()
    yield
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert _cpu_mask() == cpus
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def _share(k: int) -> str:
    return f"share {k}"


class _Failed(Exception):
    pass


def _fail(k: int):
    raise _Failed(f"task {k} failed")


@needs_proc
def test_one_task_runs_in_the_process(monkeypatch):
    def fork():
        raise AssertionError("forked for a single task")

    monkeypatch.setattr(os, "fork", fork)
    with _leaves_nothing_behind():
        assert forks.shares([os.getpid], _share) == [os.getpid()]


@needs_proc
def test_results_come_back_in_task_order():
    parent = os.getpid()
    with _leaves_nothing_behind():
        results = forks.shares([lambda k=k: (k, os.getpid()) for k in range(3)], _share)
    assert [k for k, _ in results] == [0, 1, 2]
    assert results[0][1] == parent and len({parent, results[1][1], results[2][1]}) == 3


@needs_proc
def test_the_earliest_failing_task_raises():
    tasks = [lambda: 0, lambda: _fail(1), lambda: _fail(2)]
    with _leaves_nothing_behind(), pytest.raises(_Failed, match="^task 1 failed$"):
        forks.shares(tasks, _share)


@needs_proc
def test_a_result_that_does_not_pickle_is_an_error():
    # a lambda, as a sink's held() would return if it handed back a
    # ListSink's convert
    started = time.monotonic()
    with _leaves_nothing_behind(), \
            pytest.raises(ChildProcessError, match="^share 2 ended without a result$"):
        forks.shares([lambda: 0, lambda: 1, lambda: [b"x" * (1 << 18), lambda block: block]], _share)
    assert time.monotonic() - started < 60
