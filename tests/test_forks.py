"""forks.shares: one task in the process, one forked child per other task.

Each case checks the process hygiene the reader and the bootstrap rely on:
afterwards the open file descriptors and the CPU mask are those from
before, and no child is left unreaped.  share_count is the one rule for
how many shares a job gets.
"""

import os
import re
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
def test_shares_leave_cpu_placement_to_the_kernel(monkeypatch):
    def pin(pid, cpus):
        raise AssertionError("pinned a process to CPUs")

    monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
    with _leaves_nothing_behind():
        assert forks.shares([lambda k=k: k for k in range(3)], _share) == [0, 1, 2]


def test_a_share_per_floor_up_to_the_usable_cpus(monkeypatch):
    def uncounted():
        raise AssertionError("usable_cpus() asked below two floors")

    monkeypatch.setattr(forks, "usable_cpus", uncounted)
    assert [forks.share_count(work, 10) for work in (0, 1, 10, 19)] == [1, 1, 1, 1]
    monkeypatch.setattr(forks, "usable_cpus", lambda: 2)
    assert [forks.share_count(work, 10) for work in (20, 29, 30, 1000)] == [2, 2, 2, 2]
    monkeypatch.setattr(forks, "usable_cpus", lambda: 3)
    assert [forks.share_count(work, 10) for work in (20, 30, 39, 1000)] == [2, 3, 3, 3]
    monkeypatch.setattr(forks, "usable_cpus", lambda: 1)
    assert forks.share_count(1000, 10) == 1


@needs_proc
def test_the_earliest_failing_task_raises():
    tasks = [lambda: 0, lambda: _fail(1), lambda: _fail(2)]
    with _leaves_nothing_behind(), pytest.raises(_Failed, match="^task 1 failed$"):
        forks.shares(tasks, _share)


@needs_proc
def test_a_result_that_does_not_pickle_is_an_error(capfd):
    # a lambda, as a sink's held() would return if it handed back a
    # ListSink's convert; the child says why on stderr
    started = time.monotonic()
    with _leaves_nothing_behind(), \
            pytest.raises(ChildProcessError, match="^share 2 ended without a result$"):
        forks.shares([lambda: 0, lambda: 1, lambda: [b"x" * (1 << 18), lambda block: block]], _share)
    assert time.monotonic() - started < 60
    assert re.fullmatch(r"famespan: a forked child's result did not pickle: "
                        r"\w+Error\(.Can't pickle .*<lambda>.*\)\n", capfd.readouterr().err)


def _affinity() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.parametrize("cpu_max, cap", [("max 100000\n", None), (None, None), ("100000 100000\n", 1),
                                          ("150000 100000\n", 2), ("25000 100000\n", 1)],
                         ids=["max", "missing", "one", "one-and-a-half", "a-quarter"])
def test_usable_cpus_keep_to_the_cgroup_quota(tmp_path, monkeypatch, cpu_max, cap):
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max, encoding="ascii")
    monkeypatch.setattr(forks, "_CPU_MAX", str(path))
    assert forks.usable_cpus() == min(_affinity(), cap or _affinity())


def test_a_quota_of_one_cpu_forks_nothing(tmp_path, monkeypatch):
    from famespan import corpus_io
    from famespan.corpus_io import ListSink, read_documents

    def fork():
        raise AssertionError("forked under a one-CPU quota")

    quota, corpus = tmp_path / "cpu.max", tmp_path / "corpus.jsonl"
    quota.write_text("100000 100000\n", encoding="ascii")
    corpus.write_text("".join(f'{{"id": "d{i}", "date": "2005-03-01", "mentions": [["Ada", 1]]}}\n'
                              for i in range(200)), encoding="utf-8")
    monkeypatch.setattr(forks, "_CPU_MAX", str(quota))
    monkeypatch.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(os, "fork", fork)
    sink = ListSink(lambda block: block.ids)
    read_documents(corpus, "pretagged").read(sink)
    assert len(sink.items) == 200
