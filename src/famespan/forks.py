"""Shares of one job run in forked children, each result pickled to a pipe.

The reader (corpus_io.DocumentReader.read) and the bootstrap
(stats._shared_replicates) ask share_count() how many shares a job gets
and hand shares() one task per share.  The process runs the first task
while a forked child per other task runs that one, pickles (None, its
result) or (its exception, None) to a pipe, and ends in os._exit, so it
never returns into the caller's frames or runs its exit handlers.  The
parent takes the results in task order, so the earliest failing task's
error is the one raised, and the caller merges the shares in that order.
Nothing forks where os.fork is missing or another Python thread runs,
whose locks a child would inherit in whatever state they are.  Which CPU
each process runs on is left to the kernel.  pickle and signal are
imported on use, so a launch that forks nothing does not load them.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Callable, Sequence

_CPU_MAX = "/sys/fs/cgroup/cpu.max"  # a container's cgroup v2 quota: "<quota> <period>" or "max ..."


def usable_cpus() -> int:
    """How many processes may share one job: the CPUs this process may run
    on, within os.process_cpu_count() (Python 3.13+) and the cgroup's CPU
    quota rounded up; 1 where os.fork is missing or another thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        cpus = min(cpus, os.process_cpu_count() or cpus)
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        return min(cpus, -(-int(quota) // int(period)))
    except (OSError, ValueError):  # no quota file, or "max"
        return cpus


def share_count(work: int, floor: int) -> int:
    """One share per ``floor`` units of ``work``, at most usable_cpus() and
    at least one; usable_cpus() is asked only from two floors on."""
    count = work // floor
    return min(usable_cpus(), count) if count > 1 else 1


def shares(tasks: Sequence[Callable[[], object]], what: Callable[[int], str]) -> list:
    """The results of ``tasks`` in task order: tasks[0] runs in the process,
    each other task in a child forked for it.  The earliest failing task's
    exception is raised; a child that ends without a result is a
    ChildProcessError naming ``what(k)`` for its task k.  Any exception
    kills every child; in every case every pipe is closed and every child
    reaped."""
    forked: list[tuple[int, BinaryIO]] = []
    try:
        for task in tasks[1:]:
            forked.append(_fork(task))
        return [tasks[0](), *(_result(pipe, what(k)) for k, (_, pipe) in enumerate(forked, 1))]
    except BaseException:
        from signal import SIGKILL
        for pid, _ in forked:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in forked:
            pipe.close()
            os.waitpid(pid, 0)


def _fork(task: Callable[[], object]) -> tuple[int, BinaryIO]:
    """A child that pickles what ``task`` returns or raises to a pipe; its
    pid and the pipe's read end."""
    import pickle
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                try:
                    outcome = (None, task())
                except Exception as exc:
                    outcome = (exc, None)
                try:
                    pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # said while the pipe is open: the parent then kills this child
                    os.write(2, f"famespan: a forked child's result did not pickle: {exc!r}\n".encode())
                    raise
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _result(pipe: BinaryIO, what: str):
    """What a child's task returned; its exception is raised here."""
    import pickle
    try:
        error, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"{what} ended without a result") from None
    if error is not None:
        raise error
    return value
