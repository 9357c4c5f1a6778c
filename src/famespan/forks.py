"""Shares of one job run in forked children, each result pickled to a pipe.

The reader (corpus_io.DocumentReader.read) and the bootstrap
(stats._shared_replicates) each hand shares() one task per share of a
job.  The process runs the first task while a forked child per other task
runs that one, pickles (None, its result) or (its exception, None) to a
pipe, and ends in os._exit, so it never returns into the caller's frames
or runs its exit handlers.  The parent takes the results in task order,
so the earliest failing task's error is the one raised, and the caller
merges the shares in that order.  Nothing forks where os.fork is missing
or another Python thread runs, whose locks a child would inherit in
whatever state they are.

While children run, the parent and each child are pinned to CPUs of their
own: on a 2-vCPU host the kernel was seen to start a child on its
parent's CPU and leave both there for a whole 50 ms task.  Benchmark
pairs without the pinning have not settled whether it still pays there:
one set saw pretagged_1m's peak RSS 68.8 -> 70.2 MB and
century_bootstrap's CPU time 0.86 -> 0.90 s, another 69.1 -> 68.5 MB and
0.86 -> 0.81 s.

pickle and signal are imported on use, so a launch that forks nothing
does not load them.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Callable, Sequence


def usable_cpus() -> int:
    """How many processes may share one job: the CPUs this process may run
    on, or 1 where os.fork is missing or another Python thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def shares(tasks: Sequence[Callable[[], object]], what: Callable[[int], str]) -> list:
    """The results of ``tasks`` in task order: tasks[0] runs in the process,
    each other task in a child forked for it.  The earliest failing task's
    exception is raised; a child that ends without a result is a
    ChildProcessError naming ``what(k)`` for its task k.  Any exception
    kills every child; in every case every pipe is closed, every child
    reaped and the process's CPU mask restored."""
    forked: list[tuple[int, BinaryIO]] = []
    cpus = sorted(os.sched_getaffinity(0)) if len(tasks) > 1 and hasattr(os, "sched_setaffinity") else []
    try:
        if cpus:
            _pin(cpus[:1])
        for k, task in enumerate(tasks[1:], 1):
            forked.append(_fork(task, cpus[k % len(cpus)] if cpus else None))
        results = [tasks[0]()]
        results += [_result(pipe, what(k)) for k, (_, pipe) in enumerate(forked, 1)]
        return results
    except BaseException:
        from signal import SIGKILL
        for pid, _ in forked:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in forked:
            pipe.close()
            os.waitpid(pid, 0)
        if cpus:
            _pin(cpus)


def _fork(task: Callable[[], object], cpu: int | None) -> tuple[int, BinaryIO]:
    """A child, pinned to ``cpu`` if given, that pickles what ``task``
    returns or raises to a pipe; its pid and the pipe's read end."""
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
            if cpu is not None:
                _pin([cpu])
            with open(w, "wb") as out:
                try:
                    outcome = (None, task())
                except Exception as exc:
                    outcome = (exc, None)
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _pin(cpus: list[int]) -> None:
    """Keep this process on ``cpus``; only a placement hint, so a refusal
    (a CPU gone offline) changes nothing."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


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
