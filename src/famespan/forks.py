"""Shares of one job run in forked children, their results sent over pipes.

The reader (corpus_io.DocumentReader.read) and the bootstrap
(stats.bootstrap_many) both do the first share of a job in the process
while a forked child per other share computes that one.  A child pickles
(None, its result) to a pipe, then may stream more bytes after it, or
pickles (its exception, None), and always ends in os._exit, so it never
returns into the caller's frames or runs its exit handlers.  The parent
takes the results in share order, so the earliest failing share's error
is the one raised.  Nothing forks where os.fork is missing or another
Python thread runs, whose locks a child would inherit in whatever state
they are.

pickle and signal are imported on use, so a launch that forks nothing
does not load them.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Callable


def usable_cpus() -> int:
    """How many processes may share one job: the CPUs this process may run
    on, or 1 where os.fork is missing or another Python thread runs."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class Children:
    """The children forked in a ``with`` block.  Leaving it by an exception
    kills every child; either way every pipe is closed and every child
    reaped.

    The kernel may start a child on its parent's CPU and leave both there
    for the whole of a short task, so while children run, the parent and
    each child are pinned to CPUs of their own (the parent's mask is
    restored on leaving the block).
    """

    def __init__(self):
        self._forked: list[tuple[int, BinaryIO]] = []
        self._cpus: list[int] = []

    def fork(self, task: Callable[[], object], send: Callable[[BinaryIO], None] | None = None) -> BinaryIO:
        """Fork a child that sends ``task()`` and then lets ``send`` write to
        the pipe; the pipe's read end, for result()."""
        if not self._forked and hasattr(os, "sched_setaffinity"):
            self._cpus = sorted(os.sched_getaffinity(0))
            _pin(self._cpus[:1])
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
                if self._cpus:
                    _pin([self._cpus[(len(self._forked) + 1) % len(self._cpus)]])
                with open(w, "wb") as out:
                    _send_result(task, send, out)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._forked.append((pid, open(r, "rb")))
        return self._forked[-1][1]

    def __enter__(self) -> Children:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            from signal import SIGKILL
            for pid, _ in self._forked:
                os.kill(pid, SIGKILL)
        for pid, pipe in self._forked:
            pipe.close()
            os.waitpid(pid, 0)
        if self._cpus:
            _pin(self._cpus)


def _pin(cpus: list[int]) -> None:
    """Keep this process on ``cpus``; only a placement hint, so a refusal
    (a CPU gone offline) changes nothing."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _send_result(task: Callable[[], object], send: Callable[[BinaryIO], None] | None, out: BinaryIO) -> None:
    import pickle
    try:
        value = task()
    except Exception as exc:
        pickle.dump((exc, None), out)
        return
    pickle.dump((None, value), out, pickle.HIGHEST_PROTOCOL)
    if send is not None:
        send(out)


def result(pipe: BinaryIO, what: str, receive: Callable[[BinaryIO], None] | None = None):
    """What a child's task returned, once ``receive`` has read what its
    ``send`` wrote.  The child's exception is raised here; a child that
    ended without a result is a ChildProcessError naming ``what``."""
    import pickle
    try:
        error, value = pickle.load(pipe)
        if error is None and receive is not None:
            receive(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"{what} ended without a result") from None
    if error is not None:
        raise error
    return value
