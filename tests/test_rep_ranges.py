"""Sharing a bootstrap cell's resamples out over forked children changes nothing.

Rep ranges are forced by lowering stats._FORK_MIN_ELEMENTS and by fixing
the number of usable CPUs that forks.usable_cpus() reports; the replicate
arrays, the intervals and every artifact of 2 and 3 ranges must equal
those of one.  The hygiene tests check that every child is reaped and
every pipe closed when a child or the parent fails, and that nothing
forks beside another thread.
"""

import io
import os
import threading
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famespan import forks, stats
from famespan.cli import main
from famespan.stats import PowerLawAlphaStatistic, QuantileStatistic, bootstrap_many

STATISTICS = [QuantileStatistic(q) for q in (0.5, 0.9, 0.99)] + [PowerLawAlphaStatistic(min_tail=2)]


@contextmanager
def rep_ranges(cpus: int, floor: int = 1, batch_elements: int | None = None):
    """Cells of at least ``floor`` index elements split over ``cpus``
    ranges (fewer if they have fewer batches)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forks, "usable_cpus", lambda: cpus)
        mp.setattr(stats, "_FORK_MIN_ELEMENTS", floor)
        if batch_elements is not None:
            mp.setattr(stats, "_BATCH_ELEMENTS", batch_elements)
        yield


def _durations(n: int, seed: int) -> np.ndarray:
    return 7.0 * np.ceil(np.random.default_rng(seed).pareto(1.3, size=n) * 3 + 1)


def _bootstrap_many(values: np.ndarray, reps: int, seed: int):
    """bootstrap_many's intervals, its UnstableStatistics and any error it
    raises, in a form that compares by value."""
    try:
        results = bootstrap_many(values, STATISTICS, reps=reps, seed=seed)
    except Exception as exc:  # a point estimate that fails on a tiny cell
        return type(exc), str(exc)
    return {name: (type(v), str(v)) if isinstance(v, Exception) else v for name, v in results.items()}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 40), reps=st.integers(1, 30), rows_per_batch=st.integers(1, 6),
       cpus=st.integers(1, 3), below_floor=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_rep_ranges_do_not_change_replicates(n, reps, rows_per_batch, cpus, below_floor, seed):
    values = _durations(n, seed % 1000)
    batch_elements = rows_per_batch * n + n // 2
    with rep_ranges(1, batch_elements=batch_elements):
        whole = stats._bootstrap_replicates(values, STATISTICS, reps, seed)
        one = _bootstrap_many(values, reps, seed)
    # a cell exactly at the floor is split; one element short of it is not
    floor = reps * n + below_floor
    with rep_ranges(cpus, floor, batch_elements):
        ranges = stats._rep_ranges(reps, n)
        shared = stats._shared_replicates(values, STATISTICS, reps, seed)
        many = _bootstrap_many(values, reps, seed)
    batch = min(reps, rows_per_batch)
    batches = -(-reps // batch)
    assert len(ranges) == (1 if below_floor else min(cpus, batches))
    assert [first for first, _ in ranges] == sorted({first for first, _ in ranges})
    assert sum(count for _, count in ranges) == reps and ranges[0][0] == 0
    assert all(first % batch == 0 and first + count <= reps for first, count in ranges)
    for name in whole:
        for got, want in zip(shared[name], whole[name]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert many == one


def _periods_csv(path: Path, n: int = 60) -> Path:
    rows = [f"N{i},continuity,2001-01-{1 + i % 28:02d},2001-03-01,2001-02-01,0" for i in range(n)]
    path.write_text("name,method,start,end,peak_date,duration_days\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    return path


def _invoke(argv: list[str], out: Path) -> tuple:
    """Exit code, stdout, stderr and the bytes of every file under ``out``
    of one CLI invocation."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


def test_run_artifacts_do_not_depend_on_rep_ranges(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for day in range(180):
            date = f"2005-{1 + day // 30:02d}-{1 + day % 28:02d}"
            names = [[f"Name {k}", 1 + (day + k) % 3] for k in range(40) if (day // (k + 2)) % 3 == 0]
            fh.write(f'{{"id": "d{day}", "date": "{date}", "mentions": {names}}}\n'.replace("'", '"'))
    real_fork, forked = os.fork, []

    def counting_fork():
        forked.append(1)
        return real_fork()

    def run(out: Path) -> tuple:
        return _invoke(["run", "--input", str(corpus), "--window", "2005-01", "2005-07", "--n-min", "25",
                        "--seed", "5", "--reps", "300", "--filters", "all", "--min-mentions", "1",
                        "--min-duration", "0", "--tail-quantile", "0.5", "--out-dir", str(out)], out)

    monkeypatch.setattr(os, "fork", counting_fork)
    one = run(tmp_path / "out1")
    assert one[0] == 0 and len(one[3]) > 10 and not forked
    # a few resamples a batch, so each cell has many batches to share out
    with rep_ranges(2, batch_elements=7 * 40):
        assert run(tmp_path / "out2") == one
    assert len(forked) == 2  # one child for each of the two summary cells


# ---------------------------------------------------------------------------
# process hygiene: every child reaped, every pipe closed, on every path

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def _assert_no_children(cpus: set | None) -> None:
    """Every child reaped, and the parent's CPU mask ``cpus`` restored."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert cpus is None or os.sched_getaffinity(0) == cpus


def _cpu_mask() -> set | None:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@needs_proc
def test_a_bootstrap_child_that_dies_is_an_error(tmp_path, monkeypatch, capsys):
    parent, original = os.getpid(), stats._bootstrap_replicates

    def dying(*args):
        if os.getpid() != parent:
            os._exit(9)
        return original(*args)

    monkeypatch.setattr(stats, "_bootstrap_replicates", dying)
    values = _durations(50, 1)
    before, cpus = _open_fds(), _cpu_mask()
    # 10 resamples a batch: ranges of 30, 30 and 40 resamples
    with rep_ranges(3, batch_elements=500), \
            pytest.raises(ChildProcessError, match="^the bootstrap of resamples 30 to 59 ended"):
        bootstrap_many(values, STATISTICS, reps=100, seed=2)
    assert _open_fds() == before
    _assert_no_children(cpus)
    periods = _periods_csv(tmp_path / "periods_continuity_all.csv")
    with rep_ranges(2, batch_elements=600):
        code = main(["report", "--periods", str(periods), "--seed", "1", "--reps", "50",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 3 and "famespan: error: the bootstrap of resamples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
    assert _open_fds() == before
    _assert_no_children(cpus)


class _Stop(Exception):
    pass


@needs_proc
def test_parent_error_while_bootstrap_children_work(monkeypatch):
    parent, original = os.getpid(), stats._bootstrap_replicates

    def stalling(arr, statistics, reps, seed, first=0):
        if os.getpid() != parent:
            time.sleep(120)  # the parent's SIGKILL ends this
        elif first == 0:
            raise _Stop
        return original(arr, statistics, reps, seed, first)

    monkeypatch.setattr(stats, "_bootstrap_replicates", stalling)
    before, cpus = _open_fds(), _cpu_mask()
    started = time.monotonic()
    with rep_ranges(3, batch_elements=500), pytest.raises(_Stop):
        bootstrap_many(_durations(50, 1), STATISTICS, reps=100, seed=2)
    assert time.monotonic() - started < 60
    assert _open_fds() == before
    _assert_no_children(cpus)


def test_no_bootstrap_fork_while_another_thread_runs(monkeypatch):
    values = _durations(50, 3)
    with rep_ranges(1):
        one = _bootstrap_many(values, 100, 4)
    forked = []

    def fork():
        forked.append(1)
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(stats, "_FORK_MIN_ELEMENTS", 1)
    monkeypatch.setattr(stats, "_BATCH_ELEMENTS", 500)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert stats._rep_ranges(100, values.size) == [(0, 100)]
        many = _bootstrap_many(values, 100, 4)
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive() and not forked
    assert many == one and isinstance(one, dict)
