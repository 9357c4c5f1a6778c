"""Cohort statistics: quantiles, cumulative curves, tail fits, bootstrap.

Conventions used throughout:

* Quantiles are nearest-rank: the element at 1-based index ceil(q*n) of
  the sorted values.  A small epsilon guards against float products like
  0.07*100 landing just above the integer they equal in exact arithmetic.
* The power-law tail fit takes d_min at the 80th percentile, keeps the
  durations strictly above it, and uses the continuous maximum-likelihood
  estimate 1 + n / sum(ln(d_i/d_min)).  The exponent is reported negative
  (density ~ d^alpha with alpha around -2.5).
* Bootstrap resample r is a pure function of (seed, r), so replicates can
  be evaluated in any order, in parallel, or in shared batches and still
  reproduce bit-identically.  Index i of resample r comes from a
  counter-based generator: the SplitMix64 finaliser hashes (seed, r, i)
  into a 64-bit word, and Lemire's multiply-shift maps the word to an
  exactly uniform index in [0, n), re-hashing the rare biased word.  A
  whole batch of resamples is one numpy computation, and neither the batch
  size nor reps changes any resample.
* One bootstrap pass per cohort: bootstrap_many evaluates every statistic
  of a table cell on the same sorted resamples, and a statistic that fails
  too often reports its own UnstableStatistic without costing the others
  their intervals.
* A cell's resamples are shared out over forks.share_count ranges, one
  per _FORK_MIN_ELEMENTS index elements (reps * n) and at most one per
  usable CPU, so a cell of fewer than two floors' elements stays whole.
  The ranges are cut on batch boundaries, and forks.shares() runs one
  task per range.  The process evaluates the first range while a forked
  child per other range evaluates that one and pickles back each
  statistic's replicate values and ok-flags; the shares are joined in
  resample order.  Every replicate and interval is therefore that of a
  one-process run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime
from functools import partial
from hashlib import blake2b
from typing import Iterable, Sequence

import numpy as np

from .constants import WIDTH_3_MONTHS, WIDTH_5_YEARS
from .dates import month_from_index, month_index
from .errors import DegenerateTail, EmptyCohort, InsufficientTail, UnstableStatistic
from .peaks import FamePeriod

_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(master: int, *parts) -> int:
    """Deterministic 64-bit stage seed from the master seed and a path."""
    key = (master & _MASK64).to_bytes(8, "little")
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(blake2b(payload, digest_size=8, key=key).digest(), "little")


def _rank(q: float, n: int) -> int:
    """1-based nearest rank ceil(q*n), with a float-product guard."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {q}")
    rank = math.ceil(q * n - 1e-9)
    return min(max(rank, 1), n)


def quantile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Nearest-rank quantile; raises EmptyCohort on empty input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyCohort("quantile of an empty value list")
    return float(np.sort(arr)[_rank(q, arr.size) - 1])


@dataclass(frozen=True)
class Cohort:
    """Durations of the names whose fame peaked inside one calendar bucket."""

    bucket_start: date
    width_months: int
    durations: np.ndarray

    @property
    def label(self) -> str:
        y, m = self.bucket_start.year, self.bucket_start.month
        if self.width_months == WIDTH_5_YEARS and m == 1:
            return f"{y}-{(y + 4) % 10}"
        if self.width_months == WIDTH_3_MONTHS and m in (1, 4, 7, 10):
            return f"{y}Q{(m - 1) // 3 + 1}"
        return f"{y:04d}-{m:02d}+{self.width_months}mo"


def assign_cohorts(periods: Iterable[FamePeriod], width_months: int) -> list[Cohort]:
    """Partition periods into calendar buckets by peak date.

    Buckets are aligned to 1970-01, which puts 5-year buckets on years
    divisible by 5 and 3-month buckets on quarters.
    """
    if width_months < 1:
        raise ValueError("cohort width must be at least one month")
    grouped: dict[int, list[float]] = {}
    for p in periods:
        peak = p.peak_date
        d = peak.date() if isinstance(peak, datetime) else peak
        bucket = (month_index(d.year, d.month) // width_months) * width_months
        grouped.setdefault(bucket, []).append(p.duration_days)
    out = []
    for bucket in sorted(grouped):
        y, m = month_from_index(bucket)
        out.append(Cohort(date(y, m, 1), width_months, np.asarray(grouped[bucket], dtype=np.float64)))
    return out


@dataclass(frozen=True)
class PowerLawFit:
    """Tail exponent estimate: density ~ d^alpha above d_min."""

    alpha: float
    d_min: float
    n_tail: int

    def __post_init__(self):
        if not self.alpha < -1:
            raise ValueError(f"alpha must be below -1, got {self.alpha}")
        if self.d_min <= 0 or self.n_tail < 1:
            raise ValueError("power-law fit needs d_min > 0 and a non-empty tail")


def fit_power_law(
    durations: Sequence[float] | np.ndarray,
    tail_quantile: float = 0.8,
    min_tail: int = 10,
) -> PowerLawFit:
    """Continuous MLE over the durations strictly above the tail threshold.

    min_tail is the smallest acceptable tail size (default 10); smaller
    tails raise InsufficientTail rather than returning a meaningless fit.
    """
    arr = np.asarray(durations, dtype=np.float64)
    if arr.size == 0:
        raise EmptyCohort("power-law fit of an empty cohort")
    if np.any(arr <= 0):
        raise DegenerateTail("a power-law fit needs every duration positive")
    d_min = quantile(arr, tail_quantile)
    tail = arr[arr > d_min]
    if tail.size < min_tail:
        raise InsufficientTail(
            f"{tail.size} durations above d_min={d_min:g}, need at least {min_tail}"
        )
    sum_logs = float(np.log(tail / d_min).sum())
    if sum_logs <= 0.0:
        raise DegenerateTail("all tail durations coincide with d_min")
    magnitude = 1.0 + tail.size / sum_logs
    return PowerLawFit(alpha=-magnitude, d_min=float(d_min), n_tail=int(tail.size))


@dataclass(frozen=True)
class BootstrapInterval:
    """Point estimate plus a central bootstrap interval."""

    point: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval bounds out of order: {self.lo} > {self.hi}")


class QuantileStatistic:
    """Named nearest-rank quantile statistic, e.g. p50/p90/p99."""

    def __init__(self, q: float):
        _rank(q, 1)  # validates q
        self.q = q
        self.name = f"p{q * 100:g}"

    def compute(self, values: np.ndarray) -> float:
        return quantile(values, self.q)

    def on_sorted_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        col = _rank(self.q, rows.shape[1]) - 1
        # a copy, so the kept column does not pin the batch's sorted rows
        return rows[:, col].copy(), np.ones(rows.shape[0], dtype=bool)


class PowerLawAlphaStatistic:
    """The signed tail exponent as a bootstrappable statistic."""

    name = "alpha"

    def __init__(self, tail_quantile: float = 0.8, min_tail: int = 10):
        self.tail_quantile = tail_quantile
        self.min_tail = min_tail

    def compute(self, values: np.ndarray) -> float:
        return fit_power_law(values, self.tail_quantile, self.min_tail).alpha

    def on_sorted_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        reps, n = rows.shape
        col = _rank(self.tail_quantile, n) - 1
        d_min = rows[:, col]
        mask = rows > d_min[:, None]
        n_tail = mask.sum(axis=1)
        sum_logs = np.einsum("ij,ij->i", np.log(rows), mask) - n_tail * np.log(d_min)
        ok = (n_tail >= self.min_tail) & (sum_logs > 0) & (d_min > 0)
        safe = np.where(ok, sum_logs, 1.0)
        vals = -(1.0 + n_tail / safe)
        return vals, ok


Statistic = QuantileStatistic | PowerLawAlphaStatistic


# Keyed resampling (see the module docstring).  Every operand is np.uint64,
# so the wrapping arithmetic is the same on numpy 1.24 and 2.x.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)
_S27, _S30, _S31, _S32 = (np.uint64(k) for k in (27, 30, 31, 32))
# Index elements per resampling batch.  A cell allocates its batch working
# set once, three uint64 words per element (hash word, temporary, high
# word), and hashes every batch into it; with the gathered float64 rows that
# is 32 bytes per element, 2 MiB here, so a batch fits a 2 MiB per-core L2
# cache and a fresh process does not fault a new array in for every pass.
_BATCH_ELEMENTS = 1 << 16
# A cell gets one share per this many index elements (reps * n), at most
# one per usable CPU (_rep_ranges).  At about 20 ns an element that is
# about 21 ms of work.  On two vCPUs the fork, the child's start, the pipe
# and the reap cost about what the second CPU saves on a cell of one such
# share (21.5 -> 22.2 ms at n=150), so a cell splits only from two; a
# 25,000-rep cell at n=150 went 86 -> 58 ms.
_FORK_MIN_ELEMENTS = 1 << 20


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finaliser, in place on a uint64 array; tmp, if given,
    holds the shifted words."""
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, _S30, out=tmp)
        z *= _MIX1
        z ^= np.right_shift(z, _S27, out=tmp)
        z *= _MIX2
        z ^= np.right_shift(z, _S31, out=tmp)
    return z


def _multiply_shift(
    words: np.ndarray, n: np.uint64, high: np.ndarray | None = None, low: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of words * n, for n < 2**32, written into
    high and low when they are given."""
    with np.errstate(over="ignore"):
        high = np.right_shift(words, _S32, out=high)
        high *= n
        carry = np.bitwise_and(words, _LOW32, out=low)
        carry *= n
        carry >>= _S32
        high += carry
        high >>= _S32
        low = np.multiply(words, n, out=carry)
    return high, low


def _bounded(
    words: np.ndarray, n: int, high: np.ndarray | None = None, low: np.ndarray | None = None
) -> np.ndarray:
    """Map uint64 words to exactly uniform int64 indices in [0, n).

    Lemire's multiply-shift: the index is the high word of words * n.  A
    low word below 2**64 mod n (a share below n / 2**64 of inputs) would
    bias the result, so that word is re-hashed and drawn again; the index
    stays a pure function of the input word.  high and low, if given, are
    the buffers of the product's words; the indices are a view of high.
    """
    if not 0 < n < 2**32:
        raise ValueError(f"resample size must be in [1, 2**32), got {n}")
    n64 = np.uint64(n)
    threshold = np.uint64((2**64 - n) % n)
    high, low = _multiply_shift(words, n64, high, low)
    flat = high.reshape(-1)
    redo = np.flatnonzero(low < threshold)
    redrawn = words.reshape(-1)[redo]
    while redo.size:
        with np.errstate(over="ignore"):
            redrawn = _mix64(redrawn + _GOLDEN)
        high_r, low_r = _multiply_shift(redrawn, n64)
        flat[redo] = high_r
        keep = low_r < threshold
        redo, redrawn = redo[keep], redrawn[keep]
    return high.view(np.int64)


def _resample_rows(
    seed: int, first: int, count: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Index rows of resamples first .. first+count-1, shape (count, n).

    Row r hashes seed -> key, (key, r) -> row key and (row key, i) -> word,
    each step a SplitMix64 counter: mix(key + (counter + 1) * golden).
    out, if given, is a uint64 working set of shape (3, >= count * n) that
    the rows are hashed into; the returned rows are then a view of it.
    """
    if out is None:
        out = np.empty((3, count * n), dtype=np.uint64)
    words, tmp, high = (buf[: count * n].reshape(count, n) for buf in out)
    key = _mix64(np.array([seed & _MASK64], dtype=np.uint64))
    reps = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    cols = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        row_keys = _mix64(key + reps * _GOLDEN)
        np.add(row_keys[:, None], cols * _GOLDEN, out=words)
    return _bounded(_mix64(words, tmp), n, high, tmp)


def _batch_reps(reps: int, n: int) -> int:
    """Resamples per batch of a cell of ``reps`` resamples of n values."""
    return max(1, min(reps, _BATCH_ELEMENTS // n))


def _bootstrap_replicates(
    arr: np.ndarray, statistics: Sequence[Statistic], reps: int, seed: int, first: int = 0
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Evaluate each statistic on resamples first .. first+reps-1, in
    batches of at most _BATCH_ELEMENTS indices hashed into one working set
    per cell."""
    n = arr.size
    batch = _batch_reps(reps, n)
    work = np.empty((3, batch * n), dtype=np.uint64)
    pieces: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {s.name: [] for s in statistics}
    for start in range(first, first + reps, batch):
        rows = arr[_resample_rows(seed, start, min(batch, first + reps - start), n, work)]
        rows.sort(axis=1)
        for stat in statistics:
            pieces[stat.name].append(stat.on_sorted_rows(rows))
    return {
        name: (np.concatenate([v for v, _ in parts]), np.concatenate([ok for _, ok in parts]))
        for name, parts in pieces.items()
    }


def _rep_ranges(reps: int, n: int) -> list[tuple[int, int]]:
    """The (first, count) resample ranges of a cell: forks.share_count of
    its reps * n index elements in _FORK_MIN_ELEMENTS, at most one per
    batch.  Cuts fall on batch boundaries, so every range hashes and sorts
    the batches a one-range run would."""
    from .forks import share_count
    batch = _batch_reps(reps, n)
    batches = -(-reps // batch)
    parts = min(share_count(reps * n, _FORK_MIN_ELEMENTS), batches)
    cuts = [k * batches // parts * batch for k in range(parts)] + [reps]
    return [(start, end - start) for start, end in zip(cuts, cuts[1:])]


def _shared_replicates(
    arr: np.ndarray, statistics: Sequence[Statistic], reps: int, seed: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """_bootstrap_replicates of a whole cell, one task per resample range
    (forks.shares: the first range in the process, each other in a forked
    child), joined in resample order."""
    from .forks import shares
    ranges = _rep_ranges(reps, arr.size)
    tasks = [partial(_bootstrap_replicates, arr, statistics, count, seed, first) for first, count in ranges]
    parts = shares(tasks, lambda k: f"the bootstrap of resamples {ranges[k][0]} to {sum(ranges[k]) - 1}")
    return {
        name: (np.concatenate([part[name][0] for part in parts]),
               np.concatenate([part[name][1] for part in parts]))
        for name in parts[0]
    }


def bootstrap(
    values: Sequence[float] | np.ndarray,
    statistic: Statistic,
    reps: int = 25000,
    level: float = 0.99,
    seed: int = 0,
) -> BootstrapInterval:
    """Resample-with-replacement interval for one named statistic.

    lo/hi are the central-level nearest-rank quantiles of the replicate
    values ((1-level)/2 and 1-(1-level)/2).  Replicates on which the
    statistic fails are dropped; more than 1% of failures aborts with
    UnstableStatistic.
    """
    interval = bootstrap_many(values, [statistic], reps=reps, level=level, seed=seed)[
        statistic.name
    ]
    if isinstance(interval, UnstableStatistic):
        raise interval
    return interval


def bootstrap_many(
    values: Sequence[float] | np.ndarray,
    statistics: Sequence[Statistic],
    reps: int = 25000,
    level: float = 0.99,
    seed: int = 0,
) -> dict[str, BootstrapInterval | UnstableStatistic]:
    """Bootstrap several statistics on shared resamples.

    Because resample r depends only on (seed, r), this returns exactly
    what separate bootstrap() calls with the same seed would return,
    while paying for the resampling and sorting once.  A statistic that
    fails on more than 1% of the resamples maps to its UnstableStatistic
    instead of an interval; the other statistics keep theirs.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyCohort("bootstrap of an empty value list")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    points = {s.name: s.compute(arr) for s in statistics}
    replicates = _shared_replicates(arr, statistics, reps, seed)
    out: dict[str, BootstrapInterval | UnstableStatistic] = {}
    for stat in statistics:
        vals, ok = replicates[stat.name]
        failures = int((~ok).sum())
        if failures > 0.01 * reps:
            out[stat.name] = UnstableStatistic(
                f"{stat.name} failed on {failures}/{reps} resamples (> 1%)"
            )
            continue
        good = vals[ok]
        out[stat.name] = BootstrapInterval(
            point=points[stat.name],
            lo=quantile(good, (1.0 - level) / 2.0),
            hi=quantile(good, 1.0 - (1.0 - level) / 2.0),
        )
    return out


def cumulative_curve(cohort: Cohort) -> list[tuple[float, int]]:
    """Survival-style curve: for each distinct duration x, how many exceed x."""
    durs = cohort.durations
    if durs.size == 0:
        raise EmptyCohort(f"cohort {cohort.label} is empty")
    sorted_durs = np.sort(durs)
    xs = np.unique(sorted_durs)
    ys = durs.size - np.searchsorted(sorted_durs, xs, side="right")
    return [(float(x), int(y)) for x, y in zip(xs, ys)]
