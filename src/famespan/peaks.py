"""Fame-period detectors.

Two notions of "how long someone stayed in the news", computed per
timeline:

* spike: bin mentions into fixed one-week intervals; the period is the
  contiguous run of weeks around the busiest week in which every week
  keeps at least one tenth of the peak week's count.  Captures the burst
  around a single story; durations are multiples of 7 days.
* continuity: the longest stretch of mentions with no mention-free
  seven-day window, i.e. the maximal run of events whose adjacent gaps
  are all <= 7 days (a gap of g days leaves g-1 empty days, so g <= 7 is
  the exact reading on day-precision data).  Captures sustained public
  interest; durations are measured last event minus first event and may
  be fractional when timestamps carry time-of-day.

Both detectors are pure functions of one timeline and are trivially
parallel across names.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable

import numpy as np

from .constants import METHOD_CONTINUITY, METHOD_SPIKE
from .corpus_io import AnalysisWindow
from .dates import US_PER_DAY, Timestamp, epoch_us, from_epoch_us, monday_on_or_before

WEEK_DAYS = 7
WEEK_US = WEEK_DAYS * US_PER_DAY


@dataclass(frozen=True)
class WeekGrid:
    """Fixed 7-day binning grid; bins are [origin + 7i, origin + 7(i+1))."""

    origin: date

    @classmethod
    def for_window(cls, window: AnalysisWindow) -> "WeekGrid":
        # a fixed Monday grid keeps weekly publishing cycles aligned
        return cls(monday_on_or_before(window.start))

    @property
    def origin_us(self) -> int:
        return epoch_us(self.origin)

    def week_start(self, index: int) -> date:
        return self.origin + timedelta(days=WEEK_DAYS * index)


@dataclass(frozen=True)
class FamePeriod:
    """One measured period of fame for one name."""

    name: str
    method: str
    start: Timestamp
    end: Timestamp
    peak_date: Timestamp
    duration_days: float

    def __post_init__(self):
        s, e, p = epoch_us(self.start), epoch_us(self.end), epoch_us(self.peak_date)
        if not s <= p <= e:
            raise ValueError(f"{self.name!r}: peak {self.peak_date} outside [{self.start}, {self.end}]")
        if abs((e - s) / US_PER_DAY - self.duration_days) > 1e-9:
            raise ValueError(f"{self.name!r}: duration {self.duration_days} != end - start")


def week_counts(times_us: np.ndarray, counts: np.ndarray, grid: WeekGrid) -> tuple[int, np.ndarray]:
    """Dense weekly totals from the first to the last occupied week.

    Returns (first_week_index, totals); weeks with no mentions are 0.
    """
    weeks = (times_us - grid.origin_us) // WEEK_US
    first = int(weeks[0])
    last = int(weeks[-1])
    totals = np.zeros(last - first + 1, dtype=np.int64)
    np.add.at(totals, weeks - first, counts)
    return first, totals


def spike_period(t, grid: WeekGrid) -> FamePeriod:
    """Peak week plus the contiguous weeks holding >= 1/10 of its count."""
    first, totals = week_counts(t.times_us, t.counts, grid)
    peak = int(np.argmax(totals))  # argmax takes the earliest max week
    threshold = totals[peak] / 10.0
    lo = peak
    while lo > 0 and totals[lo - 1] >= threshold:
        lo -= 1
    hi = peak
    while hi < len(totals) - 1 and totals[hi + 1] >= threshold:
        hi += 1
    return FamePeriod(
        name=t.name,
        method=METHOD_SPIKE,
        start=grid.week_start(first + lo),
        end=grid.week_start(first + hi + 1),
        peak_date=grid.week_start(first + peak),
        duration_days=float(WEEK_DAYS * (hi - lo + 1)),
    )


def continuity_period(t) -> FamePeriod:
    """Longest run of events with every adjacent gap <= 7 days.

    Ties between equally long runs go to the earliest; the peak date sits
    a floored half-duration after the start.
    """
    times = t.times_us
    starts = np.flatnonzero(np.concatenate(([True], np.diff(times) > WEEK_US)))
    ends = np.concatenate((starts[1:] - 1, [len(times) - 1]))
    durations = times[ends] - times[starts]
    best = int(np.argmax(durations))  # first max = earliest start
    start_us = int(times[starts[best]])
    end_us = int(times[ends[best]])
    duration_days = (end_us - start_us) / US_PER_DAY
    peak_us = start_us + int(duration_days / 2) * US_PER_DAY
    return FamePeriod(
        name=t.name,
        method=METHOD_CONTINUITY,
        start=from_epoch_us(start_us),
        end=from_epoch_us(end_us),
        peak_date=from_epoch_us(peak_us),
        duration_days=duration_days,
    )


def period_filter(
    periods: Iterable[FamePeriod],
    window: AnalysisWindow,
    min_duration: float = 2.0,
) -> list[FamePeriod]:
    """Drop too-short periods and periods censored by the window end.

    A spike period whose end reaches the window boundary, or a continuity
    period whose last mention lies within 7 days of it (a mention just past
    the end would have continued the run), might have extended further had
    the corpus continued, so it is removed rather than under-measured.
    """
    end_limit = epoch_us(window.end)
    return [
        p
        for p in periods
        if p.duration_days >= min_duration
        and epoch_us(p.end) + (WEEK_US if p.method == METHOD_CONTINUITY else 0) < end_limit
    ]
