"""Detector unit tests: hand-worked examples plus randomized properties."""

from datetime import date, datetime, timedelta

import numpy as np

from famespan.corpus_io import AnalysisWindow
from famespan.dates import US_PER_DAY, epoch_us
from famespan.peaks import (
    METHOD_CONTINUITY,
    METHOD_SPIKE,
    FamePeriod,
    WeekGrid,
    continuity_period,
    period_filter,
    spike_period,
)
from famespan.synth import oracle_continuity, oracle_spike
from famespan.timeline import Timeline

MONDAY = date(2000, 1, 3)  # a Monday, used as week-grid origin
GRID = WeekGrid(MONDAY)


def tl_on_days(days, counts=None, name="x"):
    counts = counts or [1] * len(days)
    return Timeline.from_pairs(name, [(MONDAY + timedelta(days=d), c) for d, c in zip(days, counts)])


class TestSpike:
    def test_declining_counts_within_tenth(self):
        # weekly counts 10, 2, 1: all at least one tenth of the max
        t = tl_on_days([0, 7, 14], counts=[10, 2, 1])
        p = spike_period(t, GRID)
        assert p.start == MONDAY
        assert p.end == MONDAY + timedelta(days=21)
        assert p.peak_date == MONDAY
        assert p.duration_days == 21.0

    def test_below_tenth_excluded(self):
        # fourth week at zero never extends the run
        t = tl_on_days([0, 7, 14, 28], counts=[100, 20, 10, 9])
        p = spike_period(t, GRID)
        # week 3 (count 0) and week 4 (count 9 < 10) both fail the threshold
        assert p.duration_days == 21.0
        assert p.start == MONDAY

    def test_single_mention(self):
        t = tl_on_days([3])
        p = spike_period(t, GRID)
        assert p.duration_days == 7.0
        assert p.start == MONDAY
        assert p.end == MONDAY + timedelta(days=7)
        assert p.peak_date == MONDAY

    def test_tie_goes_to_earliest_max_week(self):
        t = tl_on_days([0, 7, 14], counts=[3, 5, 5])
        p = spike_period(t, GRID)
        assert p.peak_date == MONDAY + timedelta(days=7)
        assert p.duration_days == 21.0
        assert p.start == MONDAY

    def test_run_must_be_contiguous_through_zero_weeks(self):
        # same count far later cannot join the run across an empty week
        t = tl_on_days([0, 21], counts=[5, 5])
        p = spike_period(t, GRID)
        assert p.duration_days == 7.0
        assert p.peak_date == MONDAY

    def test_durations_are_multiples_of_seven(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            days = sorted(set(rng.integers(0, 200, size=rng.integers(1, 40)).tolist()))
            p = spike_period(tl_on_days(days), GRID)
            assert p.duration_days % 7 == 0 and p.duration_days > 0


class TestContinuity:
    def test_gap_rule_hand_example(self):
        t = tl_on_days([0, 5, 11, 30])
        p = continuity_period(t)
        assert p.start == MONDAY
        assert p.end == MONDAY + timedelta(days=11)
        assert p.duration_days == 11.0
        assert p.peak_date == MONDAY + timedelta(days=5)

    def test_monday_to_wednesday_is_two_days(self):
        t = Timeline.from_pairs("x", [(date(2000, 1, 3), 1), (date(2000, 1, 5), 1)])
        p = continuity_period(t)
        assert p.duration_days == 2.0

    def test_gap_of_eight_days_splits(self):
        t = tl_on_days([0, 8])
        p = continuity_period(t)
        assert p.duration_days == 0.0
        assert p.start == p.end == MONDAY

    def test_gap_of_exactly_seven_days_holds(self):
        t = tl_on_days([0, 7, 14])
        p = continuity_period(t)
        assert p.duration_days == 14.0

    def test_tie_prefers_earliest_run(self):
        t = tl_on_days([0, 4, 20, 24])
        p = continuity_period(t)
        assert p.start == MONDAY
        assert p.duration_days == 4.0

    def test_subday_timestamps_give_fractional_durations(self):
        t = Timeline.from_pairs(
            "x",
            [(datetime(2000, 1, 3, 6, 0), 1), (datetime(2000, 1, 5, 18, 0), 1)],
        )
        p = continuity_period(t)
        assert p.duration_days == 2.5
        assert p.start == datetime(2000, 1, 3, 6, 0)
        assert p.peak_date == datetime(2000, 1, 4, 6, 0)

    def test_multiplicity_is_irrelevant(self):
        a = continuity_period(tl_on_days([0, 5, 11], counts=[1, 1, 1]))
        b = continuity_period(tl_on_days([0, 5, 11], counts=[9, 2, 4]))
        assert a.duration_days == b.duration_days
        assert a.start == b.start


class TestPeriodFilter:
    WINDOW = AnalysisWindow(date(2000, 1, 1), date(2001, 1, 1))

    def mk(self, start_day, duration, method=METHOD_CONTINUITY):
        start = date(2000, 1, 1) + timedelta(days=start_day)
        end = start + timedelta(days=duration)
        return FamePeriod("x", method, start, end, start, float(duration))

    def test_short_periods_removed(self):
        kept = period_filter([self.mk(10, 1), self.mk(10, 2)], self.WINDOW)
        assert [p.duration_days for p in kept] == [2.0]

    def test_period_ending_at_window_end_removed(self):
        ending_at_edge = self.mk(359, 7, method=METHOD_SPIKE)  # the week of Monday 2000-12-25
        assert ending_at_edge.end == self.WINDOW.end
        assert period_filter([ending_at_edge], self.WINDOW) == []

    def daily_run(self, first: date, last: date):
        days = range((last - first).days + 1)
        return Timeline.from_pairs("x", [(first + timedelta(days=d), 1) for d in days])

    def test_continuity_run_into_the_last_week_removed(self):
        t = self.daily_run(date(2000, 12, 2), date(2000, 12, 31))
        p = continuity_period(t)
        assert p.end == date(2000, 12, 31) and p.duration_days == 29.0
        assert period_filter([p], self.WINDOW) == []
        assert period_filter([spike_period(t, WeekGrid.for_window(self.WINDOW))], self.WINDOW) == []

    def test_continuity_censoring_boundary(self):
        # a mention on 2001-01-01 would continue a run ending 2000-12-25
        # (gap of 7 days) but not one ending 2000-12-24 (gap of 8 days)
        for last, kept in ((date(2000, 12, 24), 1), (date(2000, 12, 25), 0)):
            p = continuity_period(self.daily_run(date(2000, 11, 20), last))
            assert p.end == last
            assert len(period_filter([p], self.WINDOW)) == kept

    def test_continuity_censoring_with_time_of_day(self):
        for last, kept in ((datetime(2000, 12, 24, 12), 1), (datetime(2000, 12, 25, 6), 0)):
            t = self.daily_run(date(2000, 12, 10), date(2000, 12, 24))
            t = Timeline.from_pairs("x", [*zip(t.times_us.tolist(), t.counts.tolist()), (last, 1)])
            p = continuity_period(t)
            assert p.end == last
            assert len(period_filter([p], self.WINDOW)) == kept

    def test_period_ending_inside_kept(self):
        assert len(period_filter([self.mk(100, 14)], self.WINDOW)) == 1


class TestProperties:
    def test_translation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            days = sorted(set(rng.integers(0, 300, size=rng.integers(2, 50)).tolist()))
            t = tl_on_days(days)
            shift_weeks = int(rng.integers(1, 30))
            t_shift = tl_on_days([d + 7 * shift_weeks for d in days])
            p, ps = spike_period(t, GRID), spike_period(t_shift, GRID)
            assert ps.start == p.start + timedelta(days=7 * shift_weeks)
            assert ps.duration_days == p.duration_days
            shift_days = int(rng.integers(1, 100))
            c, cs = continuity_period(t), continuity_period(tl_on_days([d + shift_days for d in days]))
            assert cs.start == c.start + timedelta(days=shift_days)
            assert cs.peak_date == c.peak_date + timedelta(days=shift_days)
            assert cs.duration_days == c.duration_days

    def test_adding_mention_inside_run_never_shrinks_duration(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            days = sorted(set(rng.integers(0, 120, size=rng.integers(2, 30)).tolist()))
            t = tl_on_days(days)
            p = continuity_period(t)
            span = int(p.duration_days)
            if span < 1:
                continue
            inside = (p.start - MONDAY).days + int(rng.integers(0, span + 1))
            p2 = continuity_period(tl_on_days(sorted(set(days + [inside]))))
            assert p2.duration_days >= p.duration_days

    def test_spike_run_contains_global_max_week(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            days = sorted(set(rng.integers(0, 150, size=rng.integers(1, 40)).tolist()))
            counts = rng.integers(1, 9, size=len(days)).tolist()
            t = tl_on_days(days, counts)
            p = spike_period(t, GRID)
            assert p.start <= p.peak_date < p.end

    def test_gap_property_of_returned_run(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            days = sorted(set(rng.integers(0, 200, size=rng.integers(2, 40)).tolist()))
            t = tl_on_days(days)
            p = continuity_period(t)
            inside = [d for d in days if p.start <= MONDAY + timedelta(days=d) <= p.end]
            gaps = np.diff(inside)
            assert (gaps <= 7).all() if len(gaps) else True
            before = [d for d in days if MONDAY + timedelta(days=d) < p.start]
            after = [d for d in days if MONDAY + timedelta(days=d) > p.end]
            if before:
                assert (p.start - (MONDAY + timedelta(days=max(before)))).days > 7
            if after:
                assert ((MONDAY + timedelta(days=min(after))) - p.end).days > 7


class TestOracleAgreement:
    def test_smoke_agreement_with_reference_detectors(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            base = int(rng.integers(0, 600))
            if rng.random() < 0.5:
                offsets = sorted(set((base + rng.integers(0, 400, size=n)).tolist()))
                pairs = [(MONDAY + timedelta(days=d), int(rng.integers(1, 5))) for d in offsets]
            else:
                us = epoch_us(MONDAY) + base * US_PER_DAY + rng.integers(
                    0, 400 * US_PER_DAY, size=n
                )
                pairs = [(int(u), 1) for u in sorted(set(us.tolist()))]
            t = Timeline.from_pairs("x", pairs)
            assert spike_period(t, GRID) == oracle_spike(t, GRID)
            assert continuity_period(t) == oracle_continuity(t)
