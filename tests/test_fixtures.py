from datetime import date

import pytest

from famespan.corpus_io import AnalysisWindow
from famespan.dates import from_epoch_us
from famespan.errors import ConfigError
from famespan.fixtures import fixture_timeline
from famespan.peaks import WeekGrid, continuity_period, spike_period


def grid_for(t):
    first = from_epoch_us(int(t.times_us[0]))
    return WeekGrid.for_window(AnalysisWindow(date(first.year, 1, 1), date(2020, 1, 1)))


def test_monroe_like_detectors_disagree():
    t = fixture_timeline("monroe-like")
    spike = spike_period(t, grid_for(t))
    cont = continuity_period(t)
    assert cont.duration_days > 5 * spike.duration_days
    # continuity finds the early sustained run, spike the terminal burst
    assert cont.start < spike.start


def test_astor_like_periods_disjoint():
    t = fixture_timeline("astor-like")
    spike = spike_period(t, grid_for(t))
    cont = continuity_period(t)
    assert spike.end < cont.start or cont.end < spike.start
    assert spike.start.year == 1890
    assert cont.start.year == 1912


def test_fixtures_are_valid_timelines():
    for kind in ("monroe-like", "astor-like"):
        t = fixture_timeline(kind)
        assert t.total >= 1
        assert (t.counts >= 1).all()
        times = t.times_us
        assert (times[1:] > times[:-1]).all()


def test_unknown_kind():
    with pytest.raises(ConfigError):
        fixture_timeline("nope")
