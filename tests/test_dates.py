from datetime import date, datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from famespan.dates import (
    epoch_us,
    from_epoch_us,
    iso,
    monday_on_or_before,
    month_from_index,
    month_index,
    parse_month,
    parse_timestamp,
)


def test_parse_date_and_datetime():
    assert parse_timestamp("1912-04-15") == date(1912, 4, 15)
    assert parse_timestamp("2009-07-01T13:45:00") == datetime(2009, 7, 1, 13, 45)


def test_timezone_normalized_to_utc_naive():
    assert parse_timestamp("2009-07-01T13:45:00Z") == datetime(2009, 7, 1, 13, 45)
    assert parse_timestamp("2009-07-01T15:45:00+02:00") == datetime(2009, 7, 1, 13, 45)


@pytest.mark.parametrize("raw", ["1912-13-40", "1912-02-30", "0000-01-01", "not a date"])
def test_invalid_dates_rejected(raw):
    with pytest.raises(ValueError):
        parse_timestamp(raw)


@pytest.mark.parametrize("raw", [
    "20050101",  # basic format
    "2005-W01-1",  # week date
    "2005-001",  # ordinal date
    "2005-01",
    "2005-01-01 12:00",  # space separator
    "2005-01-01T12",  # hour only
    "2005-01-01T1200",
    "2005-01-01T12:00:00.1234567",  # seven fraction digits
    "2005-01-01T12:00:00,5",
    "2005-01-01Z",  # offset without a time
    "2005-01-01T12:00z",
    "2005-01-01T12:00+0200",
    "2005-01-01T12:00+02",
    "2005-01-01T12:00+24:00",
    "2005-01-01T12:00+01:60",
    "2005-01-01T24:00",
    "0001-01-01T00:00+01:00",  # before year 1 in UTC
    "\u0662\u0660\u0660\u0665-01-01",  # non-ASCII digits
])
def test_only_the_pinned_grammar_is_accepted(raw):
    with pytest.raises(ValueError):
        parse_timestamp(raw)


def test_pinned_grammar_forms():
    assert parse_timestamp("2009-07-01T13:45") == datetime(2009, 7, 1, 13, 45)
    assert parse_timestamp("2009-07-01T13:45:07.5") == datetime(2009, 7, 1, 13, 45, 7, 500000)
    assert parse_timestamp("2009-07-01T13:45:07.000001Z") == datetime(2009, 7, 1, 13, 45, 7, 1)
    assert parse_timestamp("2009-07-01T20:15-06:30") == datetime(2009, 7, 2, 2, 45)
    assert parse_timestamp(" 2009-07-01\n") == date(2009, 7, 1)


@given(st.dates() | st.datetimes())
def test_every_iso_string_round_trips(ts):
    assert parse_timestamp(iso(ts)) == ts


def test_extreme_years_representable():
    assert parse_timestamp("0001-01-01") == date(1, 1, 1)
    assert parse_timestamp("9999-12-31") == date(9999, 12, 31)


def test_epoch_round_trip():
    for ts in (date(1895, 1, 1), date(1969, 12, 31), datetime(2010, 6, 5, 23, 59, 59, 123456)):
        assert from_epoch_us(epoch_us(ts)) == ts
    # a midnight datetime collapses to the calendar date (same instant)
    assert from_epoch_us(epoch_us(datetime(2010, 6, 5))) == date(2010, 6, 5)


def test_iso_forms():
    assert iso(date(1901, 2, 3)) == "1901-02-03"
    assert iso(datetime(1901, 2, 3, 4, 5)) == "1901-02-03T04:05:00"


def test_month_index_round_trip():
    for ym in ((1895, 1), (1969, 12), (1970, 1), (2010, 7)):
        assert month_from_index(month_index(*ym)) == ym


def test_parse_month():
    assert parse_month("1895-01") == (1895, 1)
    assert parse_month("2011-01-01") == (2011, 1)
    with pytest.raises(ValueError):
        parse_month("2011-13")
    with pytest.raises(ValueError):
        parse_month("2011-01-15")


def test_monday_anchor():
    assert monday_on_or_before(date(2000, 1, 3)) == date(2000, 1, 3)  # a Monday
    assert monday_on_or_before(date(2000, 1, 9)) == date(2000, 1, 3)  # Sunday -> back 6
