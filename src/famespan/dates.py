"""Timestamp plumbing shared by the whole pipeline.

Timestamps arrive as ISO-8601 strings at either day or sub-day precision
and are kept at the finest precision given: day-precision values stay
``datetime.date``, finer ones become naive-UTC ``datetime.datetime``.
Internally the number-crunching modules work on integer microseconds
since the Unix epoch (int64 arrays of them), which makes gap and
binning arithmetic exact instead of float-fuzzy.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta

US_PER_DAY = 86_400_000_000
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

# YYYY-MM-DD or YYYY-MM-DDTHH:MM[:SS[.f]] (1-6 digits) [Z|+-HH:MM], ASCII digits
_TIMESTAMP_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})(?:T(\d{2}):(\d{2})(?::(\d{2})(?:\.(\d{1,6}))?)?"
                           r"(Z|[+-](?:[01]\d|2[0-3]):[0-5]\d)?)?", re.ASCII)

Timestamp = date | datetime


def parse_timestamp(raw: str) -> Timestamp:
    """Parse ``YYYY-MM-DD`` or ``YYYY-MM-DDTHH:MM[:SS[.ffffff]]`` with an
    optional ``Z`` or ``+-HH:MM``; every other form and invalid calendar
    dates raise ValueError.  Offsets are converted to naive UTC.
    """
    m = _TIMESTAMP_RE.fullmatch(raw.strip())
    if m is None:
        raise ValueError(f"not a YYYY-MM-DD[THH:MM[:SS[.ffffff]]][Z|+-HH:MM] timestamp: {raw!r}")
    y, mo, d, hh, mi, ss, frac, offset = m.groups()
    if hh is None:
        return date(int(y), int(mo), int(d))
    dt = datetime(int(y), int(mo), int(d), int(hh), int(mi), int(ss or 0),
                  int((frac or "0").ljust(6, "0")))
    if offset in (None, "Z"):
        return dt
    try:
        return dt - int(offset[0] + "1") * timedelta(hours=int(offset[1:3]), minutes=int(offset[4:]))
    except OverflowError as exc:
        raise ValueError(f"{raw!r} is out of range in UTC") from exc


def epoch_us(ts: Timestamp) -> int:
    """Microseconds since 1970-01-01 (negative before the epoch)."""
    days = ts.toordinal() - _EPOCH_ORDINAL
    us = days * US_PER_DAY
    if isinstance(ts, datetime):
        us += ((ts.hour * 60 + ts.minute) * 60 + ts.second) * 1_000_000 + ts.microsecond
    return us


def from_epoch_us(us: int) -> Timestamp:
    """Inverse of epoch_us; midnight values come back as plain dates."""
    days, rem = divmod(int(us), US_PER_DAY)
    d = date.fromordinal(days + _EPOCH_ORDINAL)
    if rem == 0:
        return d
    return datetime(d.year, d.month, d.day) + timedelta(microseconds=rem)


def iso(ts: Timestamp) -> str:
    """Canonical ISO text: plain date for day precision, 'T'-separated otherwise."""
    return ts.isoformat()


def month_of(ts: Timestamp) -> tuple[int, int]:
    return (ts.year, ts.month)


def month_start(year: int, month: int) -> date:
    return date(year, month, 1)


def month_index(year: int, month: int) -> int:
    """Calendar months since 1970-01 (the cohort bucket anchor)."""
    return (year - 1970) * 12 + (month - 1)


def month_from_index(idx: int) -> tuple[int, int]:
    return 1970 + idx // 12, idx % 12 + 1


def parse_month(raw: str) -> tuple[int, int]:
    """Parse 'YYYY-MM' (or a full date on a month boundary)."""
    s = raw.strip()
    m = re.match(r"^(\d{4})-(\d{2})$", s)
    if m:
        year, month = int(m.group(1)), int(m.group(2))
        month_start(year, month)  # validates the month
        return year, month
    d = parse_timestamp(s)
    if isinstance(d, datetime) or d.day != 1:
        raise ValueError(f"not a month boundary: {raw!r}")
    return d.year, d.month


def monday_on_or_before(d: date) -> date:
    return d - timedelta(days=d.weekday())
