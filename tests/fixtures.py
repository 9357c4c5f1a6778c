"""Bundled timelines on which the two detectors disagree by construction.

Useful as smoke checks and documentation: the same mention history can
read as a short burst (spike) or a long stretch of sustained interest
(continuity), depending on which question is asked.

* monroe-like: years of steady low-rate mentions, a long quiet stretch,
  then an intense terminal burst.  Continuity selects the multi-year
  run; spike selects the burst, more than 5x shorter.
* astor-like: an early two-week burst, decades of silence, then a later
  five-month run of regular mentions.  Spike stays on the early burst;
  continuity selects the later run; the two periods are disjoint.
"""

from __future__ import annotations

from datetime import date, timedelta

from famespan.errors import ConfigError
from famespan.timeline import Timeline

FIXTURE_KINDS = ("monroe-like", "astor-like")


def fixture_timeline(kind: str) -> Timeline:
    if kind == "monroe-like":
        return _monroe_like()
    if kind == "astor-like":
        return _astor_like()
    raise ConfigError(f"unknown fixture kind {kind!r}; expected one of {FIXTURE_KINDS}")


def _monroe_like() -> Timeline:
    pairs = []
    bulk_start = date(1950, 2, 14)
    for i in range(250):  # steady mention every 5 days for ~3.4 years
        pairs.append((bulk_start + timedelta(days=5 * i), 1))
    burst_start = bulk_start + timedelta(days=5 * 249 + 60)
    for i in range(21):  # daily burst, far above the bulk's weekly rate
        pairs.append((burst_start + timedelta(days=i), 5))
    return Timeline.from_pairs("monroe-like", pairs)


def _astor_like() -> Timeline:
    pairs = []
    burst_start = date(1890, 3, 3)
    for i in range(14):  # early dense burst
        pairs.append((burst_start + timedelta(days=i), 4))
    run_start = date(1912, 3, 23)
    for i in range(0, 160, 3):  # later sustained run, low weekly rate
        pairs.append((run_start + timedelta(days=i), 1))
    return Timeline.from_pairs("astor-like", pairs)
