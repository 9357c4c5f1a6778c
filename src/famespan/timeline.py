"""Per-name timelines and the three name-set filters.

A timeline is the multiset of timestamps at which a name appears.  It is
stored as two parallel arrays (distinct timestamps in microseconds since
the epoch, and their multiplicities), which keeps merging one sort over
flat mention columns and peak detection a pure array computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dates import Timestamp, epoch_us, from_epoch_us, iso, parse_timestamp
from .name_extract import Mention


class Timeline:
    """Date multiset for one name: sorted distinct times + multiplicities."""

    __slots__ = ("name", "times_us", "counts")

    def __init__(self, name: str, times_us: np.ndarray, counts: np.ndarray):
        if len(times_us) == 0:
            raise ValueError(f"timeline {name!r} is empty")
        self.name = name
        self.times_us = np.asarray(times_us, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)

    @classmethod
    def from_pairs(cls, name: str, pairs: Iterable[tuple[Timestamp | int, int]]) -> "Timeline":
        """Build from (timestamp, count) pairs; duplicates merge additively."""
        timelines = build_timelines((name, ts, count) for ts, count in pairs)
        if not timelines:
            raise ValueError(f"timeline {name!r} is empty")
        return timelines[name]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def timestamps(self) -> list[Timestamp]:
        return [from_epoch_us(int(us)) for us in self.times_us]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Timeline)
            and self.name == other.name
            and np.array_equal(self.times_us, other.times_us)
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:
        return f"Timeline({self.name!r}, {len(self.times_us)} distinct times, total={self.total})"


class YearlyCount(NamedTuple):
    name: str
    year: int
    count: int


class MentionColumns:
    """Mentions in flat columns, added a document at a time: an interned
    name code and a count per mention, an epoch-µs time per document."""

    def __init__(self, mentions: Iterable[Mention] = ()):
        from array import array  # imported on use, so stats and report load less
        self.codes: dict[str, int] = {}
        self.name_code, self.count = array("i"), array("q")
        self.doc_us, self.doc_size = array("q"), array("i")
        for name, ts, count in mentions:
            self.add(ts, ((name, count),))

    def add(self, ts: Timestamp | int, mentions: Sequence[tuple[str, int]]) -> None:
        """One document's (name, count) mentions at time ``ts``."""
        codes, name_code, count = self.codes, self.name_code, self.count
        for name, n in mentions:
            code = codes.get(name)
            if code is None:
                code = codes[name] = len(codes)
            name_code.append(code)
            count.append(n)
        self.doc_us.append(ts if isinstance(ts, int) else epoch_us(ts))
        self.doc_size.append(len(mentions))


def build_timelines(
    mentions: Iterable[Mention] | MentionColumns, keep: np.ndarray | None = None
) -> dict[str, Timeline]:
    """Aggregate mentions into per-name timelines (order-independent merge).

    ``keep`` selects documents of a MentionColumns.  One lexsort by (name,
    time), add.reduceat over each run of equal pairs, and every timeline is
    a slice of the merged arrays.
    """
    cols = mentions if isinstance(mentions, MentionColumns) else MentionColumns(mentions)
    size, doc_us = np.frombuffer(cols.doc_size, np.int32), np.frombuffer(cols.doc_us, np.int64)
    code, count = np.frombuffer(cols.name_code, np.int32), np.frombuffer(cols.count, np.int64)
    if keep is not None:
        picked = np.repeat(keep, size)
        code, count, doc_us, size = code[picked], count[picked], doc_us[keep], size[keep]
    times = np.repeat(doc_us, size)
    order = np.lexsort((times, code))
    code, times, count = code[order], times[order], count[order]
    if not len(code):
        return {}
    new_pair = (code[1:] != code[:-1]) | (times[1:] != times[:-1])
    first = np.flatnonzero(np.concatenate(([True], new_pair)))
    code, times, count = code[first], times[first], np.add.reduceat(count, first)
    cut = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
    names, bounds = list(cols.codes), np.append(cut, len(code)).tolist()
    return {names[c]: Timeline(names[c], times[a:b], count[a:b])
            for c, a, b in zip(code[cut].tolist(), bounds, bounds[1:])}


def basic_name_filter(timelines: dict[str, Timeline], min_total: int = 10) -> dict[str, Timeline]:
    """Drop names mentioned fewer than min_total times in total."""
    return {name: t for name, t in timelines.items() if t.total >= min_total}


def yearly_counts(timelines: dict[str, Timeline]) -> list[YearlyCount]:
    """Total mentions of each name in each calendar year (zero years omitted)."""
    out: list[YearlyCount] = []
    for name, t in timelines.items():
        years = t.times_us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64) + 1970
        uniq, inverse = np.unique(years, return_inverse=True)
        sums = np.bincount(inverse, weights=t.counts).astype(np.int64)
        for year, count in zip(uniq.tolist(), sums.tolist()):
            out.append(YearlyCount(name, year, count))
    return out


def _rank_by_year(counts: Iterable[YearlyCount]) -> dict[int, list[tuple[int, str]]]:
    by_year: dict[int, list[tuple[int, str]]] = {}
    for name, year, count in counts:
        by_year.setdefault(year, []).append((count, name))
    return by_year


def _top_of_year(entries: list[tuple[int, str]], take: int) -> list[str]:
    # highest count first; ties go to the lexicographically smaller name
    entries.sort(key=lambda e: (-e[0], e[1]))
    return [name for _, name in entries[:take]]


def top_k_by_year(counts: Iterable[YearlyCount], k: int = 1000) -> set[str]:
    """Union over years of each year's k most-mentioned names."""
    selected: set[str] = set()
    for entries in _rank_by_year(counts).values():
        selected.update(_top_of_year(entries, k))
    return selected


def top_frac_by_year(
    counts: Iterable[YearlyCount], per_mille: Fraction | float | int = Fraction(1, 1000)
) -> set[str]:
    """Union over years of each year's top ceil(n_y * fraction) names.

    n_y is the number of distinct names mentioned in year y, so the cut
    scales with corpus breadth instead of being a fixed count.
    """
    frac = per_mille if isinstance(per_mille, Fraction) else Fraction(str(per_mille))
    if frac <= 0:
        raise ValueError("fraction must be positive")
    selected: set[str] = set()
    for entries in _rank_by_year(counts).values():
        take = math.ceil(len(entries) * frac)
        selected.update(_top_of_year(entries, take))
    return selected


def write_timelines_tsv(timelines: dict[str, Timeline], path: str | Path) -> None:
    """Persist as (name, timestamp, multiplicity) rows, byte-stable order."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(timelines):
            t = timelines[name]
            for us, count in zip(t.times_us.tolist(), t.counts.tolist()):
                fh.write(f"{name}\t{iso(from_epoch_us(us))}\t{count}\n")


def read_timelines_tsv(path: str | Path) -> dict[str, Timeline]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.rstrip("\n")]
    return build_timelines((name, parse_timestamp(ts), int(count)) for name, ts, count in rows)
