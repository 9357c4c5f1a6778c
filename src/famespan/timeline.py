"""Per-name timelines and the three name-set filters.

A timeline is the multiset of timestamps at which a name appears.  It is
stored as two parallel arrays (distinct timestamps in microseconds since
the epoch, and their multiplicities), which keeps merging one sort of a
single (name, time) key per mention and peak detection a pure array
computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus_io import MAX_COUNT, Block
from .dates import Timestamp, epoch_us, from_epoch_us, iso, parse_timestamp
from .errors import DataError
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
        """Build from (timestamp, count) pairs; duplicates merge additively.
        A count outside [1, 2**63 - 1] raises ValueError."""
        timelines = build_timelines((name, ts, _checked_count(name, count)) for ts, count in pairs)
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


class _Codes(dict):
    """Name -> code, a new name taking the next code on first lookup."""

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self)
        return code


class MentionColumns:
    """Mentions in flat columns, added a document or a block at a time: an
    interned name code and a count per mention, an epoch-µs time per
    document."""

    def __init__(self, mentions: Iterable[Mention] = ()):
        from array import array  # imported on use, so stats and report load less
        self.codes: dict[str, int] = _Codes()
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

    def add_block(self, block: Block) -> None:
        """A block of pre-tagged documents: its names interned with one
        map, every column appended from a list."""
        self.name_code.fromlist(list(map(self.codes.__getitem__, block.names)))
        self.count.fromlist(block.counts)
        self.doc_us.fromlist([stamp.us for stamp in block.stamps])
        self.doc_size.fromlist(block.sizes)


def build_timelines(
    mentions: Iterable[Mention] | MentionColumns, keep: np.ndarray | None = None
) -> dict[str, Timeline]:
    """Aggregate mentions into per-name timelines (order-independent merge).

    ``keep`` selects documents of a MentionColumns.  Each mention becomes
    one int64 key, name code * n_times + rank of its document's time among
    the distinct kept times; mentions of dropped documents get a key above
    every kept one.  One argsort of that key, add.reduceat over each run of
    equal keys, and every timeline is a slice of the merged arrays.  The
    sort holds 2.5 int64 words per mention; summing holds 2 per mention
    plus 2 per distinct (name, time) pair.  A name whose counts sum to
    2**63 or more raises DataError.
    """
    cols = mentions if isinstance(mentions, MentionColumns) else MentionColumns(mentions)
    size, doc_us = np.frombuffer(cols.doc_size, np.int32), np.frombuffer(cols.doc_us, np.int64)
    code, count = np.frombuffer(cols.name_code, np.int32), np.frombuffer(cols.count, np.int64)
    picked = slice(None) if keep is None else keep
    n_kept = int(size[picked].sum(dtype=np.int64))
    if not n_kept:
        return {}
    # a dropped document's rank puts its mentions' keys above every kept key
    rank = np.full(len(doc_us), len(cols.codes) * len(doc_us), dtype=np.int64)
    times, rank[picked] = np.unique(doc_us[picked], return_inverse=True)
    n_times = len(times)
    key = code.astype(np.int64)
    key *= n_times
    key += np.repeat(rank, size)
    del rank
    # the narrowest index type that holds every position (4 bytes below
    # 2**32 mentions) keeps the gathers at 2.5 words per mention
    order = np.argsort(key)[:n_kept].astype(np.min_scalar_type(len(key)))
    key = key[order]
    count = count[order]
    del order
    names = list(cols.codes)
    if int(count.max()) * n_kept >= 2**63:
        _reject_overflow(names, key // n_times, count)
    first = _run_starts(key)
    key = key[first]
    count = np.add.reduceat(count, first)
    del first
    code = key // n_times
    cut = _run_starts(code)
    times = times[np.remainder(key, n_times, out=key)]
    bounds = np.append(cut, len(times)).tolist()
    return {names[c]: Timeline(names[c], times[a:b], count[a:b])
            for c, a, b in zip(code[cut].tolist(), bounds, bounds[1:])}


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a non-empty 1-D array."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _reject_overflow(names: list[str], code: np.ndarray, count: np.ndarray) -> None:
    """Raise DataError for the first name (by code) whose counts, summed
    exactly, reach 2**63, which an int64 sum would wrap."""
    first = _run_starts(code)
    totals = np.add.reduceat(count.astype(object), first)
    over = np.flatnonzero(totals >= 2**63)
    if over.size:
        i = int(over[0])
        raise DataError(f"mentions of {names[code[first[i]]]!r} sum to {totals[i]}, "
                        "beyond the int64 count range (2**63 - 1)")


def basic_name_filter(timelines: dict[str, Timeline], min_total: int = 10) -> dict[str, Timeline]:
    """Drop names mentioned fewer than min_total times in total."""
    return {name: t for name, t in timelines.items() if t.total >= min_total}


def yearly_counts(timelines: dict[str, Timeline]) -> list[YearlyCount]:
    """Total mentions of each name in each calendar year (zero years omitted)."""
    out: list[YearlyCount] = []
    for name, t in timelines.items():
        years = t.times_us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64) + 1970
        first = _run_starts(years)
        # times are sorted, so each year is one run; int64 sums stay exact
        for year, count in zip(years[first].tolist(), np.add.reduceat(t.counts, first).tolist()):
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
    """The timelines of a write_timelines_tsv file; a count outside
    [1, 2**63 - 1] raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.rstrip("\n")]
    return build_timelines((name, parse_timestamp(ts), _checked_count(name, int(count)))
                           for name, ts, count in rows)


def _checked_count(name: str, count: int) -> int:
    """``count`` when it is a mention count the int64 columns hold, as the
    corpus readers require; ValueError otherwise."""
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"timeline {name!r}: count must be in [1, 2**63 - 1], got {count}")
    return count
