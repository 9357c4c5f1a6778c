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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus_io import MAX_COUNT, Block
from .dates import Timestamp, epoch_us
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
        A count outside [1, 2**63 - 1], which the int64 columns and the
        corpus readers refuse, raises ValueError."""
        pairs = list(pairs)
        for _, count in pairs:
            if not 1 <= count <= MAX_COUNT:
                raise ValueError(f"timeline {name!r}: count must be in [1, 2**63 - 1], got {count}")
        timelines = build_timelines((name, ts, count) for ts, count in pairs)
        if not timelines:
            raise ValueError(f"timeline {name!r} is empty")
        return timelines[name]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

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


# each column typecode's next wider one: counts take 1, 4 and then 8
# bytes, name codes 2 and then 4 (see MentionColumns)
_WIDER = {"B": "I", "I": "q", "H": "i"}

# values converted or looked up at a time (see merge and build_timelines)
_CHUNK = 1 << 14


class MentionColumns:
    """Mentions in flat columns, added a document or a block at a time: an
    interned name code and a count per mention, an epoch-µs time and a
    mention count per document.  Name codes follow the names' first
    appearance.  A column starts narrow and widens on the first value that
    does not fit (see _extend): counts take 1 byte, 4 from the first of
    256 on and 8 from the first of 2**32 on; name codes take 2 bytes, 4
    from the 65,537th name on.  As a corpus_io.Sink, a byte range's
    columns are appended whole.  build_timelines consumes the columns:
    it empties the document times and sizes once it has ranked them."""

    def __init__(self, mentions: Iterable[Mention] = ()):
        from array import array  # imported on use, so stats and report load less
        self.codes: dict[str, int] = _Codes()
        self.name_code, self.count = array("H"), array("B")
        self.doc_us, self.doc_size = array("q"), array("i")
        for name, ts, count in mentions:
            self.add(ts, ((name, count),))

    def add(self, ts: Timestamp | int, mentions: Sequence[tuple[str, int]]) -> None:
        """One document's (name, count) mentions at time ``ts``."""
        self._extend("name_code", [self.codes[name] for name, _ in mentions])
        self._extend("count", [n for _, n in mentions])
        self.doc_us.append(ts if isinstance(ts, int) else epoch_us(ts))
        self.doc_size.append(len(mentions))

    def add_block(self, block: Block) -> None:
        """A block of pre-tagged documents: its names interned with one
        map, every column appended from a list."""
        self._extend("name_code", list(map(self.codes.__getitem__, block.names)))
        self._extend("count", block.counts)
        self.doc_us.fromlist([stamp.us for stamp in block.stamps])
        self.doc_size.fromlist(block.sizes)

    def _extend(self, column: str, values: list[int]) -> None:
        """Append values to the name codes or the counts, the column copied
        into the next wider typecode of _WIDER while one does not fit."""
        while True:
            try:
                return getattr(self, column).fromlist(values)  # appends nothing if it raises
            except OverflowError:
                typecode = getattr(self, column).typecode
                if typecode not in _WIDER:
                    raise
                self._widen(column, _WIDER[typecode])

    def _widen(self, column: str, typecode: str) -> None:
        """Copy a column into ``typecode``."""
        from array import array
        narrow, wide = getattr(self, column), array(typecode)
        wide.frombytes(np.frombuffer(narrow, narrow.typecode).astype(typecode).view(np.uint8))
        setattr(self, column, wide)

    def shard(self) -> "MentionColumns":
        return MentionColumns()

    def held(self) -> list:
        """The names in code order, the codes' and the counts' typecodes and
        each column's bytes (see _Keyed.held)."""
        columns = (self.name_code, self.count, self.doc_us, self.doc_size)
        return [list(self.codes), self.name_code.typecode, self.count.typecode,
                *(column.tobytes() for column in columns)]

    def merge(self, held: list) -> None:
        """Append a shard's columns, its name codes renumbered by one
        lookup per distinct name and a gather.  Either side may hold the
        wider codes or counts; this side's widen to the wider.  Each
        column's bytes leave ``held`` once appended, so that no share's
        column is held twice."""
        names, code_type, count_type = held[:3]
        del held[:3]
        recode = list(map(self.codes.__getitem__, names))
        if len(self.codes) > 1 << 16 and self.name_code.typecode == "H":
            self._widen("name_code", "i")
        if np.dtype(count_type).itemsize > self.count.itemsize:
            self._widen("count", count_type)
        recode = np.array(recode, self.name_code.typecode)
        columns = (self.name_code, self.count, self.doc_us, self.doc_size)
        for column, typecode in zip(columns, (code_type, count_type, "q", "i")):
            values = np.frombuffer(held.pop(0), typecode)
            for at in range(0, len(values), _CHUNK):
                part = values[at:at + _CHUNK]
                part = recode[part] if column is self.name_code else part.astype(column.typecode, copy=False)
                column.frombytes(part.view(np.uint8))


_SLICE_MENTIONS, _MAX_SLICES = 1 << 16, 16  # see build_timelines


def build_timelines(
    mentions: Iterable[Mention] | MentionColumns, keep: np.ndarray | None = None
) -> dict[str, Timeline]:
    """Aggregate mentions into per-name timelines (order-independent merge).

    ``keep`` selects documents of a MentionColumns.  The distinct kept
    times come from one sort of the kept times; each kept document's rank
    among them from np.searchsorted, and each mention gets its document's
    rank, as int16 below 2**15 distinct times and as int32 from there on.
    The name codes are cut, in code order, into slices of about
    _SLICE_MENTIONS mentions, at most _MAX_SLICES (each a pass over the
    columns); per slice one argsort of an int64 key per kept mention,
    code * n_times + rank, and add.reduceat over each run of equal keys
    merge its timelines.  Once each mention has its rank, the document
    times and sizes (12 bytes per document) are emptied: the merge
    consumes the MentionColumns it is given, which must not be merged
    again.  Beside the name codes and counts it then holds 4 bytes per
    mention with int16 ranks (rank, slice, the slice's mask), and 28 per
    mention of the slice being sorted.  A name whose counts sum to 2**63
    or more raises DataError.
    """
    cols = mentions if isinstance(mentions, MentionColumns) else MentionColumns(mentions)
    size, doc_us = np.frombuffer(cols.doc_size, np.int32), np.frombuffer(cols.doc_us, np.int64)
    code, count = (np.frombuffer(column, column.typecode) for column in (cols.name_code, cols.count))
    keep = np.ones(len(size), bool) if keep is None else keep
    n_kept = int(size[keep].sum(dtype=np.int64))
    if not n_kept:
        return {}
    times = doc_us[keep]
    times.sort()
    times = times[_run_starts(times)]
    n_times, n_slices = len(times), min(_MAX_SLICES, -(-n_kept // _SLICE_MENTIONS))
    rank = np.empty(len(doc_us), np.int16 if n_times < 2**15 else np.int32)
    for at in range(0, len(doc_us), _CHUNK):
        rank[at:at + _CHUNK] = np.searchsorted(times, doc_us[at:at + _CHUNK])
    rank[~keep] = -1  # a dropped document
    rank = np.repeat(rank, size)
    del size, doc_us  # the views, so that the columns below may be emptied
    del cols.doc_us[:], cols.doc_size[:]
    # a code's slice: its share of lower-coded mentions; a dropped document's mentions are in none
    per_code = np.zeros(len(cols.codes), np.int64)
    np.add.at(per_code, code, 1)  # bincount would copy the codes to intp first
    part = ((np.cumsum(per_code) - per_code) * n_slices // len(code)).astype(np.uint8)[code]
    part[rank < 0] = n_slices
    names, timelines = list(cols.codes), {}
    for at in (np.flatnonzero(part == s) for s in range(n_slices)):
        if not len(at):
            continue
        key = code[at].astype(np.int64)
        key *= n_times
        key += rank[at]
        counts = count[at]
        del at
        order = np.argsort(key)
        key = key[order]
        counts = counts[order]
        del order
        if int(counts.max()) * len(counts) >= 2**63:
            _reject_overflow(names, key // n_times, counts)
        first = _run_starts(key)
        key = key[first]
        counts = np.add.reduceat(counts, first, dtype=np.int64)
        first = _run_starts(key // n_times)  # each name's first (name, time) pair
        slice_names = [names[c] for c in (key[first] // n_times).tolist()]
        pair_times = times[np.remainder(key, n_times, out=key)]
        bounds = np.append(first, len(key)).tolist()
        timelines.update((name, Timeline(name, pair_times[a:b], counts[a:b]))
                         for name, a, b in zip(slice_names, bounds, bounds[1:]))
    return timelines


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
