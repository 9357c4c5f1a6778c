"""Read, validate, and window timestamped documents.

Two line-oriented UTF-8 schemas: ``raw``, JSON objects with ``id``,
``date`` and ``text``; and ``pretagged``, JSON objects with ``id``,
``date`` and ``mentions`` (``[name, count]`` pairs), or TSV lines
``date<TAB>name<TAB>count`` whose id is ``tsv:<first 16 hex digits of the
file's sha256>:<line number>``.

A DocumentReader reads _BLOCK_LINES lines at a time.  The json module's C
scanner decodes each line once, accepted only when the value spans the
line; id, date and payload type are checked per line, and a file's date
strings are parsed once each.  One test of C-level builtins over a
block's flattened mention pairs checks every pre-tagged line of it; a
block that fails is validated again line by line, so each bad line gets
its own error.  Blocks stay small so that their decoded containers stay
under the garbage collector's generation-0 threshold (700), whose
collections would otherwise walk them again and again.  The well-formed
lines in the window become a Block of columns; records() flattens a
block into ``(id, Stamp, payload)``, the payload being a raw line's text or
the (names, counts) lists of a pre-tagged one.

Lines end in LF, CRLF or CR.  _lines decodes them _READ_BYTES at a time
through the standard library's incremental decoders.  A read that is not
UTF-8 is decoded with each bad byte as a lone surrogate; in the lines it
touches, or in lines holding a ``\\ud`` escape, a line with a lone
surrogate is malformed: before parsing it is not UTF-8, after it an
escape left one in its id, text or a name.

DocumentReader.read() feeds a whole file to a Sink.  A regular file is
cut after LF bytes into forks.share_count byte ranges: one per
_SHARD_MIN_BYTES and at most one per usable CPU, so a file without a LF
is one range.  forks.shares() runs one task per range: the process reads
the first range into the sink, and a forked child per other range reads
it into a sink.shard() of its own and pickles back its Tally and what
that sink held().  The parent merges the shares in file order, each
column of a share dropped once appended (see Sink.merge), so sinks,
ReadStats and error texts are those of a read in one process.  A file
that is not regular (a pipe) is one range, read and hashed in the
process.

Malformed lines are counted and skipped; if more than 10% of non-blank
lines are malformed the reader raises SchemaError at end of stream,
since that level of breakage signals the wrong schema choice rather
than dirty data.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import re
import stat
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import lru_cache, partial
from itertools import accumulate, chain, islice
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, Union

from .dates import Timestamp, epoch_us, iso, month_index, parse_timestamp
from .errors import DataError, SchemaError

MALFORMED_FRACTION_LIMIT = 0.10

# A range's date memo holds this many strings, dropping the least recently
# used: a file of mostly distinct dates (a sparse century corpus) then keeps
# about 0.3 MB of them instead of one entry per line, and a date-sorted file
# still parses each distinct string once.
_STAMP_MEMO_LIMIT = 1024

# Input lines per block: about 7 decoded containers per line keep a block
# below the garbage collector's generation-0 threshold of 700.
_BLOCK_LINES = 32

# Bytes decoded at a time.
_READ_BYTES = 1 << 16

# A file is cut into byte ranges of at least this size, one per usable CPU.
_SHARD_MIN_BYTES = 2 << 20

_scan_json = json.JSONDecoder().scan_once

# a lone surrogate: a byte that is not UTF-8, or an unpaired \ud800-\udfff escape
_surrogate = re.compile("[\ud800-\udfff]").search

SCHEMAS = ("raw", "pretagged")

# The largest mention count, an int64's (see timeline.MentionColumns).
MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class AnalysisWindow:
    """Half-open [start, end) date range; both ends on month boundaries."""

    start: date
    end: date

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} not before end {self.end}")
        if self.start.day != 1 or self.end.day != 1:
            raise ValueError("window boundaries must be the first of a month")

    def contains(self, ts: Timestamp) -> bool:
        d = ts.date() if isinstance(ts, datetime) else ts
        return self.start <= d < self.end


@dataclass
class ReadStats:
    """Per-file accounting filled in as the reader is consumed."""

    lines: int = 0
    blank: int = 0
    documents: int = 0
    malformed: int = 0
    errors: list[str] = field(default_factory=list)


class Stamp(NamedTuple):
    """A parsed date string: the timestamp, its epoch microseconds, its
    month index and whether it falls in the reader's window."""

    timestamp: Timestamp
    us: int
    month: int
    inside: bool


def _stamp(window: AnalysisWindow | None, raw: str) -> Stamp:
    """The Stamp of a date string; ValueError if it does not parse."""
    ts = parse_timestamp(raw)
    return Stamp(ts, epoch_us(ts), month_index(ts.year, ts.month), window is None or window.contains(ts))


Payload = Union[str, tuple[list[str], list[int]]]
Record = tuple[str, Stamp, Payload]


class Block(NamedTuple):
    """The well-formed lines of a run of input lines that fall in the
    window, as columns: ids and Stamps, then the texts of raw lines or the
    names and counts of every pre-tagged mention with each line's number
    of mentions."""

    ids: Sequence[str]
    stamps: Sequence[Stamp]
    texts: Sequence[str] | None = None
    names: list[str] | None = None
    counts: list[int] | None = None
    sizes: list[int] | None = None

    def records(self) -> Iterator[Record]:
        """Each line's (id, Stamp, payload)."""
        if self.texts is not None:
            return zip(self.ids, self.stamps, self.texts)
        return ((doc_id, stamp, (self.names[end - n:end], self.counts[end - n:end]))
                for doc_id, stamp, n, end in zip(self.ids, self.stamps, self.sizes, accumulate(self.sizes)))


class Sink(Protocol):
    """What DocumentReader.read() feeds: it takes Blocks in file order.  A
    sink that shard() made for a forked child comes back as the plain
    values of its held(), which pickle where the sink itself may not, and
    merge() appends them."""

    def add_block(self, block: Block) -> None:
        """Take the next Block."""

    def shard(self) -> "Sink":
        """An empty sink of the same kind, for one byte range of a file."""

    def held(self) -> object:
        """What this sink holds, as values that pickle."""

    def merge(self, held: object) -> None:
        """Append what another sink's held() returned, dropping from it
        what it has appended where it can."""


# a byte range's counts, and its first 10 errors with line numbers counted
# from the range's start
Tally = tuple[ReadStats, list[tuple[int, str]]]


class DocumentReader:
    """One input file, read() into a Sink; .stats is complete once the
    whole file has been read."""

    def __init__(self, path: str | Path, schema: str):
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
        self.path = Path(path)
        self.schema = schema
        self.stats = ReadStats()
        # the sha256 of the bytes read() read from a file that is not
        # regular (a pipe), which cannot be read again to hash it, or of a
        # TSV file, which _sniff hashes for its ids
        self.digest: str | None = None

    def read(self, sink: Sink, window: AnalysisWindow | None = None) -> None:
        """Feed the Blocks of the whole file to ``sink`` in file order (see
        the module notes).  The file is opened once here, so a pipe is read
        once, and hashed as it is read."""
        from .forks import shares
        with open(self.path, "rb") as fh:
            ranges = _byte_ranges(fh)
            source = fh if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else _Hashed(fh)
            tsv_ids = self._tsv_ids() if len(ranges) > 1 else None
            tasks = [partial(self._read_range, source, sink, window, tsv_ids, *ranges[0])]
            tasks += [partial(self._read_range, None, sink.shard(), window, tsv_ids, start, end)
                      for start, end in ranges[1:]]
            parts = shares(tasks, lambda k: f"{self.path}: the reader of bytes {ranges[k][0]} to "
                                            f"{ranges[k][1] or 'the end'}")
        if source is not fh:
            self.digest = source.sha256.hexdigest()
        for _, held in parts[1:]:
            sink.merge(held)
        self._finish([tally for tally, _ in parts])

    def _tsv_ids(self) -> str:
        """The _sniff of a regular file, read ahead of its byte ranges."""
        with open(self.path, "rb") as fh:
            for lines, _ in _lines(fh, 0, None):
                if (tsv_ids := self._sniff(lines)) is not None:
                    return tsv_ids
        return ""

    def _sniff(self, lines: list[str]) -> str | None:
        """The id prefix of a TSV file, "" for JSON lines, None while every
        line is blank: a pre-tagged file is TSV unless its first non-blank
        line starts with "{"."""
        if self.schema != "pretagged":
            return ""
        for line in lines:
            if text := line.strip():
                if text.startswith("{"):
                    return ""
                if not stat.S_ISREG(os.stat(self.path).st_mode):
                    raise DataError(f"{self.path}: a TSV input must be a regular file, "
                                    "since its ids carry the file's sha256")
                self.digest = sha256_file(self.path)
                return f"tsv:{self.digest[:16]}:"
        return None

    def _read_range(self, fh: BinaryIO | _Hashed | None, sink: Sink, window: AnalysisWindow | None,
                    tsv_ids: str | None, start: int, end: int | None) -> tuple[Tally, object]:
        """Read the lines in bytes [start, end) of the file (to its end if
        ``end`` is None), which begin just after a newline, into ``sink``:
        through ``fh``, or if it is None (in a forked child) through a file
        of its own.  Their Tally, with lines numbered from 1 in its first 10
        errors, and, from a child, sink.held().  TSV ids count the lines
        before ``start`` too; with ``tsv_ids`` None, the first range sniffs
        it from its own lines."""
        stats, errors = tally = ReadStats(), []
        schema = self.schema
        # lru_cache stores no exception, so a date that does not parse fails on every line
        stamps = lru_cache(_STAMP_MEMO_LIMIT)(partial(_stamp, window))
        before, lineno = 0, 1
        with open(self.path, "rb") if fh is None else nullcontext(fh) as source:
            if start:
                before = _count_lines(source, start) if tsv_ids else 0
                source.seek(start)
            for lines, suspect in _lines(source, start, end):
                if tsv_ids is None:
                    tsv_ids = self._sniff(lines)
                numbered = enumerate(lines, start=lineno)
                lineno += len(lines)
                while chunk := list(islice(numbered, _BLOCK_LINES)):
                    records, linenos, failed = [], [], []
                    for n, line in chunk:
                        try:
                            stripped = line.strip()
                            if not stripped:
                                stats.blank += 1
                                continue
                            if suspect and _surrogate(stripped):
                                raise ValueError("invalid UTF-8")
                            if tsv_ids:
                                record = _parse_tsv_line(stripped, f"{tsv_ids}{before + n}", stamps)
                            else:
                                record = _parse_json_line(stripped, schema, stamps)
                            if suspect:
                                _check_strings(record)
                            records.append(record)
                            linenos.append(n)
                        except (ValueError, KeyError, TypeError) as exc:
                            failed.append((n, exc))
                    block = _block(records, linenos, failed, schema)
                    stats.lines += len(chunk)
                    stats.malformed += len(failed)
                    errors += [(n, str(exc)) for n, exc in failed[:10 - len(errors)]]
                    if block:
                        sink.add_block(block)
        return tally, sink.held() if fh is None else None

    def _finish(self, tallies: list[Tally]) -> None:
        """Add the Tallies of the file's byte ranges, in file order, to
        .stats, with line numbers counted from the file's start; raise
        SchemaError past the malformed limit."""
        stats = self.stats
        for part, errors in tallies:
            stats.errors += [f"{self.path.name}:{stats.lines + n}: {message}"
                             for n, message in errors[:10 - len(stats.errors)]]
            stats.lines += part.lines
            stats.blank += part.blank
            stats.malformed += part.malformed
        stats.documents = stats.lines - stats.blank - stats.malformed
        processed = stats.documents + stats.malformed
        if processed and stats.malformed / processed > MALFORMED_FRACTION_LIMIT:
            raise SchemaError(
                f"{self.path}: {stats.malformed} of {processed} lines malformed "
                f"(>{MALFORMED_FRACTION_LIMIT:.0%}); wrong --schema? "
                f"first errors: {'; '.join(stats.errors[:3])}"
            )


class ListSink:
    """A Sink that keeps ``convert(block)``'s items of every block in
    .items."""

    def __init__(self, convert: Callable[[Block], Iterable]):
        self.convert = convert
        self.items: list = []

    def add_block(self, block: Block) -> None:
        self.items.extend(self.convert(block))

    def shard(self) -> "ListSink":
        return ListSink(self.convert)

    def held(self) -> list:
        return self.items

    def merge(self, held: list) -> None:
        self.items += held


def _byte_ranges(fh: BinaryIO) -> list[tuple[int, int | None]]:
    """The byte ranges a file is read in, forks.share_count of a regular
    file's size in _SHARD_MIN_BYTES, each cut just after the first "\\n" at
    or past an even share of the size but before the last byte.  A share
    is searched _READ_BYTES at a time and no further than the next one,
    whose own search finds a "\\n" that lies past it."""
    from .forks import share_count
    info = os.fstat(fh.fileno())
    size = info.st_size if stat.S_ISREG(info.st_mode) else 0
    n = share_count(size, _SHARD_MIN_BYTES)
    cuts = [0]
    for k in range(1, n):
        at, stop = k * size // n, min((k + 1) * size // n, size - 1)
        fh.seek(at)
        while at < stop and (data := fh.read(min(_READ_BYTES, stop - at))):
            if (newline := data.find(b"\n")) >= 0:
                cuts.append(at + newline + 1)
                break
            at += len(data)
    if n > 1:
        fh.seek(0)
    return list(zip(cuts, [*cuts[1:], None]))


def _lines(fh: BinaryIO, start: int, end: int | None) -> Iterator[tuple[list[str], bool]]:
    """The lines of bytes [start, end) of ``fh`` (to its end if None), which
    is at ``start``, split at LF, CRLF and CR as universal newlines split
    them, with a byte-order mark at the file's start dropped.  Each read of
    _READ_BYTES that ends lines gives those lines, carrying the unfinished
    one, so a batch holds at most its first line and one read more.  A batch
    is suspect if a read it touches is not UTF-8, and so was decoded with
    each bad byte as a lone surrogate, or if it holds a ``\\ud`` escape."""
    decoder = codecs.getincrementaldecoder("utf-8-sig" if start == 0 else "utf-8")()
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    carried: list[str] = []
    carried_bad = False
    while True:
        data = fh.read(_READ_BYTES if end is None else min(end - fh.tell(), _READ_BYTES))
        if not data:  # at the end utf-8-sig would drop a file that is only the start of a BOM
            decoder.setstate((decoder.getstate()[0], 0))
        state = decoder.getstate()
        try:
            text, bad = decoder.decode(data, not data), False
        except UnicodeDecodeError:
            # an incremental decoder may switch error handlers between calls
            decoder.setstate(state)
            decoder.errors = "surrogateescape"
            text, bad = decoder.decode(data, not data), True
            decoder.errors = "strict"
        text = newlines.decode(text, not data)
        carried_bad = carried_bad or bad
        if data and "\n" not in text:
            carried.append(text)
            continue
        text = "".join([*carried, text])
        lines = text.split("\n")
        carried = [lines.pop()] if data or not lines[-1] else []
        if lines:
            # a backslash is found by memchr, a three-character string is not
            yield lines, carried_bad or "\\" in text and ("\\ud" in text or "\\uD" in text)
        carried_bad = bad
        if not data:
            return


def _count_lines(fh: BinaryIO, end: int) -> int:
    """The number of lines in the first ``end`` bytes of ``fh``, which end
    just after a newline."""
    fh.seek(0)
    return sum(len(lines) for lines, _ in _lines(fh, 0, end))


class _Hashed:
    """A file that is only read(), hashed as it is read."""

    def __init__(self, fh: BinaryIO):
        import hashlib  # imported on use: it maps OpenSSL, which only a SHA-256 needs
        self.fh, self.sha256 = fh, hashlib.sha256()

    def read(self, n: int) -> bytes:
        data = self.fh.read(n)
        self.sha256.update(data)
        return data


def sha256_file(path: str | Path) -> str:
    import hashlib  # see _Hashed
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse_json_line(line: str, schema: str, stamps: Callable[[str], Stamp]) -> tuple[str, Stamp, str | list]:
    """The id, Stamp and payload of a stripped line: a raw line's text, a
    pre-tagged line's mention array with its items unchecked."""
    try:
        rec, end = _scan_json(line, 0)
    except StopIteration:
        rec, end = None, 0
    if end < len(line):
        json.loads(line)  # raises the decoder's error: no value, extra data, a byte-order mark
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    doc_id = rec["id"]
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("id must be a non-empty string")
    stamp = stamps(str(rec["date"]))
    if schema == "raw":
        text = rec["text"]
        if not isinstance(text, str):
            raise ValueError("text must be a string")
        return doc_id, stamp, text
    mentions = rec["mentions"]
    if not isinstance(mentions, list):
        raise ValueError("mentions must be an array")
    return doc_id, stamp, mentions


def _check_strings(record: tuple[str, Stamp, str | list]) -> None:
    """Raise for a lone surrogate that an unpaired \\ud800-\\udfff escape
    left in a parsed line's id, text or a mention name."""
    doc_id, _, payload = record
    strings = [payload] if isinstance(payload, str) else [
        item[0] for item in payload if type(item) is list and item and type(item[0]) is str]
    if _surrogate("".join([doc_id, *strings])):
        raise ValueError("string holds a lone surrogate (an unpaired \\ud800-\\udfff escape)")


def _flat_mentions(arrays: list[list]) -> tuple[list[str], list[int]] | None:
    """The names and counts of every mention of ``arrays``, or None unless
    each array passes _validate_mentions: every item a list of two, a
    non-empty str name and an int count in [1, MAX_COUNT].  Only C-level
    builtins run per mention."""
    items = list(chain.from_iterable(arrays))
    if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}):
        return None
    flat = list(chain.from_iterable(items))
    names, counts = flat[0::2], flat[1::2]
    if (set(map(type, names)) <= {str} and all(names) and set(map(type, counts)) <= {int}
            and 1 <= min(counts, default=1) and max(counts, default=1) <= MAX_COUNT):
        return names, counts
    return None


def _validate_mentions(raw: list) -> None:
    for name, count in raw:
        # exact types: JSON gives str, int, bool, float, list, dict or None
        if type(name) is not str or not name:
            raise ValueError("mention name must be a non-empty string")
        if type(count) is not int or count < 1:
            raise ValueError(f"mention count must be a positive integer, got {count!r}")
        if count > MAX_COUNT:
            raise ValueError(f"mention count must be below 2**63, got {count}")


def _block(records: list[tuple], linenos: list[int], failed: list, schema: str) -> Block | None:
    """The Block of the well-formed records dated in the window, if any.  A
    pre-tagged record whose mentions fail _validate_mentions joins
    ``failed``, which stays in line order."""
    mentions = None
    if schema == "pretagged" and (mentions := _flat_mentions([r[2] for r in records])) is None:
        checked = []
        for lineno, record in zip(linenos, records):
            try:
                _validate_mentions(record[2])
                checked.append(record)
            except (ValueError, KeyError, TypeError) as exc:
                failed.append((lineno, exc))
        failed.sort(key=itemgetter(0))
        records = checked
    inside = [record for record in records if record[1].inside]
    if not inside:
        return None
    ids, stamps, payloads = zip(*inside)
    if schema == "raw":
        return Block(ids, stamps, payloads)
    names, counts = mentions if mentions and len(inside) == len(records) else _flat_mentions(payloads)
    return Block(ids, stamps, None, names, counts, list(map(len, payloads)))


def _parse_tsv_line(line: str, doc_id: str, stamps: Callable[[str], Stamp]) -> Record:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(parts)}")
    stamp = stamps(parts[0])
    name = parts[1].strip()
    if not name:
        raise ValueError("empty name")
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > MAX_COUNT:
        raise ValueError(f"count must be below 2**63, got {count}")
    if not (digits := parts[2].strip()).isdigit() or not digits.isascii():  # int() takes "+3", "1_000", "٥"
        raise ValueError(f"count must be written in ASCII digits, got {parts[2]!r}")
    return doc_id, stamp, [[name, count]]


def read_documents(path: str | Path, schema: str) -> DocumentReader:
    """The reader of a line-oriented file in the declared schema."""
    return DocumentReader(path, schema)


def write_documents(lines: Iterable[str], path: str | Path) -> int:
    """Write record_json lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            n += 1
    return n


def record_json(doc_id: str, timestamp: Timestamp, payload: str | Iterable[tuple[str, int]]) -> str:
    """The JSON line of one document: a raw text, or (name, count) pairs
    as its mentions."""
    rec: dict = {"id": doc_id, "date": iso(timestamp)}
    if isinstance(payload, str):
        rec["text"] = payload
    else:
        rec["mentions"] = [[name, count] for name, count in payload]
    return json.dumps(rec, ensure_ascii=False, separators=(",", ":"))
