"""Read, validate, and window timestamped documents.

Two line-oriented input schemas are supported, both UTF-8:

* ``raw``: one JSON object per line with fields ``id``, ``date``
  (ISO-8601), ``text``.
* ``pretagged``: JSON lines with ``id``, ``date``, ``mentions`` (array of
  ``[name, count]`` pairs), or a TSV variant ``date<TAB>name<TAB>count``
  (one mention record per line; the id of line n is
  ``tsv:<first 16 hex digits of the file's sha256>:<n>``).

A DocumentReader reads _BLOCK_LINES lines at a time.  The json module's C
scanner decodes each line once, accepted only when the value spans the
line; id, date and payload type are checked per line, and a file's date
strings are parsed once each.  One test of C-level builtins over a
block's flattened mention pairs checks every pre-tagged line of it; a
block that fails is validated again line by line, so each bad line gets
its own error.  Blocks stay small so that their decoded containers stay
under the garbage collector's generation-0 threshold (700), whose
collections would otherwise walk them again and again.  The well-formed
lines in the window become a Block of columns; records() flattens blocks
into ``(id, Stamp, payload)``, the payload being a raw line's text or the
(names, counts) lists of a pre-tagged one, and iteration gives Documents.

Malformed lines are counted and skipped; if more than 10% of non-blank
lines are malformed the reader raises SchemaError at end of stream,
since that level of breakage signals the wrong schema choice rather
than dirty data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import date, datetime
from itertools import accumulate, chain, islice, starmap
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .dates import Timestamp, epoch_us, iso, month_index, parse_timestamp
from .errors import SchemaError

MALFORMED_FRACTION_LIMIT = 0.10

# A file's date memo starts afresh once it holds this many strings: a file
# of mostly distinct dates (a sparse century corpus) then keeps about
# 0.3 MB of them instead of one entry per line, and a date-sorted file
# still parses each distinct string once.
_STAMP_MEMO_LIMIT = 1024

# Input lines per block: about 7 decoded containers per line keep a block
# below the garbage collector's generation-0 threshold of 700.
_BLOCK_LINES = 32

_scan_json = json.JSONDecoder().scan_once

SCHEMAS = ("raw", "pretagged")

# Mention counts are held as int64 (timeline.MentionColumns).
MAX_COUNT = 2**63 - 1


@dataclass(frozen=True)
class Document:
    """One dated corpus item, carrying either raw text or extracted mentions."""

    id: str
    timestamp: Timestamp
    text: str | None = None
    mentions: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        if (self.text is None) == (self.mentions is None):
            raise ValueError(f"document {self.id!r}: exactly one of text/mentions required")


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


class _Stamps(dict):
    """One file's date memo: exact date string -> Stamp, at most
    _STAMP_MEMO_LIMIT of them.  A string that does not parse raises on
    every lookup and is never stored."""

    def __init__(self, window: AnalysisWindow | None):
        super().__init__()
        self.window = window

    def __missing__(self, raw: str) -> Stamp:
        if len(self) >= _STAMP_MEMO_LIMIT:
            self.clear()
        ts = parse_timestamp(raw)
        inside = self.window is None or self.window.contains(ts)
        stamp = self[raw] = Stamp(ts, epoch_us(ts), month_index(ts.year, ts.month), inside)
        return stamp


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


class DocumentReader:
    """Iterable over one input file; exposes .stats once exhausted."""

    def __init__(self, path: str | Path, schema: str):
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
        self.path = Path(path)
        self.schema = schema
        self.stats = ReadStats()

    def __iter__(self) -> Iterator[Document]:
        return starmap(as_document, self.records())

    def records(self, window: AnalysisWindow | None = None) -> Iterator[Record]:
        """The (id, Stamp, payload) of each well-formed line in ``window``,
        in file order."""
        return chain.from_iterable(map(Block.records, self.blocks(window)))

    def blocks(self, window: AnalysisWindow | None = None) -> Iterator[Block]:
        """The well-formed lines in ``window``, in file order, one Block per
        _BLOCK_LINES input lines that has any.  Lines outside the window are
        validated and counted all the same."""
        stats = self.stats
        stamps = _Stamps(window)
        tsv_ids = None  # id prefix of a TSV file, "" for JSON lines
        # utf-8-sig drops a byte-order mark, which would otherwise make the
        # first line malformed and sniff a JSON-lines file as TSV
        with open(self.path, "r", encoding="utf-8-sig") as fh:
            numbered = enumerate(fh, start=1)
            while chunk := list(islice(numbered, _BLOCK_LINES)):
                records, linenos, failed = [], [], []
                for lineno, line in chunk:
                    stripped = line.strip()
                    if not stripped:
                        stats.blank += 1
                        continue
                    if tsv_ids is None:
                        tsv = self.schema == "pretagged" and not stripped.startswith("{")
                        tsv_ids = f"tsv:{_file_digest(self.path)[:16]}:" if tsv else ""
                    try:
                        if tsv_ids:
                            records.append(_parse_tsv_line(stripped, f"{tsv_ids}{lineno}", stamps))
                        else:
                            records.append(_parse_json_line(stripped, self.schema, stamps))
                        linenos.append(lineno)
                    except (ValueError, KeyError, TypeError) as exc:
                        failed.append((lineno, exc))
                block = _block(records, linenos, failed, self.schema)
                stats.lines += len(chunk)
                stats.malformed += len(failed)
                stats.documents = stats.lines - stats.blank - stats.malformed
                stats.errors += [f"{self.path.name}:{lineno}: {exc}"
                                 for lineno, exc in failed[:10 - len(stats.errors)]]
                if block:
                    yield block
        processed = stats.documents + stats.malformed
        if processed and stats.malformed / processed > MALFORMED_FRACTION_LIMIT:
            raise SchemaError(
                f"{self.path}: {stats.malformed} of {processed} lines malformed "
                f"(>{MALFORMED_FRACTION_LIMIT:.0%}); wrong --schema? "
                f"first errors: {'; '.join(stats.errors[:3])}"
            )


def as_document(doc_id: str, stamp: Stamp, payload: Payload) -> Document:
    """The Document of one record."""
    if isinstance(payload, str):
        return Document(id=doc_id, timestamp=stamp.timestamp, text=payload)
    names, counts = payload
    return Document(id=doc_id, timestamp=stamp.timestamp, mentions=tuple(zip(names, counts)))


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _parse_json_line(line: str, schema: str, stamps: _Stamps) -> tuple[str, Stamp, str | list]:
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
    stamp = stamps[str(rec["date"])]
    if schema == "raw":
        text = rec["text"]
        if not isinstance(text, str):
            raise ValueError("text must be a string")
        return doc_id, stamp, text
    mentions = rec["mentions"]
    if not isinstance(mentions, list):
        raise ValueError("mentions must be an array")
    return doc_id, stamp, mentions


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


def _parse_tsv_line(line: str, doc_id: str, stamps: _Stamps) -> Record:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(parts)}")
    stamp = stamps[parts[0]]
    name = parts[1].strip()
    if not name:
        raise ValueError("empty name")
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > MAX_COUNT:
        raise ValueError(f"count must be below 2**63, got {count}")
    return doc_id, stamp, [[name, count]]


def read_documents(path: str | Path, schema: str) -> DocumentReader:
    """Stream Documents from a line-oriented file in the declared schema."""
    return DocumentReader(path, schema)


def write_documents(docs: Iterable[Document | str], path: str | Path) -> int:
    """Write documents as JSON lines; returns the number written.  A str
    is a line document_to_json already made."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(doc if isinstance(doc, str) else document_to_json(doc))
            fh.write("\n")
            n += 1
    return n


def document_to_json(doc: Document) -> str:
    rec: dict = {"id": doc.id, "date": iso(doc.timestamp)}
    if doc.text is not None:
        rec["text"] = doc.text
    else:
        rec["mentions"] = [[name, count] for name, count in doc.mentions]
    return json.dumps(rec, ensure_ascii=False, separators=(",", ":"))


def window_filter(docs: Iterable[Document], window: AnalysisWindow) -> Iterator[Document]:
    """Yield exactly the documents whose timestamp falls in the window."""
    for doc in docs:
        if window.contains(doc.timestamp):
            yield doc
