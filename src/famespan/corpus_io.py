"""Read, validate, and window timestamped documents.

Two line-oriented input schemas are supported, both UTF-8:

* ``raw``: one JSON object per line with fields ``id``, ``date``
  (ISO-8601), ``text``.
* ``pretagged``: JSON lines with ``id``, ``date``, ``mentions`` (array of
  ``[name, count]`` pairs), or a TSV variant ``date<TAB>name<TAB>count``
  (one mention record per line; the id of line n is
  ``tsv:<first 16 hex digits of the file's sha256>:<n>``).

Each well-formed line becomes a record ``(id, Stamp, payload)``: the
payload is the text of a raw line, or two parallel lists (names, counts)
of a pre-tagged one.  A file's date strings are parsed once each; a
DocumentReader yields its records as Documents.

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
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from .dates import Timestamp, epoch_us, iso, month_index, parse_timestamp
from .errors import SchemaError

MALFORMED_FRACTION_LIMIT = 0.10

# A file's date memo starts afresh once it holds this many strings: a file
# of mostly distinct dates (a sparse century corpus) then keeps about
# 0.3 MB of them instead of one entry per line, and a date-sorted file
# still parses each distinct string once.
_STAMP_MEMO_LIMIT = 1024

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


class DocumentReader:
    """Iterable over one input file; exposes .stats once exhausted."""

    def __init__(self, path: str | Path, schema: str):
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}; expected one of {SCHEMAS}")
        self.path = Path(path)
        self.schema = schema
        self.stats = ReadStats()

    def __iter__(self) -> Iterator[Document]:
        for record in self.records():
            yield as_document(*record)

    def records(self, window: AnalysisWindow | None = None) -> Iterator[Record]:
        """The validated fields of each well-formed line, in file order;
        ``Stamp.inside`` tells whether the line's date is in ``window``."""
        stats = self.stats
        stamps = _Stamps(window)
        tsv_ids = None  # id prefix of a TSV file, "" for JSON lines
        # utf-8-sig drops a byte-order mark, which would otherwise make the
        # first line malformed and sniff a JSON-lines file as TSV
        with open(self.path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                stats.lines += 1
                stripped = line.strip()
                if not stripped:
                    stats.blank += 1
                    continue
                if tsv_ids is None:
                    tsv = self.schema == "pretagged" and not stripped.startswith("{")
                    tsv_ids = f"tsv:{_file_digest(self.path)[:16]}:" if tsv else ""
                try:
                    if tsv_ids:
                        record = _parse_tsv_line(stripped, f"{tsv_ids}{lineno}", stamps)
                    else:
                        record = _parse_json_line(stripped, self.schema, stamps)
                except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                    stats.malformed += 1
                    if len(stats.errors) < 10:
                        stats.errors.append(f"{self.path.name}:{lineno}: {exc}")
                    continue
                stats.documents += 1
                yield record
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


def _parse_json_line(line: str, schema: str, stamps: _Stamps) -> Record:
    rec = json.loads(line)
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
    return doc_id, stamp, _validate_mentions(rec["mentions"])


def _validate_mentions(raw) -> tuple[list[str], list[int]]:
    if not isinstance(raw, (list, tuple)):
        raise ValueError("mentions must be an array")
    names, counts = [], []
    for name, count in raw:
        # exact types: JSON gives str, int, bool, float, list, dict or None
        if type(name) is not str or not name:
            raise ValueError("mention name must be a non-empty string")
        if type(count) is not int or count < 1:
            raise ValueError(f"mention count must be a positive integer, got {count!r}")
        if count > MAX_COUNT:
            raise ValueError(f"mention count must be below 2**63, got {count}")
        names.append(name)
        counts.append(count)
    return names, counts


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
    return doc_id, stamp, ([name], [count])


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
