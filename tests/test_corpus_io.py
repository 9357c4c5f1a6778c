import hashlib
import json
from datetime import date, datetime

import pytest

from famespan import corpus_io
from famespan.corpus_io import (
    AnalysisWindow,
    ListSink,
    read_documents,
    write_documents,
)
from famespan.errors import SchemaError
from famespan.synth import Document, document_to_json, window_filter


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_all(path, schema, window=None):
    """read() of ``path`` into a ListSink: the reader, and the id,
    timestamp and payload of each record, a text or (name, count) pairs."""
    reader = read_documents(path, schema)
    sink = ListSink(lambda block: [(doc_id, stamp.timestamp, p if isinstance(p, str) else list(zip(*p)))
                                   for doc_id, stamp, p in block.records()])
    reader.read(sink, window)
    return reader, sink.items


def as_record(doc):
    return doc.id, doc.timestamp, doc.text if doc.text is not None else list(doc.mentions)


def test_raw_line_maps_to_text_document(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({"id": "a", "date": "1912-04-15", "text": "John Jacob Astor died."})])
    _, docs = read_all(f, "raw")
    assert docs == [("a", date(1912, 4, 15), "John Jacob Astor died.")]


def test_pretagged_line_maps_to_mentions(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({"id": "b", "date": "2009-07-01", "mentions": [["Michael Jackson", 3]]})])
    _, docs = read_all(f, "pretagged")
    assert docs == [("b", date(2009, 7, 1), [("Michael Jackson", 3)])]


def test_invalid_calendar_date_skipped_and_counted(tmp_path):
    f = tmp_path / "c.jsonl"
    good = [json.dumps({"id": str(i), "date": "1912-04-15", "text": "x"}) for i in range(20)]
    bad = json.dumps({"id": "z", "date": "1912-13-40", "text": "x"})
    write_lines(f, good + [bad])
    reader, docs = read_all(f, "raw")
    assert len(docs) == 20
    assert reader.stats.malformed == 1


def test_datetime_precision_preserved(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({"id": "a", "date": "2009-07-01T13:45:00", "text": "x"})])
    _, docs = read_all(f, "raw")
    assert docs[0][1] == datetime(2009, 7, 1, 13, 45)


def test_too_many_malformed_lines_is_schema_error(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, ["not json"] * 3 + [json.dumps({"id": "a", "date": "2000-01-01", "text": "x"})] * 5)
    with pytest.raises(SchemaError):
        read_all(f, "raw")


def test_tsv_pretagged_variant(tmp_path):
    f = tmp_path / "c.tsv"
    write_lines(f, ["2001-05-02\tAda Lovelace\t2", "2001-05-03\tGrace Hopper\t1"])
    _, docs = read_all(f, "pretagged")
    assert [d[2] for d in docs] == [[("Ada Lovelace", 2)], [("Grace Hopper", 1)]]
    assert docs[0][1] == date(2001, 5, 2)


BOM = "\ufeff"


@pytest.mark.parametrize("schema, record", [
    ("pretagged", {"date": "2001-05-02", "mentions": [["Ada Lovelace", 2]]}),
    ("raw", {"date": "2001-05-02", "text": "Mrs. Ada Lovelace spoke."}),
])
def test_byte_order_mark_is_not_part_of_the_first_line(tmp_path, schema, record):
    f = tmp_path / "c.jsonl"
    lines = [json.dumps({"id": f"d{i}", **record}) for i in range(30)]
    f.write_text(BOM + "\n".join(lines) + "\n", encoding="utf-8")
    plain = tmp_path / "plain.jsonl"
    write_lines(plain, lines)
    reader, docs = read_all(f, schema)
    assert docs == read_all(plain, schema)[1]
    assert (reader.stats.documents, reader.stats.malformed) == (30, 0)


def test_byte_order_mark_before_tsv(tmp_path):
    f = tmp_path / "c.tsv"
    lines = ["2001-05-02\tAda Lovelace\t2", "2001-05-03\tGrace Hopper\t1"]
    f.write_text(BOM + "\n".join(lines) + "\n", encoding="utf-8")
    reader, docs = read_all(f, "pretagged")
    assert [d[2] for d in docs] == [[("Ada Lovelace", 2)], [("Grace Hopper", 1)]]
    assert reader.stats.malformed == 0
    # the id digest is of the file's bytes, mark included
    digest = hashlib.sha256(f.read_bytes()).hexdigest()[:16]
    assert [d[0] for d in docs] == [f"tsv:{digest}:1", f"tsv:{digest}:2"]


@pytest.mark.parametrize("count", [2**63, 2**64 + 5, 10**30])
def test_count_beyond_int64_is_malformed(tmp_path, count):
    good = [json.dumps({"id": f"g{i}", "date": "2001-05-02", "mentions": [["Ada Lovelace", 2**63 - 1]]})
            for i in range(20)]
    big = json.dumps({"id": "big", "date": "2001-05-02", "mentions": [["Ada Lovelace", 1], ["Grace Hopper", count]]})
    f = tmp_path / "c.jsonl"
    write_lines(f, [big, *good])
    reader, docs = read_all(f, "pretagged")
    assert [d[0] for d in docs] == [f"g{i}" for i in range(20)]
    assert reader.stats.malformed == 1
    assert reader.stats.errors == [f"c.jsonl:1: mention count must be below 2**63, got {count}"]

    t = tmp_path / "c.tsv"
    write_lines(t, [f"2001-05-02\tAda Lovelace\t{count}", *["2001-05-02\tAda Lovelace\t9223372036854775807"] * 20])
    reader, docs = read_all(t, "pretagged")
    assert len(docs) == 20
    assert reader.stats.malformed == 1
    assert reader.stats.errors == [f"c.tsv:1: count must be below 2**63, got {count}"]


@pytest.mark.parametrize("count", ["+3", "1_000", "\u0665", "\u0663\u0663", "\uff13"])
def test_a_tsv_count_is_ascii_digits(tmp_path, count):
    # int() reads these as 3, 1000, 5, 33 and 3; whitespace around a count
    # is dropped, as around the date and the name
    f = tmp_path / "c.tsv"
    write_lines(f, [f"2001-05-02\tGrace Hopper\t{count}", *["2001-05-02\tAda Lovelace\t 7"] * 20])
    reader, docs = read_all(f, "pretagged")
    assert [d[2] for d in docs] == [[("Ada Lovelace", 7)]] * 20
    assert reader.stats.errors == [f"c.tsv:1: count must be written in ASCII digits, got {count!r}"]


def test_round_trip(tmp_path):
    docs = [
        Document(id="a", timestamp=date(1999, 12, 31), text="Some text."),
        Document(id="b", timestamp=datetime(2005, 6, 1, 8, 30), mentions=(("A B", 2), ("C D", 1))),
        Document(id="c", timestamp=date(2005, 6, 2), mentions=()),
    ]
    raw_path, tagged_path = tmp_path / "raw.jsonl", tmp_path / "tagged.jsonl"
    write_documents([document_to_json(docs[0])], raw_path)
    write_documents(map(document_to_json, docs[1:]), tagged_path)
    assert read_all(raw_path, "raw")[1] == [as_record(docs[0])]
    assert read_all(tagged_path, "pretagged")[1] == list(map(as_record, docs[1:]))


def test_document_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        Document(id="a", timestamp=date(2000, 1, 1))
    with pytest.raises(ValueError):
        Document(id="a", timestamp=date(2000, 1, 1), text="x", mentions=())


class TestWindowFilter:
    WINDOW = AnalysisWindow(date(1895, 1, 1), date(2011, 1, 1))

    def doc(self, ts):
        return Document(id=str(ts), timestamp=ts, text="x")

    def test_doc_before_window_dropped(self):
        assert list(window_filter([self.doc(date(1894, 12, 31))], self.WINDOW)) == []

    def test_lower_boundary_inclusive(self):
        kept = list(window_filter([self.doc(date(1895, 1, 1))], self.WINDOW))
        assert len(kept) == 1

    def test_upper_boundary_exclusive(self):
        assert list(window_filter([self.doc(date(2011, 1, 1))], self.WINDOW)) == []

    def test_empty_stream(self):
        assert list(window_filter([], self.WINDOW)) == []

    def test_idempotent_and_accounting(self):
        docs = [self.doc(date(1800 + i, 1, 2)) for i in range(0, 220, 10)]
        once = list(window_filter(docs, self.WINDOW))
        twice = list(window_filter(once, self.WINDOW))
        assert once == twice
        dropped = len(docs) - len(once)
        assert len(once) + dropped == len(docs)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AnalysisWindow(date(2000, 1, 1), date(2000, 1, 1))
        with pytest.raises(ValueError):
            AnalysisWindow(date(2000, 1, 15), date(2001, 1, 1))


def test_full_line_accounting(tmp_path):
    # every input line is a blank, a malformed record, a kept doc, or a dropped doc
    f = tmp_path / "c.jsonl"
    lines = [
        json.dumps({"id": f"in{i}", "date": "1950-06-01", "text": "x"}) for i in range(10)
    ]
    lines += [
        "",
        json.dumps({"id": "out", "date": "1850-06-01", "text": "x"}),
        "{broken",
        "",
    ]
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    window = AnalysisWindow(date(1895, 1, 1), date(2011, 1, 1))
    reader, kept = read_all(f, "raw", window)
    stats = reader.stats
    dropped = stats.documents - len(kept)
    assert stats.lines == len(lines)
    assert len(kept) + dropped + stats.malformed + stats.blank == stats.lines
    assert len(kept) == 10 and dropped == 1 and stats.malformed == 1 and stats.blank == 2


def test_line_endings_and_decoding_faults(tmp_path):
    # LF, CRLF and lone CR end lines as a text file's universal newlines do;
    # a line that is not UTF-8 or holds a lone surrogate escape is malformed
    good = [json.dumps({"id": f"d{i}", "date": "2001-05-02", "text": "x"}).encode() for i in range(30)]
    lines = [*good[:10], b'{"id": "\xe9", "date": "2001-05-02", "text": "x"}', *good[10:20],
             b'{"id": "s", "date": "2001-05-02", "text": "lone \\udfff"}',
             b'{"id": "p", "date": "2001-05-02", "text": "pair \\ud83d\\ude00"}', *good[20:]]
    f = tmp_path / "c.jsonl"
    f.write_bytes(b"".join(line + (b"\n", b"\r\n", b"\r")[i % 3] for i, line in enumerate(lines)))
    reader, docs = read_all(f, "raw")
    assert [d[0] for d in docs] == [f"d{i}" for i in range(20)] + ["p"] + [f"d{i}" for i in range(20, 30)]
    assert docs[20][2] == "pair \U0001F600"
    assert (reader.stats.lines, reader.stats.malformed) == (33, 2)
    assert reader.stats.errors == [
        "c.jsonl:11: invalid UTF-8",
        "c.jsonl:22: string holds a lone surrogate (an unpaired \\ud800-\\udfff escape)",
    ]


@pytest.mark.parametrize("tsv", [False, True], ids=["jsonl", "tsv"])
def test_lone_cr_line_ends_are_decoded_in_bounded_pieces(tmp_path, monkeypatch, tsv):
    # _lines ends a line at a lone CR as at a LF, and never inside a CRLF,
    # so line numbers, blank counts and TSV ids are those of the LF file
    def line(i: int) -> bytes:
        if i % 9 == 4:
            return b""
        if i == 50:
            return b"{broken"
        if tsv:
            return f"2001-05-{1 + i % 28:02d}\tAda Lovelace\t{1 + i}".encode()
        return json.dumps({"id": f"d{i}", "date": "2001-05-02", "mentions": [["Ada", 1 + i]]}).encode()

    monkeypatch.setattr(corpus_io, "_READ_BYTES", 256)
    lines = [line(i) for i in range(300)]
    # no lone CR is followed by a LF, which would make it a CRLF before a blank line
    ends = {"lf": [b"\n"], "cr": [b"\r"], "mixed": [b"\r\n", b"\r", b"\r\n", b"\n", b"\r"]}
    results = {}
    for name, cycle in ends.items():
        (tmp_path / name).mkdir()
        f = tmp_path / name / "c.txt"
        f.write_bytes(b"".join(line + cycle[i % len(cycle)] for i, line in enumerate(lines)))
        with open(f, "rb") as fh:
            batches = [batch for batch, _ in corpus_io._lines(fh, 0, None)]
        assert [line for batch in batches for line in batch] == [line.decode() for line in lines]
        assert max(sum(map(len, batch)) + len(batch) for batch in batches) <= 2 * corpus_io._READ_BYTES
        reader, docs = read_all(f, "pretagged")
        ids = [doc_id.rsplit(":", 1)[-1] for doc_id, _, _ in docs]
        results[name] = ids, [d[1:] for d in docs], vars(reader.stats)
    assert results["cr"] == results["lf"] and results["mixed"] == results["lf"]
    ids, _, stats = results["lf"]
    assert ids[:4] == (["1", "2", "3", "4"] if tsv else ["d0", "d1", "d2", "d3"]) and len(ids) == 266
    assert (stats["lines"], stats["blank"], stats["malformed"]) == (300, 33, 1)
    assert [e.split(":")[:2] for e in stats["errors"]] == [["c.txt", "51"]]


_SPLIT_READS = {
    # each read is one byte, so every multi-byte sequence is split over reads
    "bom": (b"\xef\xbb\xbf" + b'{"id": "a", "date": "2001-05-02", "text": "x"}\n', ["a"], []),
    "crlf": (b'{"id": "a", "date": "2001-05-02", "text": "x"}\r\n\r\n'
             b'{"id": "b", "date": "2001-05-02", "text": "y"}\r\n', ["a", "b"], []),
    "2-byte": ('{"id": "\u00e9", "date": "2001-05-02", "text": "caf\u00e9"}\n'.encode(), ["\u00e9"], []),
    "3-byte": ('{"id": "\u20ac", "date": "2001-05-02", "text": "\u20ac5"}\n'.encode(), ["\u20ac"], []),
    "4-byte": ('{"id": "\U0001F600", "date": "2001-05-02", "text": "\U0001F600"}\n'.encode(),
               ["\U0001F600"], []),
    # the bad read is long past when the line ends in a clean one
    "bad-early": (b'{"id": "a\xff", "date": "2001-05-02", "text": "' + b"x" * 40 + b'"}\n'
                  + b'{"id": "b", "date": "2001-05-02", "text": "y"}\n' * 10, ["b"] * 10,
                  ["c.jsonl:1: invalid UTF-8"]),
}


@pytest.mark.parametrize("case", _SPLIT_READS)
def test_sequences_split_over_reads(tmp_path, monkeypatch, case):
    data, ids, errors = _SPLIT_READS[case]
    monkeypatch.setattr(corpus_io, "_READ_BYTES", 1)
    f = tmp_path / "c.jsonl"
    f.write_bytes(data)
    reader, docs = read_all(f, "raw")
    assert [doc_id for doc_id, _, _ in docs] == ids
    assert reader.stats.errors == errors


@pytest.mark.parametrize("read_bytes", [1, 65536])
def test_a_file_that_is_part_of_a_byte_order_mark_is_not_utf8(tmp_path, monkeypatch, read_bytes):
    monkeypatch.setattr(corpus_io, "_READ_BYTES", read_bytes)
    f = tmp_path / "c.jsonl"
    f.write_bytes(b"\xef\xbb")
    with pytest.raises(SchemaError, match="1 of 1 lines malformed.*c.jsonl:1: invalid UTF-8"):
        read_all(f, "raw")
