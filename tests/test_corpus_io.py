import hashlib
import json
from datetime import date, datetime

import pytest

from famespan.corpus_io import (
    AnalysisWindow,
    Document,
    read_documents,
    window_filter,
    write_documents,
)
from famespan.errors import SchemaError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_raw_line_maps_to_text_document(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({"id": "a", "date": "1912-04-15", "text": "John Jacob Astor died."})])
    docs = list(read_documents(f, "raw"))
    assert docs == [Document(id="a", timestamp=date(1912, 4, 15), text="John Jacob Astor died.")]


def test_pretagged_line_maps_to_mentions(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({"id": "b", "date": "2009-07-01", "mentions": [["Michael Jackson", 3]]})])
    docs = list(read_documents(f, "pretagged"))
    assert docs[0].mentions == (("Michael Jackson", 3),)
    assert docs[0].text is None


def test_invalid_calendar_date_skipped_and_counted(tmp_path):
    f = tmp_path / "c.jsonl"
    good = [json.dumps({"id": str(i), "date": "1912-04-15", "text": "x"}) for i in range(20)]
    bad = json.dumps({"id": "z", "date": "1912-13-40", "text": "x"})
    write_lines(f, good + [bad])
    reader = read_documents(f, "raw")
    docs = list(reader)
    assert len(docs) == 20
    assert reader.stats.malformed == 1


def test_datetime_precision_preserved(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [json.dumps({"id": "a", "date": "2009-07-01T13:45:00", "text": "x"})])
    docs = list(read_documents(f, "raw"))
    assert docs[0].timestamp == datetime(2009, 7, 1, 13, 45)


def test_too_many_malformed_lines_is_schema_error(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, ["not json"] * 3 + [json.dumps({"id": "a", "date": "2000-01-01", "text": "x"})] * 5)
    with pytest.raises(SchemaError):
        list(read_documents(f, "raw"))


def test_tsv_pretagged_variant(tmp_path):
    f = tmp_path / "c.tsv"
    write_lines(f, ["2001-05-02\tAda Lovelace\t2", "2001-05-03\tGrace Hopper\t1"])
    docs = list(read_documents(f, "pretagged"))
    assert [d.mentions for d in docs] == [(("Ada Lovelace", 2),), (("Grace Hopper", 1),)]
    assert docs[0].timestamp == date(2001, 5, 2)


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
    reader = read_documents(f, schema)
    assert list(reader) == list(read_documents(plain, schema))
    assert (reader.stats.documents, reader.stats.malformed) == (30, 0)


def test_byte_order_mark_before_tsv(tmp_path):
    f = tmp_path / "c.tsv"
    lines = ["2001-05-02\tAda Lovelace\t2", "2001-05-03\tGrace Hopper\t1"]
    f.write_text(BOM + "\n".join(lines) + "\n", encoding="utf-8")
    reader = read_documents(f, "pretagged")
    docs = list(reader)
    assert [d.mentions for d in docs] == [(("Ada Lovelace", 2),), (("Grace Hopper", 1),)]
    assert reader.stats.malformed == 0
    # the id digest is of the file's bytes, mark included
    digest = hashlib.sha256(f.read_bytes()).hexdigest()[:16]
    assert [d.id for d in docs] == [f"tsv:{digest}:1", f"tsv:{digest}:2"]


@pytest.mark.parametrize("count", [2**63, 2**64 + 5, 10**30])
def test_count_beyond_int64_is_malformed(tmp_path, count):
    good = [json.dumps({"id": f"g{i}", "date": "2001-05-02", "mentions": [["Ada Lovelace", 2**63 - 1]]})
            for i in range(20)]
    big = json.dumps({"id": "big", "date": "2001-05-02", "mentions": [["Ada Lovelace", 1], ["Grace Hopper", count]]})
    f = tmp_path / "c.jsonl"
    write_lines(f, [big, *good])
    reader = read_documents(f, "pretagged")
    assert [d.id for d in reader] == [f"g{i}" for i in range(20)]
    assert reader.stats.malformed == 1
    assert reader.stats.errors == [f"c.jsonl:1: mention count must be below 2**63, got {count}"]

    t = tmp_path / "c.tsv"
    write_lines(t, [f"2001-05-02\tAda Lovelace\t{count}", *["2001-05-02\tAda Lovelace\t9223372036854775807"] * 20])
    reader = read_documents(t, "pretagged")
    assert len(list(reader)) == 20
    assert reader.stats.malformed == 1
    assert reader.stats.errors == [f"c.tsv:1: count must be below 2**63, got {count}"]


def test_round_trip(tmp_path):
    docs = [
        Document(id="a", timestamp=date(1999, 12, 31), text="Some text."),
        Document(id="b", timestamp=datetime(2005, 6, 1, 8, 30), mentions=(("A B", 2), ("C D", 1))),
        Document(id="c", timestamp=date(2005, 6, 2), mentions=()),
    ]
    raw_path, tagged_path = tmp_path / "raw.jsonl", tmp_path / "tagged.jsonl"
    write_documents([docs[0]], raw_path)
    write_documents(docs[1:], tagged_path)
    assert list(read_documents(raw_path, "raw")) == [docs[0]]
    assert list(read_documents(tagged_path, "pretagged")) == docs[1:]


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
    reader = read_documents(f, "raw")
    docs = list(reader)
    kept = list(window_filter(docs, window))
    dropped = len(docs) - len(kept)
    stats = reader.stats
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
    reader = read_documents(f, "raw")
    docs = list(reader)
    assert [d.id for d in docs] == [f"d{i}" for i in range(20)] + ["p"] + [f"d{i}" for i in range(20, 30)]
    assert docs[20].text == "pair \U0001F600"
    assert (reader.stats.lines, reader.stats.malformed) == (33, 2)
    assert reader.stats.errors == [
        "c.jsonl:11: invalid UTF-8",
        "c.jsonl:22: string holds a lone surrogate (an unpaired \\ud800-\\udfff escape)",
    ]
