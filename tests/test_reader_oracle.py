"""DocumentReader.read against synth.reference_read over generated bytes.

Hypothesis draws whole files from a grammar of line shapes: well-formed
lines, malformed ones, blank ones (whitespace as str.strip() sees it),
byte-order marks, bytes that are not UTF-8, lone and paired \\ud800
escapes, LF, CRLF and CR line ends, lines longer than a read, and a last
line with no end.  Each file is read in one range with _READ_BYTES of 1,
7, 256 and 65536 bytes, and in 2 or 3 forced byte ranges (as in
test_shards.py) with one of those read sizes.  Records, ReadStats,
the first errors, TSV ids and digest, and the 10% limit must be the
reference's every time, and no batch of decoded lines may hold more
than its first line and one read.  Files that are empty, a byte-order
mark or only its first one or two bytes, alone or before one line, are
read against the reference too.
"""

import hashlib
import json
import os
import re
import threading
from contextlib import contextmanager
from datetime import date

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famespan import corpus_io, forks
from famespan.corpus_io import AnalysisWindow, ListSink, read_documents
from famespan.errors import DataError, SchemaError
from famespan.synth import INVALID_UTF8, LONE_SURROGATE, reference_read

WINDOW = AnalysisWindow(date(2005, 1, 1), date(2005, 5, 1))
# in the window, outside it, with whitespace around; then not dates
DATES = ("2005-01-31", "2005-02-01T06:30:00", "2005-03-10T12:00Z", " 2005-04-30 ", "2004-12-31", "2005-05-01")
BAD_DATES = ("2005-02-30", "20050101")
NAMES = ("Ada Lovelace", "Grace Hopper", "Zoë Ångström", " ")
TEXTS = ("Yesterday Ada Lovelace spoke.", "a line\u2028separator, a next\x85line", "é" * 150, "x" * 700)
PAIRS = ("\\ud83d\\ude00", "\\uD83D\\uDE00")
LONE = ("\\ud800", "\\uDFFF", "\\ude00\\ud83d")
COUNTS = ("1", "2", "3", "9223372036854775807")
BAD_COUNTS = ("0", "-1", "9223372036854775808", "true", "1.0", '"2"')
TSV_COUNTS = ("1", "2", " 3 ", "9223372036854775807")
BAD_TSV_COUNTS = ("0", "-1", "9223372036854775808", "x", "", "+3", "1_000", "\u0665", "\u0663\u0663")
BLANKS = ("", "  ", "\t", "\u3000", "\x1c", "\x85", "\x0b\x0c")
BAD_BYTES = (b"\xff", b"\xe9", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80")
BOM = b"\xef\xbb\xbf"
READ_BYTES = (1, 7, 256, 65536)


@contextmanager
def shards(n: int):
    """Cut every file into n byte ranges (fewer if it has fewer lines)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
        mp.setattr(forks, "usable_cpus", lambda: n)
        yield


def _pick(good: tuple, bad: tuple = ()) -> st.SearchStrategy:
    """Mostly one of ``good``, now and then one of ``bad``."""
    return st.sampled_from(good * 4 + bad)


def _quoted(text: str, escape: str) -> str:
    """A JSON string literal of ``text`` followed by a raw escape."""
    return json.dumps(text, ensure_ascii=False)[:-1] + escape + '"'


@st.composite
def _json_line(draw, schema: str, faults: bool, lone: bool = False) -> bytes:
    """A JSON line, well-formed unless ``faults``, when each field may go
    wrong: a value, a lone surrogate escape, a missing field, extra data;
    with ``lone``, each string ends in a lone surrogate escape half the
    time."""
    bad = (lambda choices: choices) if faults else (lambda choices: ())
    escape = _pick(("",) * 4 + PAIRS, bad(LONE) + (LONE * 8 if lone else ()))
    fields = [f'"id": {_quoted(draw(_pick(("d1", "d2", "d3"), bad(("",)))), draw(escape))}',
              f'"date": {json.dumps(draw(_pick(DATES, bad(BAD_DATES))))}']
    if schema == "raw":
        fields.append(f'"text": {_quoted(draw(st.sampled_from(TEXTS)), draw(escape))}')
    else:
        mentions = draw(st.lists(st.tuples(_pick(NAMES, bad(("",))), escape, _pick(COUNTS, bad(BAD_COUNTS))),
                                 max_size=3))
        fields.append(f'"mentions": [{", ".join(f"[{_quoted(n, e)}, {c}]" for n, e, c in mentions)}]')
    line = "{" + ", ".join(draw(st.permutations(fields))[:draw(_pick((3,), bad((2,))))]) + "}"
    return (line + draw(_pick(("",), bad((" {}",))))).encode()


@st.composite
def _tsv_line(draw, faults: bool) -> bytes:
    """A TSV line, well-formed unless ``faults``, when each field may go
    wrong (a name of blanks is empty once stripped) or one may be missing;
    a ``\\ud800`` in a name is plain text."""
    bad = (lambda choices: choices) if faults else (lambda choices: ())
    fields = [draw(_pick(DATES, bad(BAD_DATES))), draw(_pick(NAMES[:3] + ("Ada \\ud800",), bad((" ",)))),
              draw(_pick(TSV_COUNTS, bad(BAD_TSV_COUNTS)))]
    return "\t".join(fields[:draw(_pick((3,), bad((2,))))]).encode()


@st.composite
def _spoiled(draw, line: st.SearchStrategy) -> bytes:
    """A line with bytes that are not UTF-8, or a byte-order mark, in it."""
    data = draw(line)
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from(BAD_BYTES + (BOM,))) + data[at:]


def _lines(kind: str) -> st.SearchStrategy:
    """Well-formed and blank lines of the file's kind, with a few others
    put in among them: sometimes more than 10%."""
    schema = "raw" if kind == "raw" else "pretagged"
    line = _tsv_line if kind == "tsv" else (lambda faults: _json_line(schema, faults))
    other = _json_line("pretagged", True) if kind == "tsv" else _tsv_line(True)
    usual = st.one_of(line(False), line(False), line(False), st.sampled_from(BLANKS).map(str.encode))
    odd = st.one_of(line(True), _spoiled(line(False)), _json_line(schema, False, lone=True),
                    st.sampled_from([b"not json {", b"[1, 2]"]), other)
    # a drawn length, which hypothesis spreads more evenly than a list's own
    return st.integers(0, 30).flatmap(lambda n: st.tuples(st.lists(usual, min_size=n, max_size=n),
                                                          st.lists(st.tuples(st.integers(0, n), odd), max_size=4)))


@st.composite
def _file(draw, kind: str) -> bytes:
    """A file of up to 34 lines, each ended by the file's one line end or
    by each line's own; a byte-order mark (or two) or none; and a last
    line with an end or without."""
    lines, odd = draw(_lines(kind))
    for at, line in odd:
        lines.insert(at, line)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=len(lines), max_size=len(lines)))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r", *[None] * 6]))
    out = [draw(st.sampled_from([b"", b"", BOM, BOM + BOM]))]
    for line, own in zip(lines, ends):
        out += [line, end or own]
    if lines and draw(st.booleans()):
        out.pop()
    return b"".join(out)


def _records(block):
    return [(doc_id, stamp.timestamp, p if isinstance(p, str) else list(zip(*p)))
            for doc_id, stamp, p in block.records()]


def _errors(stats) -> list:
    """Each of the reader's first errors as (line number, its text if a
    decoding fault's, else None)."""
    found = []
    for error in stats.errors:
        where, text = error.split(": ", 1)
        found.append((int(where.rsplit(":", 1)[1]), text if text in (INVALID_UTF8, LONE_SURROGATE) else None))
    return found


def _assert_reads_as_reference(reader, sink, raised: bool, expected) -> None:
    stats = reader.stats
    malformed = len(expected.malformed)
    assert sink.items == expected.records
    assert (stats.lines, stats.blank, stats.malformed) == (expected.lines, expected.blank, malformed)
    assert stats.documents == expected.lines - expected.blank - malformed
    assert stats.documents - len(sink.items) == expected.out_of_window
    assert _errors(stats) == expected.malformed[:10]
    assert raised == expected.too_many_malformed


def _bounded(lines, most: int):
    """``lines``, checking that each batch holds at most ``most`` characters
    with its line ends (a character takes at least one byte)."""
    def checked(*args):
        for batch, suspect in lines(*args):
            size = sum(map(len, batch)) + len(batch)
            assert size <= most, f"a batch of {size} characters"
            yield batch, suspect
    return checked


def _read(reader, window) -> tuple[ListSink, bool]:
    sink = ListSink(_records)
    try:
        reader.read(sink, window)
    except SchemaError:
        return sink, True
    return sink, False


@pytest.mark.parametrize("kind", ["raw", "pretagged", "tsv"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reader_matches_the_reference(tmp_path_factory, kind, data):
    schema = "raw" if kind == "raw" else "pretagged"
    content = data.draw(_file(kind), label="file")
    window = data.draw(st.sampled_from([WINDOW, None]), label="window")
    path = tmp_path_factory.mktemp(kind) / "c.txt"
    path.write_bytes(content)
    expected = reference_read(content, schema, window)
    # a batch holds at most its first line and one read more
    longest = max(map(len, re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)?", content)))
    forked = data.draw(st.sampled_from(READ_BYTES), label="read_bytes"), data.draw(st.sampled_from([2, 3]))
    for read_bytes, ranges in [(read_bytes, 1) for read_bytes in READ_BYTES] + [forked]:
        reader = read_documents(path, schema)
        with shards(ranges), pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_io, "_READ_BYTES", read_bytes)
            mp.setattr(corpus_io, "_lines", _bounded(corpus_io._lines, longest + read_bytes))
            sink, raised = _read(reader, window)
        _assert_reads_as_reference(reader, sink, raised, expected)
        assert reader.digest == expected.digest


# one well-formed line of each kind
ONE_LINE = {"raw": b'{"id": "d1", "date": "2005-01-31", "text": "Ada Lovelace spoke."}\n',
            "pretagged": b'{"id": "d1", "date": "2005-01-31", "mentions": [["Ada Lovelace", 2]]}\n',
            "tsv": b"2005-01-31\tAda Lovelace\t2\n"}


@pytest.mark.parametrize("line", [False, True], ids=["alone", "before-a-line"])
@pytest.mark.parametrize("start", [b"", BOM[:1], BOM[:2], BOM], ids=["empty", "ef", "ef-bb", "bom"])
@pytest.mark.parametrize("kind", ["raw", "pretagged", "tsv"])
def test_a_file_that_is_part_of_a_byte_order_mark_reads_as_the_reference(tmp_path, kind, start, line):
    # the grammar above seldom draws these: at the end of a file,
    # utf-8-sig drops bytes that only start a byte-order mark
    schema = "raw" if kind == "raw" else "pretagged"
    content = start + (ONE_LINE[kind] if line else b"")
    path = tmp_path / "c.txt"
    path.write_bytes(content)
    expected = reference_read(content, schema, WINDOW)
    for read_bytes in (1, 65536):
        reader = read_documents(path, schema)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_io, "_READ_BYTES", read_bytes)
            sink, raised = _read(reader, WINDOW)
        _assert_reads_as_reference(reader, sink, raised, expected)
        assert reader.digest == expected.digest


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("kind", ["raw", "pretagged"])
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_named_pipe_reads_as_the_reference(tmp_path_factory, kind, data):
    # a pipe is one range, hashed as it is read; a TSV one is a data error
    content = data.draw(_file(kind), label="file")
    expected = reference_read(content, kind, WINDOW)
    fifo = tmp_path_factory.mktemp(kind) / "pipe.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
    writer.start()
    reader = read_documents(fifo, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "_READ_BYTES", data.draw(st.sampled_from(READ_BYTES), label="read_bytes"))
        if expected.digest:
            with pytest.raises(DataError, match="a TSV input must be a regular file"):
                reader.read(ListSink(_records), WINDOW)
        else:
            sink, raised = _read(reader, WINDOW)
            _assert_reads_as_reference(reader, sink, raised, expected)
            assert reader.digest == hashlib.sha256(content).hexdigest()
    writer.join(10)
    assert not writer.is_alive()
