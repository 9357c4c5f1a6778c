"""The pre-tagged ingest walk: records straight into columns.

cli.ingest hands each windowed line's validated fields to MentionColumns
with no Document in between; the reference reads the same files as
Documents through window_filter and adds their mentions one by one.
"""

import hashlib
import json
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famespan import cli, corpus_io
from famespan.cli import main
from famespan.corpus_io import AnalysisWindow, Document, read_documents, window_filter
from famespan.dates import month_index
from famespan.errors import SchemaError
from famespan.sampler import SamplerConfig
from famespan.timeline import MentionColumns

WINDOW = AnalysisWindow(date(2005, 1, 1), date(2005, 5, 1))
NAMES = ("Ada Lovelace", "Grace Hopper", "Alan Turing")
# day and time-of-day stamps, offsets and Z; the last two and the first
# fall outside WINDOW (the last one only once converted to UTC)
DATES = ("2005-01-31", "2005-02-01T06:30:00", "2005-02-01T23:30:00-02:00", "2005-03-10T12:00Z",
         "2005-04-30T23:59:59.5", "2004-12-31", "2005-05-01", "2005-04-30T23:30:00-01:00")
BAD_DATES = ("2005-02-30", "20050201", "2005-02-01 06:30")
BAD_ITEMS = ("ab", {"a": 1, "b": 2}, ["Ada Lovelace", 1, 2], ["Ada Lovelace"], 5,
             ["Ada Lovelace", True], ["Ada Lovelace", 0], ["Ada Lovelace", 1.0], ["", 1])
_MISSING = object()

_GOOD_MENTIONS = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 5)).map(list), max_size=4)

# (kind, date, mentions, extra): kind says which check the line fails, if any
_LINE = st.one_of(
    st.tuples(st.just("good"), st.sampled_from(DATES), _GOOD_MENTIONS, st.none()),
    st.tuples(st.just("bad-last-mention"), st.sampled_from(DATES), _GOOD_MENTIONS,
              st.sampled_from(BAD_ITEMS)),
    st.tuples(st.just("bad-date"), st.sampled_from(BAD_DATES), _GOOD_MENTIONS, st.none()),
    st.tuples(st.just("date-number"), st.just(20050201), _GOOD_MENTIONS, st.none()),
    st.tuples(st.just("id"), st.sampled_from(DATES), _GOOD_MENTIONS, st.sampled_from([_MISSING, "", 7])),
    st.tuples(st.just("non-object"), st.none(), st.none(), st.sampled_from([[1, 2], "x", 3, None])),
    st.tuples(st.just("mentions-not-array"), st.sampled_from(DATES), st.none(),
              st.sampled_from(["Ada Lovelace", {"Ada Lovelace": 1}])),
    st.tuples(st.just("not-json"), st.none(), st.none(), st.none()),
    st.tuples(st.just("blank"), st.none(), st.none(), st.sampled_from(["", "   "])),
)


def _render(i: int, spec) -> str:
    kind, stamp, mentions, extra = spec
    if kind == "blank":
        return extra
    if kind == "not-json":
        return "not json {"
    if kind == "non-object":
        return json.dumps(extra)
    rec = {"id": f"d{i}", "date": stamp, "mentions": mentions}
    if kind == "bad-last-mention":
        rec["mentions"] = [*mentions, extra]
    elif kind == "mentions-not-array":
        rec["mentions"] = extra
    elif kind == "id":
        if extra is _MISSING:
            del rec["id"]
        else:
            rec["id"] = extra
    return json.dumps(rec)


def _columns(cols: MentionColumns):
    return (list(cols.codes), cols.name_code.tolist(), cols.count.tolist(),
            cols.doc_us.tolist(), cols.doc_size.tolist())


def _walk(paths):
    """cli.ingest with the pipeline's pre-tagged collector, recording the
    readers it opens; stops at the first SchemaError, as ingest does."""
    cols, seen, readers, error = MentionColumns(), [], [], None

    def opened(path, schema):
        readers.append(read_documents(path, schema))
        return readers[-1]

    def collect(block):
        seen.extend((doc_id, stamp.month) for doc_id, stamp in zip(block.ids, block.stamps))
        cols.add_block(block)

    keep_all = SamplerConfig(10**9, 1, "keep-all")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "read_documents", opened)
        try:
            cli.ingest(paths, "pretagged", WINDOW, keep_all, collect)
        except SchemaError as exc:
            error = str(exc)
    return _columns(cols), seen, [vars(r.stats) for r in readers], error


def _reference(paths):
    """Documents through window_filter, mentions added per (name, count)."""
    cols, seen, stats, error = MentionColumns(), [], [], None
    for path in paths:
        reader = read_documents(path, "pretagged")
        stats.append(reader.stats)
        try:
            for doc in window_filter(reader, WINDOW):
                seen.append((doc.id, month_index(doc.timestamp.year, doc.timestamp.month)))
                cols.add(doc.timestamp, doc.mentions)
        except SchemaError as exc:
            error = str(exc)
            break
    return _columns(cols), seen, [vars(s) for s in stats], error


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=st.lists(st.lists(_LINE, max_size=30), min_size=1, max_size=2))
def test_walk_matches_document_reference(files):
    lines = [[_render(i, s) for i, s in enumerate(specs)] for specs in files]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, rendered in enumerate(lines):
            path = Path(tmp) / f"part{k}.jsonl"
            path.write_text("".join(line + "\n" for line in rendered), encoding="utf-8")
            paths.append(path)
        got, expected = _walk(paths), _reference(paths)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_io, "_STAMP_MEMO_LIMIT", 2)  # the memo starts afresh often
            assert _walk(paths) == expected
            for block_lines in (1, 3):  # blocks end inside every file
                mp.setattr(corpus_io, "_BLOCK_LINES", block_lines)
                assert _walk(paths) == expected
    assert got == expected
    # the line kinds alone predict the accounting of every file read; a
    # file whose first non-blank line is not an object is read as TSV
    for specs, rendered, stats in zip(files, lines, got[2]):
        tsv = not next((line for line in rendered if line.strip()), "{").startswith("{")
        kinds = Counter("blank" if s[0] == "blank" else s[0] == "good" and not tsv for s in specs)
        assert (stats["lines"], stats["blank"]) == (len(specs), kinds["blank"])
        assert (stats["documents"], stats["malformed"]) == (kinds[True], kinds[False])
        assert len(stats["errors"]) == min(10, kinds[False])
    processed = [s["documents"] + s["malformed"] for s in got[2]]
    assert (got[3] is not None) == any(p and s["malformed"] / p > 0.1 for p, s in zip(processed, got[2]))


def test_each_bad_line_is_malformed_on_its_own(tmp_path):
    # a bad date string repeated, and a line failing on its last mention
    path = tmp_path / "c.jsonl"
    good = [json.dumps({"id": f"g{i}", "date": "2005-02-01", "mentions": [["Ada Lovelace", 1]]})
            for i in range(80)]
    bad = [json.dumps({"id": f"b{i}", "date": "2005-02-30", "mentions": [["Ada Lovelace", 1]]})
           for i in range(3)]
    last = json.dumps({"id": "x", "date": "2005-02-01", "mentions": [["Grace Hopper", 2], ["Alan Turing", 0]]})
    path.write_text("\n".join([*good, *bad, last, *bad]) + "\n", encoding="utf-8")
    cols, seen, stats, error = _walk([path])
    assert error is None and stats[0]["malformed"] == 7 and stats[0]["documents"] == 80
    assert cols[0] == ["Ada Lovelace"] and cols[1] == [0] * 80  # the failed line added nothing
    assert [e.split(": ", 1)[1] for e in stats[0]["errors"]] == [
        *["day is out of range for month"] * 3,
        "mention count must be a positive integer, got 0",
        *["day is out of range for month"] * 3,
    ]


def _dated_corpus(root: Path) -> list[Path]:
    """Two JSONL files sharing date strings, some outside the window."""
    paths = []
    for k, dates in enumerate([DATES, DATES[2:] + ("2005-02-14",)]):
        lines = [json.dumps({"id": f"f{k}-{i}", "date": dates[i % len(dates)],
                             "mentions": [[NAMES[i % 3], 1 + i % 2]]}) for i in range(400)]
        paths.append(root / f"f{k}.jsonl")
        paths[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def test_pretagged_run_builds_no_document_and_parses_each_date_once(tmp_path, monkeypatch):
    inputs = _dated_corpus(tmp_path)
    built: Counter = Counter()
    original_post_init = Document.__post_init__

    def counted_post_init(self):
        built[self.id] += 1
        original_post_init(self)

    parsed: Counter = Counter()
    original_parse = corpus_io.parse_timestamp

    def counted_parse(raw):
        parsed[raw] += 1
        return original_parse(raw)

    monkeypatch.setattr(Document, "__post_init__", counted_post_init)
    monkeypatch.setattr(corpus_io, "parse_timestamp", counted_parse)
    common = ["--input", *map(str, inputs), "--window", "2005-01", "2005-05",
              "--n-min", "20", "--seed", "7"]
    assert main(["run", *common, "--min-mentions", "5", "--reps", "20",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert not built
    per_file = Counter(d for p in inputs for d in {json.loads(line)["date"] for line in p.open()})
    assert parsed == per_file
    # the counters do see the Document path
    assert main(["sample", *common, "--out", str(tmp_path / "sampled.jsonl")]) == 0
    assert sum(built.values()) == sum(1 for p in inputs for line in p.open()
                                      if WINDOW.contains(original_parse(json.loads(line)["date"])))


def test_tsv_ids_do_not_collide_across_files(tmp_path, capsys):
    # two 200-line TSV files with one name each used to share the ids
    # tsv:1..tsv:200, so line k of both got the same keep decision
    paths = []
    for name in ("Ada Lovelace", "Grace Hopper"):
        paths.append(tmp_path / f"{name.split()[0]}.tsv")
        paths[-1].write_text("".join(f"2005-03-{1 + i % 28:02d}\t{name}\t1\n" for i in range(200)),
                             encoding="utf-8")
    out = tmp_path / "sampled.jsonl"
    assert main(["sample", "--input", *map(str, paths), "--window", "2005-03", "2005-04",
                 "--n-min", "200", "--seed", "3", "--out", str(out)]) == 0
    ids = [json.loads(line)["id"] for line in out.read_text(encoding="utf-8").splitlines()]
    assert 150 < len(ids) == len(set(ids))
    expected = {f"tsv:{hashlib.sha256(p.read_bytes()).hexdigest()[:16]}:{n}"
                for p in paths for n in range(1, 201)}
    assert set(ids) <= expected
    assert {d.id for p in paths for d in read_documents(p, "pretagged")} == expected
