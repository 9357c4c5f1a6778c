"""Narrow columns that widen on demand.

MentionColumns holds counts in 1 byte, in 4 from the first count of 256
on and in 8 from the first of 2**32 on, and name codes in 2 bytes, in 4
from the 65,537th name on: through add, add_block, or merge of a forked
child's byte range, whichever side of the merge is wider.  Nothing
downstream may tell: the timelines and every artifact, stdout and stderr
of a run are those of a one-range read.  build_timelines ranks times as
int16 below 2**15 distinct times and as int32 from there on.
"""

import io
import json
import pickle
import shutil
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from famespan import corpus_io, forks
from famespan.cli import main
from famespan.corpus_io import Block, Stamp, read_documents
from famespan.dates import epoch_us
from famespan.timeline import MentionColumns, build_timelines

NAMES = ("Ada Lovelace", "Grace Hopper", "Alan Turing")
BIG = 2**32
CODES_2_BYTES = 1 << 16  # names whose codes fit in 2 bytes
DAY = date(2005, 1, 3)


def _write_corpus(path: Path, counts: dict[int, int], n_lines: int = 120,
                  extra: dict[int, list] | None = None, pad: dict[int, int] | None = None) -> None:
    """Three names over four months; line i's first mention has count
    ``counts.get(i, 1 + i % 3)``, its mentions end with ``extra.get(i)``
    and its id with ``pad.get(i)`` bytes of "x"."""
    extra, pad, lines = extra or {}, pad or {}, []
    for i in range(n_lines):
        mentions = [[NAMES[i % 3], counts.get(i, 1 + i % 3)], [NAMES[(i + 1) % 3], 2], *extra.get(i, [])]
        day = date(2005, 1 + i % 4, 1 + i % 28).isoformat()
        lines.append(json.dumps({"id": f"d{i}" + "x" * pad.get(i, 0), "date": day, "mentions": mentions}))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _add(cols: MentionColumns, via: str, mentions: list[tuple[str, int]], day: date = DAY) -> None:
    """One document's mentions, through add or through add_block."""
    if via == "add":
        cols.add(day, mentions)
    else:
        stamp = Stamp(day, epoch_us(day), 0, True)
        cols.add_block(Block(("d",), (stamp,), None, [name for name, _ in mentions],
                             [count for _, count in mentions], [len(mentions)]))


def _columns(cols: MentionColumns) -> tuple:
    return (list(cols.codes), cols.name_code.typecode, cols.name_code.tolist(), cols.count.typecode,
            cols.count.tolist(), cols.doc_us.tolist(), cols.doc_size.tolist())


@contextmanager
def _ranges(n: int):
    """Cut every file into n byte ranges, as tests/test_shards.py does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
        mp.setattr(forks, "usable_cpus", lambda: n)
        yield


def test_a_large_count_in_the_first_block_widens_the_counts(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_corpus(path, {0: 2**62, 1: BIG})
    cols = MentionColumns()
    with _ranges(1):
        read_documents(path, "pretagged").read(cols)
    assert cols.count.typecode == "q"
    assert list(cols.count[:4]) == [2**62, 2, BIG, 2]
    assert sum(cols.count) == 2**62 + BIG + 2 * 120 + sum(1 + i % 3 for i in range(2, 120))
    assert sum(t.total for t in build_timelines(cols).values()) == sum(cols.count)


def test_counts_stay_4_bytes_below_2_32():
    cols = MentionColumns([("Ada", date(2005, 1, 3), BIG - 1)])
    assert cols.count.typecode == "I" and build_timelines(cols)["Ada"].total == BIG - 1
    cols.add(date(2005, 1, 4), [("Ada", BIG)])
    assert cols.count.typecode == "q" and list(cols.count) == [BIG - 1, BIG]


@pytest.mark.parametrize("via", ["add", "add_block"])
def test_counts_widen_from_1_to_4_to_8_bytes(via):
    ladder = [(1, "B"), (255, "B"), (256, "I"), (BIG - 1, "I"), (BIG, "q"), (2**63 - 1, "q")]
    cols = MentionColumns()
    for k, (count, typecode) in enumerate(ladder):
        _add(cols, via, [("Ada", 1), (f"n{k}", count)], date(2005, 1, 1 + k))
        assert cols.count.typecode == typecode
    assert list(cols.count[1::2]) == [count for count, _ in ladder]
    timelines = build_timelines(cols)
    assert [timelines[f"n{k}"].total for k in range(len(ladder))] == [count for count, _ in ladder]
    assert timelines["Ada"].counts.tolist() == [1] * len(ladder)


@pytest.mark.parametrize("via", ["add", "add_block"])
def test_a_count_of_2_32_widens_1_byte_counts_to_8(via):
    cols = MentionColumns()
    _add(cols, via, [("Ada", 3)])
    _add(cols, via, [("Ada", 4), ("Grace", BIG)])
    assert cols.count.typecode == "q" and list(cols.count) == [3, 4, BIG]


@pytest.mark.parametrize("via", ["add", "add_block"])
def test_name_codes_widen_past_the_65536th_name(via):
    cols = MentionColumns()
    _add(cols, via, [(f"n{k}", 1) for k in range(CODES_2_BYTES)])
    assert cols.name_code.typecode == "H" and cols.name_code[-1] == CODES_2_BYTES - 1
    _add(cols, via, [("n0", 2), ("last", 3)])
    assert cols.name_code.typecode == "i"
    assert cols.name_code.tolist() == [*range(CODES_2_BYTES), 0, CODES_2_BYTES]
    timelines = build_timelines(cols)
    assert len(timelines) == CODES_2_BYTES + 1
    assert timelines["n0"].total == 3 and timelines["last"].total == 3 and timelines["n1"].total == 1


def _wide_side(column: str) -> MentionColumns:
    """Columns of which ``column`` is wider than a fresh MentionColumns'."""
    if column == "codes":
        cols = MentionColumns()
        cols.add(DAY, [*((f"n{k}", 1) for k in range(CODES_2_BYTES + 1)), ("Grace", 2)])
        return cols
    count = 256 if column == "count-4" else BIG
    return MentionColumns([("Grace", date(2005, 1, 4), count), ("Alan", date(2005, 1, 5), 5)])


@pytest.mark.parametrize("column", ["count-4", "count-8", "codes"])
@pytest.mark.parametrize("wider", ["parent", "child"])
def test_the_wider_side_of_a_merge_sets_the_width(column, wider):
    def narrow():
        return MentionColumns([("Ada", DAY, 3), ("Grace", date(2005, 1, 4), 1)])
    parent, child = (_wide_side(column), narrow()) if wider == "parent" else (narrow(), _wide_side(column))
    one = MentionColumns()  # the same documents added in one process
    for cols in (parent, child):
        names, at = list(cols.codes), 0
        for us, size in zip(cols.doc_us, cols.doc_size):
            one.add(us, [(names[c], n) for c, n in zip(cols.name_code[at:at + size], cols.count[at:at + size])])
            at += size
    parent.merge(pickle.loads(pickle.dumps(child.held(), pickle.HIGHEST_PROTOCOL)))
    assert _columns(parent) == _columns(one)
    assert parent.name_code.typecode == ("i" if column == "codes" else "H")
    assert parent.count.typecode == {"count-4": "I", "count-8": "q", "codes": "B"}[column]
    assert build_timelines(parent) == build_timelines(one)


def test_names_of_two_narrow_shards_widen_the_codes_on_merge():
    half = CODES_2_BYTES // 2 + 1
    parent = MentionColumns([(f"a{k}", DAY, 1) for k in range(half)])
    child = MentionColumns([*((f"b{k}", DAY, 2) for k in range(half)), ("a0", DAY, 3)])
    assert parent.name_code.typecode == child.name_code.typecode == "H"
    parent.merge(child.held())
    assert parent.name_code.typecode == "i" and len(parent.codes) == 2 * half
    assert parent.name_code.tolist() == [*range(2 * half), 0]
    assert build_timelines(parent)["a0"].total == 4


def test_merge_drops_each_column_once_appended():
    held = MentionColumns([("Ada", DAY, 3)]).held()
    MentionColumns().merge(held)
    assert held == []


def test_more_than_2_15_distinct_times_rank_as_int32():
    # time-of-day stamps a second apart: 40,000 distinct times, and 4 names
    rng = np.random.default_rng(5)
    n_docs = 40_000
    us = epoch_us(DAY) + rng.permutation(n_docs) * 1_000_000
    names = rng.integers(0, 4, (n_docs, 2))
    counts = rng.integers(1, 300, (n_docs, 2))
    keep = rng.random(n_docs) < 0.9
    cols, oracle = MentionColumns(), Counter()
    for t, row, row_counts, kept in zip(us.tolist(), names.tolist(), counts.tolist(), keep.tolist()):
        mentions = [(f"n{c}", n) for c, n in zip(row, row_counts)]
        cols.add(t, mentions)
        for name, n in mentions if kept else ():
            oracle[name, t] += n
    assert len({t for _, t in oracle}) > 2**15
    got = build_timelines(cols, keep)
    assert set(got) == {name for name, _ in oracle}
    for name, timeline in got.items():
        pairs = sorted((t, n) for (other, t), n in oracle.items() if other == name)
        assert timeline.times_us.tolist() == [t for t, _ in pairs]
        assert timeline.counts.tolist() == [n for _, n in pairs]


@pytest.mark.parametrize("widened", ["parent", "child"])
def test_a_widened_shard_merges(widened):
    small = MentionColumns([("Ada", date(2005, 1, 3), 3), ("Grace", date(2005, 1, 4), 1)])
    wide = MentionColumns([("Grace", date(2005, 1, 4), BIG), ("Alan", date(2005, 1, 5), 5)])
    parent, child = (wide, small) if widened == "parent" else (small, wide)
    expected = list(parent.count) + list(child.count)
    parent.merge(child.held())
    assert parent.count.typecode == "q" and list(parent.count) == expected
    grace = build_timelines(parent)["Grace"]
    assert grace.times_us.tolist() == [epoch_us(date(2005, 1, 4))] and grace.counts.tolist() == [BIG + 1]


def _invoke(argv: list[str], out: Path) -> tuple:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.getvalue(), stderr.getvalue(), files


@pytest.mark.parametrize("big_in", ["first", "second"])
def test_a_large_count_in_one_byte_range_changes_nothing(tmp_path, big_in):
    path = tmp_path / "corpus.jsonl"
    _write_corpus(path, {})
    with _ranges(2), open(path, "rb") as fh:
        cut = path.read_bytes()[:corpus_io._byte_ranges(fh)[1][0]].count(b"\n")
    assert 0 < cut < 119
    # the only count of 2**32 or more, on the first line of its range
    _write_corpus(path, {0 if big_in == "first" else cut: 3 * BIG})
    with _ranges(2), open(path, "rb") as fh:
        assert path.read_bytes()[:corpus_io._byte_ranges(fh)[1][0]].count(b"\n") == cut
    out = tmp_path / "out"
    argv = ["run", "--input", str(path), "--window", "2005-01", "2005-05", "--n-min", "100",
            "--underfull-policy", "keep-all", "--seed", "3", "--reps", "20", "--min-mentions", "1",
            "--min-duration", "0", "--out-dir", str(out)]
    with _ranges(1):
        one = _invoke(argv, out)
    with _ranges(2):
        two = _invoke(argv, out)
    assert one[0] == 0 and two == one


def _wide_corpus(path: Path, wide: str, wide_in: str) -> int:
    """A corpus of which only one byte range, the first or the second of
    two, holds a count of 256 or 65,537 names beyond NAMES; the line
    number at which the second range starts."""
    if wide == "count-256":
        _write_corpus(path, {})
        with _ranges(2), open(path, "rb") as fh:
            cut = path.read_bytes()[:corpus_io._byte_ranges(fh)[1][0]].count(b"\n")
        _write_corpus(path, {0 if wide_in == "first" else cut: 256})
    else:
        names = [[f"x{k}", 1] for k in range(CODES_2_BYTES + 1)]
        line = 0 if wide_in == "first" else 60
        # line 0 alone is past half the file, so the first range is line 0
        pad = {} if wide_in == "first" else {0: len(json.dumps(names)) + 20_000}
        _write_corpus(path, {}, extra={line: names}, pad=pad)
    with _ranges(2), open(path, "rb") as fh:
        return path.read_bytes()[:corpus_io._byte_ranges(fh)[1][0]].count(b"\n")


@pytest.mark.parametrize("wide_in", ["first", "second"])
@pytest.mark.parametrize("wide", ["count-256", "names"])
def test_a_wide_byte_range_reads_and_runs_as_one_range(tmp_path, wide, wide_in):
    path = tmp_path / "corpus.jsonl"
    cut = _wide_corpus(path, wide, wide_in)
    assert 0 < cut < 119
    read = {}
    for n in (1, 2):
        cols = MentionColumns()
        with _ranges(n):
            read_documents(path, "pretagged").read(cols)
        read[n] = _columns(cols)
    assert read[2] == read[1]
    assert read[1][1] == ("i" if wide == "names" else "H") and read[1][3] == ("I" if wide == "count-256" else "B")
    if wide == "names" and wide_in == "first":
        return  # the detectors take 2 s a run over 65,540 names; the merge that differs is read above
    out = tmp_path / "out"
    argv = ["run", "--input", str(path), "--window", "2005-01", "2005-05", "--n-min", "100",
            "--underfull-policy", "keep-all", "--seed", "3", "--reps", "20", "--min-mentions", "2",
            "--min-duration", "0", "--out-dir", str(out)]
    if wide == "names":
        argv += ["--methods", "spike", "--filters", "all"]
    with _ranges(1):
        one = _invoke(argv, out)
    with _ranges(2):
        two = _invoke(argv, out)
    assert one[0] == 0 and two == one
