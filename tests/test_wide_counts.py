"""Mention counts of 2**32 or more.

MentionColumns holds counts in 4 bytes and widens them to 8 the first time
a larger one arrives: through add, add_block, or merge of a forked child's
widened byte range.  Nothing downstream may tell: the timelines and every
artifact, stdout and stderr of a run are those of a one-range read.
"""

import io
import json
import shutil
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path

import pytest

from famespan import corpus_io, forks
from famespan.cli import main
from famespan.corpus_io import read_documents
from famespan.dates import epoch_us
from famespan.timeline import MentionColumns, build_timelines

NAMES = ("Ada Lovelace", "Grace Hopper", "Alan Turing")
BIG = 2**32


def _write_corpus(path: Path, counts: dict[int, int], n_lines: int = 120) -> None:
    """Three names over four months; line i's first mention has count
    ``counts.get(i, 1 + i % 3)``."""
    lines = []
    for i in range(n_lines):
        mentions = [[NAMES[i % 3], counts.get(i, 1 + i % 3)], [NAMES[(i + 1) % 3], 2]]
        day = date(2005, 1 + i % 4, 1 + i % 28).isoformat()
        lines.append(json.dumps({"id": f"d{i}", "date": day, "mentions": mentions}))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


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
