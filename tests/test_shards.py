"""Reading a file in forked byte-range shards changes nothing.

Shards are forced by lowering corpus_io._SHARD_MIN_BYTES to one byte and
by fixing the number of usable CPUs that forks.usable_cpus() reports;
every artifact, stdout, stderr and ReadStats of 2 and 3 shards must equal
those of one.  The hygiene tests check that every child is reaped and
every pipe closed when a child or the parent fails.
"""

import io
import json
import os
import shutil
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famespan import cli, corpus_io, forks
from famespan.cli import main
from famespan.corpus_io import ListSink, read_documents
from famespan.errors import SchemaError

WINDOW = ["--window", "2005-01", "2005-05"]
NAMES = ("Ada Lovelace", "Grace Hopper", "Alan Turing")
# in the window, then outside it
DATES = ("2005-01-31", "2005-02-01T06:30:00", "2005-03-10T12:00Z", "2005-04-30", "2004-12-31", "2005-05-01")


@contextmanager
def shards(n: int):
    """Cut every file into n byte ranges (fewer if it has fewer lines)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
        mp.setattr(forks, "usable_cpus", lambda: n)
        yield


def _invoke(argv: list[str], out: Path) -> tuple:
    """Exit code, stdout, stderr, the bytes of every file under ``out``
    and the ReadStats of every reader opened, of one CLI invocation."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    readers = []

    def opened(path, schema):
        readers.append(read_documents(path, schema))
        return readers[-1]

    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout), redirect_stderr(stderr):
        mp.setattr(cli, "read_documents", opened)
        code = main(argv)
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.getvalue(), stderr.getvalue(), files, [vars(r.stats) for r in readers]


def _assert_shard_invariant(argv: list[str], out: Path) -> tuple:
    with shards(1):
        one = _invoke(argv, out)
    for n in (2, 3):
        with shards(n):
            assert _invoke(argv, out) == one, f"{n} shards"
    return one


# ---------------------------------------------------------------------------
# line and file generators

def _json_line(kind: str, i: int, date: str, names: list, schema: str) -> bytes:
    payload = ({"text": f"Yesterday {' and '.join(names) or 'nobody'} spoke."} if schema == "raw"
               else {"mentions": [[name, 1 + k % 3] for k, name in enumerate(names)]})
    rec = {"id": f"d{i}", "date": date, **payload}
    if kind == "bad-date":
        rec["date"] = "2005-02-30"
    elif kind == "bad-count" and schema == "pretagged":
        rec["mentions"] = [[NAMES[0], 0]]
    line = json.dumps(rec, ensure_ascii=False)
    if kind == "not-json":
        return b"not json {"
    if kind == "invalid-utf8":
        return line.replace(f'"d{i}"', f'"d{i}\udcff"').encode("utf-8", "surrogateescape")
    if kind == "lone-surrogate":
        return line.replace(f'"d{i}"', f'"d{i}\\ud800"').encode()
    if kind == "surrogate-pair":
        return line.replace("Yesterday", "\\ud83d\\ude00").replace(NAMES[0], "\\ud83d\\ude00 Ada").encode()
    return line.encode()


def _tsv_line(kind: str, i: int, date: str, names: list) -> bytes:
    if kind == "invalid-utf8":
        return f"{date}\tAda \udcff\t1".encode("utf-8", "surrogateescape")
    if kind in ("not-json", "bad-count"):
        return f"{date}\tonly two".encode()
    if kind == "bad-date":
        return f"2005-02-30\t{NAMES[i % 3]}\t1".encode()
    return f"{date}\t{(names or NAMES)[0]}\t{1 + i % 2}".encode()


_BAD = st.sampled_from(["not-json", "bad-date", "bad-count", "invalid-utf8", "lone-surrogate"])
_LINE = st.tuples(st.sampled_from(["good"] * 8 + ["blank", "surrogate-pair"]), st.sampled_from(DATES),
                  st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
                  st.sampled_from([b"\n", b"\r\n", b"\r"]), st.sampled_from([b"", b"  "]))


@st.composite
def _file(draw, schema: str) -> bytes:
    """Mostly good lines with a few bad ones, sometimes past the 10% limit;
    LF, CRLF or mixed endings, a byte-order mark or none, JSON lines or
    (pre-tagged) TSV."""
    specs = draw(st.lists(_LINE, min_size=20, max_size=50))
    for kind in draw(st.lists(_BAD, max_size=3)):
        k = draw(st.integers(0, len(specs) - 1))
        specs[k] = (kind, *specs[k][1:])
    tsv = schema == "pretagged" and draw(st.booleans())
    newline = draw(st.sampled_from([b"\n", b"\r\n", None]))  # None: each line its own ending
    out = [b"\xef\xbb\xbf"] if draw(st.booleans()) else []
    for i, (kind, date, names, ending, blank) in enumerate(specs):
        if kind == "blank":
            line = blank
        elif tsv:
            line = _tsv_line(kind, i, date, names)
        else:
            line = _json_line(kind, i, date, names, schema)
        out += [line, newline or ending]
    if draw(st.booleans()):
        out.pop()  # no newline after the last line
    return b"".join(out)


def _inputs(tmp_path: Path, files: list[bytes], suffix: str) -> list[str]:
    paths = []
    for k, data in enumerate(files):
        paths.append(tmp_path / f"part{k}.{suffix}")
        paths[-1].write_bytes(data)
    return list(map(str, paths))


# ---------------------------------------------------------------------------
# the subcommands under 1, 2 and 3 shards

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=st.lists(_file("pretagged"), min_size=1, max_size=2), seed=st.integers(0, 99))
def test_pretagged_subcommands_do_not_depend_on_shards(tmp_path_factory, files, seed):
    tmp = tmp_path_factory.mktemp("pretagged")
    inputs, out = _inputs(tmp, files, "jsonl"), tmp / "out"
    sampling = [*WINDOW, "--n-min", "2", "--seed", str(seed), "--underfull-policy", "keep-all"]
    _assert_shard_invariant(["run", "--input", *inputs, *sampling, "--reps", "20", "--min-mentions", "1",
                             "--min-duration", "0", "--out-dir", str(out)], out)
    _assert_shard_invariant(["sample", "--input", *inputs, *sampling, "--out", str(out / "sampled.jsonl"),
                             "--report", str(out / "report.csv")], out)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(files=st.lists(_file("raw"), min_size=1, max_size=2), seed=st.integers(0, 99))
def test_raw_subcommands_do_not_depend_on_shards(tmp_path_factory, files, seed):
    tmp = tmp_path_factory.mktemp("raw")
    inputs, out = _inputs(tmp, files, "jsonl"), tmp / "out"
    gazetteer = tmp / "gazetteer.txt"
    gazetteer.write_text("Ada\nGrace\nAlan\n", encoding="utf-8")
    _assert_shard_invariant(["extract", "--input", inputs[0], "--gazetteer", str(gazetteer),
                             "--out", str(out / "tagged.jsonl")], out)
    _assert_shard_invariant(["periods", "--input", *inputs, "--schema", "raw", "--gazetteer", str(gazetteer),
                             *WINDOW, "--n-min", "2", "--seed", str(seed), "--underfull-policy", "keep-all",
                             "--min-mentions", "1", "--min-duration", "0", "--out-dir", str(out)], out)


def _cut_lines(path: Path, n: int) -> list[int]:
    """The 0-based numbers of the lines that begin a byte range of ``path``
    (after the first) when it is cut into ``n`` ranges."""
    with shards(n), open(path, "rb") as fh:
        ranges = corpus_io._byte_ranges(fh)
    data = path.read_bytes()
    return [data[:start].count(b"\n") for start, _ in ranges[1:]]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tsv", [False, True], ids=["jsonl", "tsv"])
def test_bad_lines_on_shard_boundaries(tmp_path, n, tsv):
    # one byte replaced in each line that begins a range leaves the cuts
    # where they were: the first such line no longer parses, the next is
    # not UTF-8
    lines = [_tsv_line("good", i, DATES[i % 5], [NAMES[i % 3]]) if tsv
             else _json_line("good", i, DATES[i % 5], [NAMES[i % 3]], "pretagged") for i in range(120)]
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines) + b"\r\n")
    cuts = _cut_lines(path, n)
    assert len(cuts) == n - 1 and 0 < cuts[0]
    for k, cut in enumerate(cuts):
        lines[cut] = (b"\t" if k % 2 == 0 else b"\xff") + lines[cut][1:]
    path.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines) + b"\r\n")
    assert _cut_lines(path, n) == cuts
    out = tmp_path / "out"
    code, _, _, files, stats = _assert_shard_invariant(
        ["sample", "--input", str(path), *WINDOW, "--n-min", "10", "--seed", "4",
         "--out", str(out / "sampled.jsonl"), "--report", str(out / "report.csv")], out)
    assert code == 0 and stats[0]["malformed"] == n - 1
    assert [e.split(": ", 1)[0] for e in stats[0]["errors"]] == [f"corpus.txt:{cut + 1}" for cut in cuts]
    if n == 3:
        assert stats[0]["errors"][1].endswith(": invalid UTF-8")
    if tsv:  # ids carry the line numbers of the whole file
        ids = {json.loads(line)["id"].rsplit(":", 1)[1] for line in files["sampled.jsonl"].splitlines()}
        assert ids <= {str(i + 1) for i in range(120)} and max(map(int, ids)) > cuts[-1] + 1


# ---------------------------------------------------------------------------
# process hygiene: every child reaped, every pipe closed, on every path

def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


def _ids(block):
    return block.ids


def _corpus(tmp_path: Path, n_lines: int = 90) -> Path:
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps({"id": f"d{i:02d}", "date": "2005-03-01", "mentions": [[NAMES[i % 3], 1]]})
             for i in range(n_lines)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@needs_proc
def test_the_earliest_failing_shard_raises(tmp_path, monkeypatch):
    path = _corpus(tmp_path)
    first, second = _cut_lines(path, 3)
    assert first <= 45 < second <= 75
    original = corpus_io._parse_json_line

    def failing(line, *rest):
        for doc_id in ("d45", "d75"):  # in the second and the third range
            if f'"{doc_id}"' in line:
                raise RuntimeError(f"failed at {doc_id}")
        return original(line, *rest)

    monkeypatch.setattr(corpus_io, "_parse_json_line", failing)
    with pytest.raises(RuntimeError, match="^failed at d45$"):
        list(read_documents(path, "pretagged"))
    before = _open_fds()
    with shards(3), pytest.raises(RuntimeError, match="^failed at d45$"):
        read_documents(path, "pretagged").read(ListSink(_ids))
    assert _open_fds() == before


@needs_proc
def test_a_child_that_dies_is_an_error(tmp_path, monkeypatch):
    path = _corpus(tmp_path)
    parent, original = os.getpid(), corpus_io._parse_json_line

    def dying(line, *rest):
        if os.getpid() != parent:
            os._exit(9)
        return original(line, *rest)

    monkeypatch.setattr(corpus_io, "_parse_json_line", dying)
    before = _open_fds()
    with shards(2), pytest.raises(ChildProcessError, match="ended without a result"):
        read_documents(path, "pretagged").read(ListSink(_ids))
    assert _open_fds() == before


class _Stop(Exception):
    pass


class _FailingInParent(ListSink):
    def add_block(self, block):
        raise _Stop  # shard() gives the children plain ListSinks


@needs_proc
def test_parent_error_while_children_read(tmp_path):
    path = _corpus(tmp_path, 3000)
    before = _open_fds()
    with shards(3), pytest.raises(_Stop):
        read_documents(path, "pretagged").read(_FailingInParent(_ids))
    assert _open_fds() == before


@needs_proc
def test_too_many_malformed_lines_sharded(tmp_path):
    path = _corpus(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(b"{broken\n" if i % 7 == 0 else line for i, line in enumerate(lines)))
    with pytest.raises(SchemaError) as serial:
        list(read_documents(path, "pretagged"))
    before = _open_fds()
    for n in (2, 3):
        with shards(n), pytest.raises(SchemaError) as sharded:
            read_documents(path, "pretagged").read(ListSink(_ids))
        assert str(sharded.value) == str(serial.value)
    assert _open_fds() == before
    assert "corpus.jsonl:1: " in str(serial.value) and "corpus.jsonl:8: " in str(serial.value)


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
    forked = []

    def fork():
        forked.append(1)
        raise AssertionError("forked beside another thread")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        sink = ListSink(_ids)
        read_documents(_corpus(tmp_path), "pretagged").read(sink)
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive() and not forked and len(sink.items) == 90


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_is_read_once(tmp_path):
    # a pipe can be opened and read only once: no sniff ahead, no byte ranges
    data = b"\xef\xbb\xbf" + _corpus(tmp_path).read_bytes()
    fifo = tmp_path / "pipe.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    sink = ListSink(_ids)
    reader = read_documents(fifo, "pretagged")
    with shards(3):
        reader.read(sink)
    writer.join(10)
    assert sink.items == [f"d{i:02d}" for i in range(90)] and reader.stats.lines == 90
