"""The single ingest pass against the streaming reference.

The reference reads the corpus twice, as the pipeline once did, one
famespan.synth Document at a time: month_volumes, then sample_uniform over
a second read, then each kept document's mentions (the recognizer's
phrase counts of a raw one), folded into timelines with a dict of dicts.
"""

import json
import tempfile
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famespan import corpus_io, forks
from famespan.cli import RunConfig, build_pipeline_timelines, main
from famespan.corpus_io import AnalysisWindow, ListSink, read_documents, write_documents
from famespan.dates import epoch_us, iso
from famespan.errors import DataError, FamespanError
from famespan.name_extract import Mention, load_recognizer, phrase_counts
from famespan.sampler import UNDERFULL_POLICIES, SamplerConfig
from famespan.synth import Document, document_to_json, month_volumes, sample_uniform, window_filter
from famespan.timeline import build_timelines

WINDOW = AnalysisWindow(date(2005, 1, 1), date(2005, 5, 1))
WINDOW_ARGS = ["--window", "2005-01", "2005-05"]
NAMES = ("Ada Lovelace", "Grace Hopper", "Alan Turing", "Emmy Noether")
N_MIN, SEED = 60, 11


def fold(mentions) -> dict[str, tuple[list[int], list[int]]]:
    """Dict-of-dicts oracle: per name, sorted distinct times and summed counts."""
    acc: dict[str, dict[int, int]] = {}
    for name, ts, count in mentions:
        per_name = acc.setdefault(name, {})
        us = epoch_us(ts)
        per_name[us] = per_name.get(us, 0) + count
    return {name: (sorted(p), [p[t] for t in sorted(p)]) for name, p in acc.items()}


def plain(timelines) -> dict[str, tuple[list[int], list[int]]]:
    return {name: (t.times_us.tolist(), t.counts.tolist()) for name, t in timelines.items()}


def documents(path, schema) -> list[Document]:
    """The Document of each record of ``path``, read() with no window."""
    docs = ListSink(lambda block: [
        Document(doc_id, stamp.timestamp, text=payload) if isinstance(payload, str)
        else Document(doc_id, stamp.timestamp, mentions=tuple(zip(*payload)))
        for doc_id, stamp, payload in block.records()])
    read_documents(path, schema).read(docs)
    return docs.items


def mentions(doc, recognizer):
    """(name, timestamp, count) of each mention of a document."""
    pairs = doc.mentions if doc.text is None else phrase_counts(doc.text, recognizer).items()
    return [(name, doc.timestamp, count) for name, count in pairs]


def reference(inputs, schema, sampler_cfg, recognizer=None):
    """(month volumes, kept counts, kept documents, timelines) of the two-pass stream."""
    def windowed():
        for path in inputs:
            yield from window_filter(documents(path, schema), WINDOW)

    volumes = month_volumes(windowed())
    kept_counts: dict = {}
    kept = list(sample_uniform(windowed(), volumes, sampler_cfg, kept_counts))
    timelines = fold(m for doc in kept for m in mentions(doc, recognizer))
    return volumes, kept_counts, kept, timelines


def _stamp(rng, day: date) -> str:
    # a third of the documents carry a time of day; few distinct hours,
    # so equal (name, time) pairs recur across documents
    if rng.random() < 1 / 3:
        return f"{day.isoformat()}T{int(rng.choice([6, 12, 18])):02d}:30:00"
    return day.isoformat()


def _day(rng) -> date:
    # 2004-12-10 .. 2005-05-20, so some documents fall outside the window;
    # April is thinned below N_MIN so every underfull policy matters
    while True:
        day = date(2004, 12, 10) + timedelta(days=int(rng.integers(0, 162)))
        if day.month != 4 or rng.random() < 0.2:
            return day


MALFORMED = [
    "not json at all",
    '{"id": "", "date": "2005-02-01", "mentions": []}',
    '{"id": "bad-date", "date": "20050201", "mentions": [["Ada Lovelace", 1]]}',
    '{"id": "bad-count", "date": "2005-02-01", "mentions": [["Ada Lovelace", 0]]}',
]


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _pretagged_jsonl(path: Path, rng, prefix: str, n: int) -> Path:
    lines = []
    for i in range(n):
        picks = rng.choice(len(NAMES), size=int(rng.integers(1, 4)), replace=False)
        mentions = [[NAMES[j], int(rng.integers(1, 4))] for j in picks]
        lines.append(json.dumps({"id": f"{prefix}{i}", "date": _stamp(rng, _day(rng)),
                                 "mentions": mentions}))
        if i % 90 == 45:
            lines.extend(["", MALFORMED[(i // 90) % len(MALFORMED)]])
    return _write_lines(path, lines)


def _pretagged_tsv(path: Path, rng, n: int) -> Path:
    lines = [f"{_stamp(rng, _day(rng))}\t{NAMES[int(rng.integers(0, len(NAMES)))]}"
             f"\t{int(rng.integers(1, 4))}" for _ in range(n)]
    lines[7] = "2005-02-01\tonly two fields"
    return _write_lines(path, lines)


def _raw_jsonl(path: Path, rng, n: int) -> Path:
    sentences = ["Mrs. Ada Lovelace spoke.", "Grace Hopper arrived.", "Alan Turing wrote.",
                 "Dr. Emmy Noether lectured.", "The weather held."]
    lines = []
    for i in range(n):
        text = " ".join(sentences[j] for j in rng.choice(5, size=int(rng.integers(1, 4))))
        lines.append(json.dumps({"id": f"r{i}", "date": _stamp(rng, _day(rng)), "text": text}))
    lines[11] = '{"id": "r-no-text", "date": "2005-02-01"}'
    return _write_lines(path, lines)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """schema -> (input files, gazetteer or None)."""
    root = tmp_path_factory.mktemp("ingest")
    rng = np.random.default_rng(2005)
    gazetteer = _write_lines(root / "gazetteer.txt", ["Grace", "Alan"])
    return {
        "two-jsonl": ("pretagged", [_pretagged_jsonl(root / "a.jsonl", rng, "a", 500),
                                    _pretagged_jsonl(root / "b.jsonl", rng, "b", 400)], None),
        "jsonl+tsv": ("pretagged", [_pretagged_jsonl(root / "c.jsonl", rng, "c", 300),
                                    _pretagged_tsv(root / "d.tsv", rng, 700)], None),
        "raw": ("raw", [_raw_jsonl(root / "raw.jsonl", rng, 900)], gazetteer),
    }


@pytest.mark.parametrize("policy", UNDERFULL_POLICIES)
@pytest.mark.parametrize("case", ["two-jsonl", "jsonl+tsv", "raw"])
def test_single_pass_matches_streaming_reference(corpora, tmp_path, capsys, case, policy):
    schema, inputs, gazetteer = corpora[case]
    sampler_cfg = SamplerConfig(N_MIN, SEED, policy)
    recognizer = load_recognizer(gazetteer) if gazetteer else None
    common = ["--input", *map(str, inputs), "--schema", schema, *WINDOW_ARGS,
              "--n-min", str(N_MIN), "--seed", str(SEED), "--underfull-policy", policy]
    sample_args = ["sample", *common, "--out", str(tmp_path / "sampled.jsonl"),
                   "--report", str(tmp_path / "report.csv")]
    if gazetteer:
        common += ["--gazetteer", str(gazetteer)]
    periods_args = ["periods", *common, "--out-dir", str(tmp_path / "periods")]
    if policy == "fail":  # April is underfull
        with pytest.raises(FamespanError) as info:
            reference(inputs, schema, sampler_cfg, recognizer)
        for args in (sample_args, periods_args):
            capsys.readouterr()
            assert main(args) == info.value.exit_code
            assert capsys.readouterr().err == f"famespan: error: {info.value}\n"
        assert not (tmp_path / "sampled.jsonl").exists()
        assert not any((tmp_path / "periods").iterdir())
        return
    volumes, kept_counts, kept, timelines = reference(inputs, schema, sampler_cfg, recognizer)
    assert 0 < len(kept) < sum(v.n_t for v in volumes)

    assert main(sample_args) == 0
    write_documents(map(document_to_json, kept), tmp_path / "ref_sampled.jsonl")
    (tmp_path / "ref_report.csv").write_text("month,n_t,kept\n" + "".join(
        f"{year:04d}-{month:02d},{n_t},{kept_counts.get((year, month), 0)}\n"
        for (year, month), n_t in volumes), encoding="utf-8")
    assert (tmp_path / "sampled.jsonl").read_bytes() == (tmp_path / "ref_sampled.jsonl").read_bytes()
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "ref_report.csv").read_bytes()

    cfg = RunConfig(window=WINDOW, n_min=N_MIN, seed=SEED, schema=schema,
                    underfull_policy=policy, gazetteer=gazetteer)
    got = build_pipeline_timelines(cfg, inputs, tmp_path / "pipeline_report.csv")
    assert plain(got) == timelines
    assert (tmp_path / "pipeline_report.csv").read_bytes() == (tmp_path / "ref_report.csv").read_bytes()


def test_fixture_covers_the_cases_it_claims(corpora):
    schema, inputs, _ = corpora["two-jsonl"]
    docs = [d for p in inputs for d in documents(p, schema)]
    keys = Counter((name, epoch_us(d.timestamp)) for d in docs for name, _ in d.mentions)
    assert any(n > 1 for n in keys.values())  # repeated (name, time) pairs
    assert any(isinstance(d.timestamp, datetime) for d in docs)  # time of day
    assert any(not WINDOW.contains(d.timestamp) for d in docs)  # outside the window
    volumes = month_volumes(window_filter(docs, WINDOW))
    assert min(v.n_t for v in volumes) < N_MIN < max(v.n_t for v in volumes)
    reader = read_documents(inputs[0], schema)
    reader.read(ListSink(lambda block: ()))
    assert reader.stats.malformed > 0 and reader.stats.blank > 0


@pytest.mark.parametrize("ranges", [1, 2])
def test_raw_run_equals_extract_then_pretagged_run(corpora, tmp_path, monkeypatch, ranges):
    # every input is read in ``ranges`` byte ranges; only the manifests,
    # which name the inputs and the schema, differ
    _, (raw,), gazetteer = corpora["raw"]
    monkeypatch.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(forks, "usable_cpus", lambda: ranges)
    tagged = tmp_path / "tagged.jsonl"
    assert main(["extract", "--input", str(raw), "--gazetteer", str(gazetteer), "--out", str(tagged)]) == 0
    common = [*WINDOW_ARGS, "--n-min", str(N_MIN), "--seed", str(SEED), "--reps", "50"]
    assert main(["run", "--input", str(raw), "--schema", "raw", "--gazetteer", str(gazetteer), *common,
                 "--out-dir", str(tmp_path / "raw")]) == 0
    assert main(["run", "--input", str(tagged), *common, "--out-dir", str(tmp_path / "tagged")]) == 0
    artifacts = [{p.name: p.read_bytes() for p in (tmp_path / run).iterdir() if p.name != "manifest.json"}
                 for run in ("raw", "tagged")]
    assert artifacts[0] == artifacts[1] and len(artifacts[0]) > 20


@pytest.fixture(scope="module")
def staged_inputs(tmp_path_factory):
    """A synthesized JSONL corpus with blank and malformed lines, and a TSV file."""
    root = tmp_path_factory.mktemp("staged")
    spec = {
        "seed": 5,
        "window": {"start": "2005-01", "end": "2005-07"},
        "volume": {"monthly_total": 200},
        "profiles": [
            {"name": f"Name {i:02d}",
             "segments": [{"start": f"2005-{2 + i % 3:02d}-{1 + i:02d}",
                           "end": f"2005-{2 + i % 3:02d}-{11 + i:02d}", "p": 0.3}]}
            for i in range(12)
        ],
    }
    (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(corpus)]) == 0
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("\n".join(["", *MALFORMED, "   ", ""]) + "\n")
    tsv = _write_lines(root / "extra.tsv", [f"2005-03-{d:02d}\tName 00\t2" for d in range(1, 20)]
                       + ["2005-03-02T08:00:00\tName 01\t1", "2005-03-02\tonly two"])
    return [corpus, tsv]


@pytest.fixture
def parse_counts(monkeypatch):
    """Counts every line handed to the JSON and TSV line parsers."""
    seen: Counter = Counter()
    for attr in ("_parse_json_line", "_parse_tsv_line"):
        original = getattr(corpus_io, attr)

        def counted(line, *rest, _original=original):
            seen[line] += 1
            return _original(line, *rest)

        monkeypatch.setattr(corpus_io, attr, counted)
    return seen


@pytest.mark.parametrize("command", ["run", "periods", "sample"])
def test_each_line_is_parsed_once(staged_inputs, tmp_path, parse_counts, command):
    args = [command, "--input", *map(str, staged_inputs), "--window", "2005-01", "2005-07",
            "--n-min", "150", "--seed", str(SEED)]
    if command == "sample":
        args += ["--out", str(tmp_path / "sampled.jsonl"), "--report", str(tmp_path / "r.csv")]
    else:
        args += ["--out-dir", str(tmp_path), "--min-mentions", "5"]
    if command == "run":
        args += ["--reps", "20"]
    assert main(args) == 0
    lines = Counter(line.strip() for p in staged_inputs
                    for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
    assert sum(lines.values()) > 1200
    assert parse_counts == lines


# ---------------------------------------------------------------------------
# the kernel against the oracle, input permuted and split across files

_DOC = st.tuples(
    st.integers(0, 140),  # day offset from 2004-12-20; the window starts 12 days in
    st.none() | st.integers(0, 86_399),  # second of the day, or a plain date
    st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 5)), max_size=4),
)


def _doc_record(i, spec):
    day_offset, second, mentions = spec
    day = date(2004, 12, 20) + timedelta(days=day_offset)
    ts = day if second is None else datetime(day.year, day.month, day.day) + timedelta(seconds=second)
    return {"id": f"d{i}", "date": iso(ts), "mentions": [list(m) for m in mentions]}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(_DOC, min_size=1, max_size=40), data=st.data())
def test_kernel_matches_oracle_permuted_and_split(specs, data):
    records = [_doc_record(i, s) for i, s in enumerate(specs)]
    order = data.draw(st.permutations(range(len(records))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=3)))
    sampler_cfg = SamplerConfig(3, SEED, "keep-all")
    with tempfile.TemporaryDirectory() as tmp:
        whole = _write_lines(Path(tmp) / "whole.jsonl", [json.dumps(r) for r in records])
        _, _, kept, expected = reference([whole], "pretagged", sampler_cfg)
        bounds = [0, *cuts, len(records)]
        parts = [_write_lines(Path(tmp) / f"part{k}.jsonl",
                              [json.dumps(records[i]) for i in order[a:b]])
                 for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        cfg = RunConfig(window=WINDOW, n_min=3, seed=SEED, underfull_policy="keep-all")
        if not expected:
            with pytest.raises(DataError):
                build_pipeline_timelines(cfg, parts)
        else:
            assert plain(build_pipeline_timelines(cfg, parts)) == expected
    mentions = [Mention(name, d.timestamp, count) for d in kept for name, count in d.mentions]
    shuffled = [mentions[i] for i in data.draw(st.permutations(range(len(mentions))))]
    assert plain(build_timelines(shuffled)) == expected

