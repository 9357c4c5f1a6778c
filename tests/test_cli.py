import argparse
import json
from datetime import date

import pytest

from famespan.cli import build_parser, main


@pytest.fixture(scope="module")
def synth_spec_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("spec")
    profiles = []
    for i in range(30):
        offset = (i * 3) % 90
        s = date(2005, 2, 1).toordinal() + offset
        profiles.append(
            {
                "name": f"Name {i:02d}",
                "segments": [
                    {
                        "start": date.fromordinal(s).isoformat(),
                        "end": date.fromordinal(s + 10).isoformat(),
                        "p": 0.3,
                    }
                ],
            }
        )
    spec = {
        "seed": 424242,
        "window": {"start": "2005-01", "end": "2005-07"},
        "volume": {"monthly_total": 400},
        "profiles": profiles,
    }
    path = root / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus_path(synth_spec_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    assert main(["synth", "--spec", str(synth_spec_path), "--out", str(out)]) == 0
    return out


SAMPLING_ARGS = [
    "--schema", "pretagged",
    "--window", "2005-01", "2005-07",
    "--n-min", "300",
    "--seed", "7",
]
RUN_ARGS = [*SAMPLING_ARGS, "--reps", "100"]


def run_to(corpus, out_dir, extra=()):
    args = ["run", "--input", str(corpus), "--out-dir", str(out_dir), *RUN_ARGS, *extra]
    return main(args)


def test_synth_writes_expected_volume(corpus_path):
    lines = corpus_path.read_text().splitlines()
    assert len(lines) == 6 * 400
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "date", "mentions"}


def test_run_end_to_end(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert run_to(corpus_path, out) == 0
    expected = {
        "sampling_report.csv",
        "summary.csv",
        "summary.txt",
        "manifest.json",
    }
    names = {p.name for p in out.iterdir()}
    assert expected <= names
    for method in ("spike", "continuity"):
        for token in ("all", "top-1000", "top-0.1pct"):
            assert f"periods_{method}_{token}.csv" in names
            assert f"series_{method}_{token}_3mo.csv" in names
            assert f"series_{method}_{token}_5y.csv" in names
            assert f"fits_{method}_{token}.json" in names
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("method,filtering,period,p50 (lo..hi)")
    assert len(summary) == 1 + 2 * 3  # one 5-year cohort per (method, filter)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert str(corpus_path) in manifest["inputs"]


def test_run_is_byte_identical_under_same_seed(tmp_path, corpus_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_to(corpus_path, out1) == 0
    assert run_to(corpus_path, out2) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_report_recomputes_summary_from_periods_csv(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert run_to(corpus_path, out) == 0
    period_files = sorted(str(p) for p in out.glob("periods_*.csv"))
    re_out = tmp_path / "re"
    assert main(
        ["report", "--periods", *period_files, "--seed", "7", "--reps", "100",
         "--out-dir", str(re_out)]
    ) == 0
    original = (out / "summary.csv").read_text().splitlines()
    recomputed = (re_out / "summary.csv").read_text().splitlines()
    assert sorted(original) == sorted(recomputed)


def test_stats_subcommand_matches_run_artifacts(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert run_to(corpus_path, out) == 0
    stats_out = tmp_path / "stats"
    assert main(
        ["stats", "--periods", str(out / "periods_spike_all.csv"), "--seed", "7",
         "--reps", "100", "--out-dir", str(stats_out)]
    ) == 0
    for name in ("series_spike_all_3mo.csv", "series_spike_all_5y.csv", "fits_spike_all.json"):
        assert (stats_out / name).read_bytes() == (out / name).read_bytes()


def test_sample_subcommand(tmp_path, corpus_path):
    out = tmp_path / "sampled.jsonl"
    report = tmp_path / "volumes.csv"
    code = main(
        ["sample", "--input", str(corpus_path), "--window", "2005-01", "2005-07",
         "--n-min", "300", "--seed", "5", "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    kept = out.read_text().splitlines()
    assert 6 * 250 < len(kept) < 6 * 350  # ~300/month from 400/month
    lines = report.read_text().splitlines()
    assert lines[0] == "month,n_t,kept"
    assert len(lines) == 7


def test_failed_sample_leaves_no_output(tmp_path, corpus_path):
    out = tmp_path / "sampled.jsonl"
    report = tmp_path / "volumes.csv"
    code = main(
        ["sample", "--input", str(corpus_path), "--window", "2005-01", "2005-07",
         "--n-min", "100000", "--underfull-policy", "fail", "--seed", "5",
         "--out", str(out), "--report", str(report)]
    )
    assert code == 3
    assert not out.exists()
    assert not report.exists()


def test_extract_word_lists_may_start_with_a_byte_order_mark(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "a", "date": "1950-01-02", "text": "Ada Lovelace met Sir Alan Turing."})
                   + "\n", encoding="utf-8")
    gaz, hon = tmp_path / "gaz.txt", tmp_path / "hon.txt"
    gaz.write_text("\ufeffAda\n", encoding="utf-8")
    hon.write_text("\ufeffSir\n", encoding="utf-8")
    out = tmp_path / "tagged.jsonl"
    assert main(["extract", "--input", str(raw), "--gazetteer", str(gaz), "--honorifics", str(hon),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mentions"] == [["Ada Lovelace", 1], ["Alan Turing", 1]]


def test_failed_extract_leaves_no_output(tmp_path):
    # a third of the lines malformed: SchemaError at the end of the stream,
    # after the good lines were written
    good = [json.dumps({"id": f"d{i}", "date": "1950-01-02", "text": "Ada Lovelace spoke."}) for i in range(20)]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("\n".join(good + ["{broken"] * 10) + "\n", encoding="utf-8")
    gaz = tmp_path / "gaz.txt"
    gaz.write_text("Ada\n", encoding="utf-8")
    out = tmp_path / "tagged.jsonl"
    assert main(["extract", "--input", str(raw), "--gazetteer", str(gaz), "--out", str(out)]) == 3
    assert not out.exists()


def test_extract_subcommand(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        json.dumps({"id": "a", "date": "1950-01-02", "text": "Mrs. Ada Lovelace spoke. Ada Lovelace left."})
        + "\n",
        encoding="utf-8",
    )
    gaz = tmp_path / "gaz.txt"
    gaz.write_text("Ada\n", encoding="utf-8")
    out = tmp_path / "tagged.jsonl"
    assert main(["extract", "--input", str(raw), "--gazetteer", str(gaz), "--out", str(out)]) == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["mentions"] == [["Ada Lovelace", 2]]


def test_fixture_subcommand(tmp_path):
    out = tmp_path / "fixture.tsv"
    assert main(["fixture", "--kind", "monroe-like", "--out", str(out)]) == 0
    assert out.read_text().startswith("monroe-like\t")


def _raw_corpus(tmp_path):
    raw = tmp_path / "raw.jsonl"
    rows = []
    day = date(2005, 1, 2)
    i = 0
    while day < date(2005, 12, 31):
        rows.append(json.dumps({
            "id": f"r{i}",
            "date": day.isoformat(),
            "text": "Ada Lovelace visited town again. Nothing else happened.",
        }))
        day = date.fromordinal(day.toordinal() + 3)
        i += 1
    raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return raw


def _run_raw(raw, gaz, out):
    return main([
        "run", "--input", str(raw), "--schema", "raw", "--gazetteer", str(gaz),
        "--window", "2005-01", "2006-01", "--n-min", "8", "--seed", "3",
        "--reps", "50", "--out-dir", str(out),
    ])


def test_run_on_raw_corpus_with_recognizer(tmp_path):
    raw = _raw_corpus(tmp_path)
    gaz = tmp_path / "gaz.txt"
    gaz.write_text("Ada\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run_raw(raw, gaz, out) == 0
    periods = (out / "periods_continuity_all.csv").read_text().splitlines()
    assert len(periods) == 2  # header + the one recognized name
    assert periods[1].startswith("Ada Lovelace,continuity,")


def test_manifest_records_recognizer_word_lists(tmp_path):
    # gazetteers one name apart: same periods, different manifests
    from famespan.report import sha256_file

    raw = _raw_corpus(tmp_path)
    manifests = []
    for i, names in enumerate(["Ada\n", "Ada\nGrace\n"]):
        gaz = tmp_path / f"gaz{i}.txt"
        gaz.write_text(names, encoding="utf-8")
        out = tmp_path / f"out{i}"
        assert _run_raw(raw, gaz, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["gazetteer"] == str(gaz)
        assert manifest["inputs"][str(gaz)] == sha256_file(gaz)
        assert "honorifics" not in manifest["config"]
        manifests.append((out / "manifest.json").read_bytes())
    assert (tmp_path / "out0" / "periods_continuity_all.csv").read_bytes() == \
        (tmp_path / "out1" / "periods_continuity_all.csv").read_bytes()
    assert manifests[0] != manifests[1]


def test_pretagged_manifest_lists_only_the_corpus(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert run_to(corpus_path, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(corpus_path)]
    assert not {"gazetteer", "honorifics", "stoplist"} & set(manifest["config"])


def test_raw_schema_requires_gazetteer(tmp_path, corpus_path):
    code = main([
        "run", "--input", str(corpus_path), "--schema", "raw",
        "--out-dir", str(tmp_path / "o"), "--window", "2005-01", "2005-07",
        "--n-min", "10", "--seed", "1", "--reps", "50",
    ])
    assert code == 2


def test_custom_cohort_widths(tmp_path, corpus_path):
    out = tmp_path / "out"
    code = run_to(corpus_path, out, extra=["--widths", "6,120", "--methods", "continuity",
                                           "--filters", "all"])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "series_continuity_all_6mo.csv" in names
    assert "series_continuity_all_120mo.csv" in names
    summary = (out / "summary.csv").read_text().splitlines()
    assert "+120mo" in summary[1]


def test_config_error_exit_code(tmp_path, corpus_path):
    code = run_to(corpus_path, tmp_path / "x", extra=["--filters", "bogus"])
    assert code == 2


def test_data_error_exit_code(tmp_path):
    code = main(
        ["run", "--input", str(tmp_path / "missing.jsonl"), "--out-dir", str(tmp_path / "o"), *RUN_ARGS]
    )
    assert code == 3


def test_count_sum_beyond_int64_is_a_data_error(tmp_path, capsys):
    # each count is valid, but any two of them on one date sum to 2**63
    corpus = tmp_path / "huge.jsonl"
    rows = [json.dumps({"id": f"d{i}", "date": "2005-03-01", "mentions": [["Ada Lovelace", 2**62]]})
            for i in range(40)]
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["periods", "--input", str(corpus), "--out-dir", str(out), "--schema", "pretagged",
                 "--window", "2005-01", "2005-07", "--n-min", "10", "--seed", "1"])
    assert code == 3
    assert "'Ada Lovelace'" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_stats_error_exit_code_and_cleanup(tmp_path):
    # single-day bursts: every continuity duration is 0, nothing survives
    corpus = tmp_path / "tiny.jsonl"
    rows = []
    for i in range(40):
        rows.append(json.dumps({"id": f"d{i}", "date": "2005-02-03", "mentions": [["Solo Name", 1]]}))
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["run", "--input", str(corpus), "--out-dir", str(out),
         "--schema", "pretagged", "--window", "2005-01", "2005-07",
         "--n-min", "10", "--seed", "1", "--reps", "50",
         "--methods", "continuity"]
    )
    assert code == 4
    assert list(out.iterdir()) == []  # partial artifacts removed


def test_periods_subcommand_matches_run_artifacts(tmp_path, corpus_path, capsys):
    out = tmp_path / "out"
    assert run_to(corpus_path, out) == 0
    stages = tmp_path / "stages"
    capsys.readouterr()
    assert main(["periods", "--input", str(corpus_path), "--out-dir", str(stages),
                 *SAMPLING_ARGS]) == 0
    assert capsys.readouterr().out == f"wrote 6 period files to {stages}\n"
    periods_files = sorted(p.name for p in stages.glob("periods_*.csv"))
    assert len(periods_files) == 6
    for name in [*periods_files, "sampling_report.csv"]:
        assert (stages / name).read_bytes() == (out / name).read_bytes(), name


def test_sample_report_matches_run_sampling_report(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert run_to(corpus_path, out) == 0
    report = tmp_path / "volumes.csv"
    assert main(
        ["sample", "--input", str(corpus_path), *SAMPLING_ARGS,
         "--out", str(tmp_path / "sampled.jsonl"), "--report", str(report)]
    ) == 0
    assert report.read_bytes() == (out / "sampling_report.csv").read_bytes()


INPUT_FLAGS = {"--input", "--schema", "--window", "--n-min", "--seed", "--underfull-policy"}
PIPELINE_FLAGS = {"--methods", "--filters", "--min-mentions", "--min-duration", "--top-k",
                  "--top-fraction", "--gazetteer", "--honorifics", "--stoplist"}
BOOTSTRAP_FLAGS = {"--reps", "--level", "--tail-quantile"}
EXPECTED_FLAGS = {
    "synth": {"--spec", "--seed", "--out"},
    "extract": {"--input", "--gazetteer", "--honorifics", "--stoplist", "--out"},
    "sample": INPUT_FLAGS | {"--out", "--report"},
    "periods": INPUT_FLAGS | PIPELINE_FLAGS | {"--out-dir", "--timelines"},
    "stats": {"--periods", "--seed", "--widths", "--out-dir"} | BOOTSTRAP_FLAGS,
    "report": {"--periods", "--seed", "--width", "--out-dir"} | BOOTSTRAP_FLAGS,
    "run": INPUT_FLAGS | PIPELINE_FLAGS | BOOTSTRAP_FLAGS | {"--widths", "--out-dir"},
    "fixture": {"--kind", "--out"},
}


def test_subcommand_flag_sets_are_pinned():
    # a new option must show up here as a deliberate change to this table
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert flags == EXPECTED_FLAGS
