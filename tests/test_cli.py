import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from datetime import date
from pathlib import Path

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


@pytest.mark.parametrize("command", ["extract", "run"])
def test_a_word_list_that_is_not_utf8_is_a_data_error(tmp_path, capsys, command):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "a", "date": "2005-02-02", "text": "Ada Lovelace spoke."}) + "\n",
                   encoding="utf-8")
    gaz = tmp_path / "gaz.txt"
    gaz.write_bytes(b"Ada\nRen\xe9\n")  # Latin-1
    out = tmp_path / "out"
    if command == "extract":
        args = ["extract", "--input", str(raw), "--gazetteer", str(gaz), "--out", str(out)]
    else:
        args = ["run", "--input", str(raw), "--schema", "raw", "--gazetteer", str(gaz), "--window", "2005-01",
                "2006-01", "--n-min", "1", "--seed", "3", "--out-dir", str(out)]
    assert main(args) == 3
    assert capsys.readouterr().err == (f"famespan: error: {gaz}: a word list must be UTF-8 "
                                       "(invalid continuation byte)\n")
    assert not out.is_file() and not any(out.glob("*"))


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


# (arguments, with file names relative to the test's directory; the flag
# refused; the flag of the file it collides with)
OUTPUT_COLLISIONS = [
    (["sample", "--input", "tagged.jsonl", *SAMPLING_ARGS, "--out", "sub/../x.jsonl", "--report", "x.jsonl"],
     "--report", "--out"),
    (["sample", "--input", "tagged.jsonl", *SAMPLING_ARGS, "--out", "tagged.jsonl"], "--out", "--input"),
    (["sample", "--input", "tagged.jsonl", *SAMPLING_ARGS, "--out", "s.jsonl", "--report", "sub/../tagged.jsonl"],
     "--report", "--input"),
    (["extract", "--input", "raw.jsonl", "--gazetteer", "gaz.txt", "--out", "raw.jsonl"], "--out", "--input"),
    (["extract", "--input", "raw.jsonl", "--gazetteer", "gaz.txt", "--out", "link.jsonl"], "--out", "--input"),
]


@pytest.mark.parametrize("argv, flag, other_flag", OUTPUT_COLLISIONS, ids=[
    "sample-report-is-out", "sample-out-is-input", "sample-report-is-input", "extract-out-is-input",
    "extract-out-links-to-input"])
def test_an_output_that_is_an_input_or_another_output_is_a_config_error(
        tmp_path, corpus_path, capsys, argv, flag, other_flag):
    # the same file by path, by another spelling of a path that does not
    # exist yet, by another spelling of an existing path and by a symbolic
    # link; each would replace an input or the other output
    (tmp_path / "tagged.jsonl").write_bytes(corpus_path.read_bytes())
    (tmp_path / "raw.jsonl").write_text(
        json.dumps({"id": "a", "date": "1950-01-02", "text": "Ada Lovelace spoke."}) + "\n", encoding="utf-8")
    (tmp_path / "gaz.txt").write_text("Ada\n", encoding="utf-8")
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "raw.jsonl")
    (tmp_path / "sub").mkdir()
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    argv = [str(tmp_path / a) if a.endswith((".jsonl", ".txt")) else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"famespan: error: {flag} {tmp_path}") and err.count("\n") == 1
    assert f" is the same file as {other_flag} {tmp_path}" in err
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
def test_sample_may_send_both_outputs_to_one_device(corpus_path, capsys):
    # writing to a device replaces no file
    assert main(["sample", "--input", str(corpus_path), *SAMPLING_ARGS,
                 "--out", os.devnull, "--report", os.devnull]) == 0
    assert capsys.readouterr().out.startswith("kept ")


def _month_corpus(path: Path, prefix: str) -> Path:
    """60 pre-tagged documents in 2005-01, with ids prefix0..prefix59."""
    path.write_text("".join(json.dumps({"id": f"{prefix}{i}", "date": f"2005-01-{1 + i % 28:02d}",
                                        "mentions": [["Ada Lovelace", 1]]}) + "\n" for i in range(60)),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("flags", ["repeated", "one"])
def test_every_input_is_read_in_the_order_given(tmp_path, flags):
    a, b = _month_corpus(tmp_path / "a.jsonl", "a"), _month_corpus(tmp_path / "b.jsonl", "b")
    inputs = ["--input", str(a), "--input", str(b)] if flags == "repeated" else ["--input", str(a), str(b)]
    out, report = tmp_path / "sampled.jsonl", tmp_path / "volumes.csv"
    assert main(["sample", *inputs, "--window", "2005-01", "2005-02", "--n-min", "1000", "--seed", "1",
                 "--underfull-policy", "keep-all", "--out", str(out), "--report", str(report)]) == 0
    assert report.read_text().splitlines()[1] == "2005-01,120,120"
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == \
        [f"{prefix}{i}" for prefix in "ab" for i in range(60)]


def test_a_repeated_input_flag_reads_every_file_in_a_run(tmp_path, corpus_path):
    # the corpus cut in two: --input a --input b gives the artifacts of --input a b
    lines = corpus_path.read_bytes().splitlines(keepends=True)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_bytes(b"".join(lines[:1000]))
    b.write_bytes(b"".join(lines[1000:]))
    assert run_to(a, tmp_path / "one", extra=["--input", str(b)]) == 0
    assert main(["run", "--input", str(a), str(b), "--out-dir", str(tmp_path / "two"), *RUN_ARGS]) == 0
    assert list(json.loads((tmp_path / "one" / "manifest.json").read_text())["inputs"]) == [str(a), str(b)]
    for path in (tmp_path / "two").iterdir():
        assert (tmp_path / "one" / path.name).read_bytes() == path.read_bytes(), path.name


# (the --input arguments, relative to the test's directory; the file named
# second, which the error names as the same file as the first)
INPUT_TWICE = {
    "one-flag": (["--input", "c.jsonl", "c.jsonl"], "c.jsonl"),
    "two-flags": (["--input", "c.jsonl", "--input", "d.jsonl", "--input", "c.jsonl"], "c.jsonl"),
    "other-spelling": (["--input", "c.jsonl", "sub/../c.jsonl"], "sub/../c.jsonl"),
    "link": (["--input", "c.jsonl", "link.jsonl"], "link.jsonl"),
}


@pytest.mark.parametrize("spelling", INPUT_TWICE)
@pytest.mark.parametrize("command", ["sample", "periods", "run"])
def test_an_input_given_twice_is_a_config_error_before_any_read(tmp_path, capsys, command, spelling):
    # every line is malformed, so reading an input would be a data error, exit 3
    for name in ("c.jsonl", "d.jsonl"):
        (tmp_path / name).write_text("{broken\n", encoding="utf-8")
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "c.jsonl")
    (tmp_path / "sub").mkdir()
    inputs, second = INPUT_TWICE[spelling]
    out = tmp_path / "out"
    args = [command, *(a if a.startswith("--") else str(tmp_path / a) for a in inputs), *SAMPLING_ARGS,
            "--out" if command == "sample" else "--out-dir", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == (f"famespan: error: --input {tmp_path / second} is the same file "
                                       f"as --input {tmp_path / 'c.jsonl'}\n")
    assert not out.exists()


def test_extract_takes_one_input(tmp_path, capsys):
    raw = _raw_corpus(tmp_path)
    gaz, out = tmp_path / "gaz.txt", tmp_path / "tagged.jsonl"
    gaz.write_text("Ada\n", encoding="utf-8")
    assert main(["extract", "--input", str(raw), "--input", str(raw), "--gazetteer", str(gaz),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "famespan: error: extract reads one --input, got 2\n"
    assert not out.exists()


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


BAD_SETTINGS = [("--reps", "0"), ("--reps", "-3"), ("--level", "1.5"), ("--level", "0"), ("--level", "1"),
                ("--level", "nan"), ("--tail-quantile", "0"), ("--tail-quantile", "1.01"),
                ("--width", "0"), ("--top-fraction", "0"), ("--top-fraction", "-1/1000"),
                ("--top-k", "0"), ("--top-k", "-2"), ("--min-mentions", "0"), ("--min-mentions", "-5"),
                ("--min-duration", "-3"), ("--min-duration", "-0.5")]
SETTING_COMMANDS = {"--reps": ("stats", "report", "run"), "--level": ("stats", "report", "run"),
                    "--tail-quantile": ("stats", "report", "run"), "--width": ("report",),
                    "--top-fraction": ("periods", "run"), "--top-k": ("periods", "run"),
                    "--min-mentions": ("periods", "run"), "--min-duration": ("periods", "run")}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for flag, value in BAD_SETTINGS for command in SETTING_COMMANDS[flag]])
def test_out_of_range_settings_are_config_errors_before_any_read(tmp_path, capsys, command, flag, value):
    # the inputs do not exist: reading them would be a data error, exit 3
    out = tmp_path / "out"
    if command in ("stats", "report"):
        inputs = ["--periods", str(tmp_path / "periods_spike_all.csv"), "--seed", "1"]
    else:
        inputs = ["--input", str(tmp_path / "missing.jsonl"), "--window", "2005-01", "2005-07",
                  "--n-min", "5", "--seed", "1"]
    assert main([command, *inputs, f"{flag}={value}", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"famespan: error: {flag} must be ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["sample", "periods", "run"])
def test_n_min_below_1_is_a_config_error_before_any_read(tmp_path, capsys, command, value):
    # neither the corpus nor the word list exists: opening one would be a data error, exit 3
    out = tmp_path / "out"
    args = [command, "--input", str(tmp_path / "missing.jsonl"), "--schema", "raw", "--window", "2005-01",
            "2005-07", "--n-min", value, "--seed", "1"]
    if command == "sample":
        args += ["--out", str(out)]
    else:
        args += ["--gazetteer", str(tmp_path / "missing.txt"), "--out-dir", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"famespan: error: --n-min must be at least 1, got {value}\n"
    assert not out.exists()


def test_a_setting_at_its_range_end_is_accepted(tmp_path, corpus_path):
    assert run_to(corpus_path, tmp_path / "out", extra=["--reps", "1", "--tail-quantile", "1",
                                                         "--top-fraction", "1/1000000", "--top-k", "1",
                                                         "--min-mentions", "1", "--min-duration", "0"]) == 0


def _cli_on_fifo(tmp_path: Path, data: bytes, argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, under a timeout, with FIFO in
    ``argv`` replaced by a named pipe that a thread writes ``data`` to."""
    fifo = tmp_path / "corpus.pipe"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the CLI stopped reading
            pass

    writer = threading.Thread(target=write)
    writer.start()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    try:
        return subprocess.run([sys.executable, "-m", "famespan.cli",
                               *[str(fifo) if a == "FIFO" else a for a in argv]],
                              env=env, capture_output=True, text=True, timeout=120)
    finally:
        # a writer still waiting for a reader gets one and finishes
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(10)
        os.close(reader)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_tsv_from_a_pipe_is_a_data_error(tmp_path):
    # TSV ids carry the file's sha256: a pipe cannot be read a second time for it
    data = "".join(f"2005-02-{1 + i % 28:02d}\tAda Lovelace\t2\n" for i in range(60)).encode()
    out = tmp_path / "sampled.jsonl"
    proc = _cli_on_fifo(tmp_path, data, ["sample", "--input", "FIFO", "--window", "2005-01", "2005-07",
                                         "--n-min", "5", "--seed", "1", "--out", str(out)])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"famespan: error: {tmp_path / 'corpus.pipe'}: a TSV input must be a regular "
                           "file, since its ids carry the file's sha256\n")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_manifest_digest_of_a_corpus_read_from_a_pipe(tmp_path, corpus_path):
    data = corpus_path.read_bytes()
    assert len(data) > 1 << 16  # more than a pipe holds
    args = [*RUN_ARGS, "--filters", "all"]
    assert main(["run", "--input", str(corpus_path), *args, "--out-dir", str(tmp_path / "file")]) == 0
    proc = _cli_on_fifo(tmp_path, data, ["run", "--input", "FIFO", *args, "--out-dir", str(tmp_path / "pipe")])
    assert proc.returncode == 0, proc.stderr

    def artifacts(name: str) -> dict:
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    from_file, from_pipe = artifacts("file"), artifacts("pipe")
    file_manifest = json.loads(from_file.pop("manifest.json"))
    pipe_manifest = json.loads(from_pipe.pop("manifest.json"))
    assert from_pipe == from_file and len(from_file) > 5
    assert pipe_manifest["config"] == file_manifest["config"]
    digest = hashlib.sha256(data).hexdigest()
    assert file_manifest["inputs"] == {str(corpus_path): digest}
    assert pipe_manifest["inputs"] == {str(tmp_path / "corpus.pipe"): digest}


@pytest.mark.parametrize("ranges", [1, 2])
def test_a_tsv_input_is_hashed_once(tmp_path, monkeypatch, ranges):
    # the reader hashes a TSV file for its ids, and the manifest records
    # that digest rather than reading the file again
    from famespan import corpus_io, forks, report

    tsv = tmp_path / "corpus.tsv"
    tsv.write_text("".join(f"2005-{1 + i % 6:02d}-{1 + i % 28:02d}\tName {i % 9}\t{1 + i % 3}\n"
                           for i in range(400)), encoding="utf-8")
    original = report.sha256_file

    def refusing(path):
        if Path(path) == tsv:
            raise AssertionError(f"{path} hashed a second time")
        return original(path)

    monkeypatch.setattr(report, "sha256_file", refusing)
    monkeypatch.setattr(corpus_io, "_SHARD_MIN_BYTES", 1)
    monkeypatch.setattr(forks, "usable_cpus", lambda: ranges)
    out = tmp_path / "out"
    assert main(["run", "--input", str(tsv), "--window", "2005-01", "2005-07", "--n-min", "20", "--seed", "7",
                 "--reps", "20", "--filters", "all", "--min-mentions", "1", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(tsv): hashlib.sha256(tsv.read_bytes()).hexdigest()}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_manifest_digest_of_a_word_list_read_from_a_pipe(tmp_path):
    raw, gaz = _raw_corpus(tmp_path), tmp_path / "gaz.txt"
    gaz.write_text("Ada\nGrace\n", encoding="utf-8")
    assert _run_raw(raw, gaz, tmp_path / "file") == 0
    args = ["run", "--input", str(raw), "--schema", "raw", "--gazetteer", "FIFO", "--window", "2005-01",
            "2006-01", "--n-min", "8", "--seed", "3", "--reps", "50", "--out-dir", str(tmp_path / "pipe")]
    proc = _cli_on_fifo(tmp_path, gaz.read_bytes(), args)
    assert proc.returncode == 0, proc.stderr
    from_file = {p.name: p.read_bytes() for p in (tmp_path / "file").iterdir()}
    from_pipe = {p.name: p.read_bytes() for p in (tmp_path / "pipe").iterdir()}
    file_manifest = json.loads(from_file.pop("manifest.json"))
    pipe_manifest = json.loads(from_pipe.pop("manifest.json"))
    assert from_pipe == from_file and len(from_file) > 5
    digest = hashlib.sha256(gaz.read_bytes()).hexdigest()
    assert file_manifest["inputs"][str(gaz)] == digest
    assert pipe_manifest["inputs"][str(tmp_path / "corpus.pipe")] == digest


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


def test_zero_length_period_has_no_tail_fit(tmp_path):
    # twelve mentions on one day make a continuity period of length 0; its
    # cell keeps the quantile intervals and reports why alpha is n/a, in
    # run and in stats on the written periods CSV
    corpus = tmp_path / "day.jsonl"
    rows = [json.dumps({"id": f"d{i}", "date": "2005-02-03", "mentions": [["Solo Name", 1]]})
            for i in range(12)]
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out, stats_out = tmp_path / "out", tmp_path / "stats"
    assert main(["run", "--input", str(corpus), "--out-dir", str(out), "--schema", "pretagged",
                 "--window", "2005-01", "2005-07", "--n-min", "10", "--seed", "1",
                 "--reps", "50", "--methods", "continuity", "--min-duration", "0",
                 "--underfull-policy", "keep-all"]) == 0
    periods = out / "periods_continuity_all.csv"
    assert periods.read_text().splitlines()[1] == (
        "Solo Name,continuity,2005-02-03,2005-02-03,2005-02-03,0")
    assert main(["stats", "--periods", str(periods), "--seed", "1", "--reps", "50",
                 "--out-dir", str(stats_out)]) == 0
    reason = "DegenerateTail: a power-law fit needs every duration positive"
    for d in (out, stats_out):
        fits = json.loads((d / "fits_continuity_all.json").read_text())
        assert fits == {"2005-9": {"error": reason}}
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1] == "continuity,all,2005-9,0 (0 .. 0),0 (0 .. 0),0 (0 .. 0),n/a"


def test_malformed_periods_csv_exit_code(tmp_path, capsys):
    periods = tmp_path / "periods_spike_all.csv"
    periods.write_text("name,method,start,end,peak_date,duration_days\n"
                       "A,spike,2005-01-03,notadate,2005-01-03,7\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["report", "--periods", str(periods), "--seed", "1", "--reps", "50",
                 "--out-dir", str(out)])
    assert code == 3
    assert f"{periods}:2: " in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def _periods_csv(path: Path, durations) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [f"Name {i},spike,2005-01-03,2005-01-{3 + d:02d},2005-01-03,{d}" for i, d in enumerate(durations)]
    path.write_text("name,method,start,end,peak_date,duration_days\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["stats", "report"])
@pytest.mark.parametrize("same_path", [False, True], ids=["two-files", "one-file-twice"])
def test_two_periods_files_with_one_label_are_a_config_error(tmp_path, capsys, command, same_path):
    # two summary rows, or two writes of each statistics file, for one
    # (method, filter); refused before either file is read
    first = _periods_csv(tmp_path / "a" / "periods_spike_all.csv", range(1, 13))
    second = first if same_path else _periods_csv(tmp_path / "b" / "periods_spike_all.csv", range(3, 15))
    out = tmp_path / "out"
    assert main([command, "--periods", str(first), str(second), "--seed", "1", "--reps", "50",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (f"famespan: error: {first} and {second} are both periods of "
                                       "spike, all; give one file per method and filter\n")
    assert not out.exists()


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
    "periods": INPUT_FLAGS | PIPELINE_FLAGS | {"--out-dir"},
    "stats": {"--periods", "--seed", "--widths", "--out-dir"} | BOOTSTRAP_FLAGS,
    "report": {"--periods", "--seed", "--width", "--out-dir"} | BOOTSTRAP_FLAGS,
    "run": INPUT_FLAGS | PIPELINE_FLAGS | BOOTSTRAP_FLAGS | {"--widths", "--out-dir"},
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


def _daily_corpus(tmp_path, bad_lines: dict[int, bytes], schema: str = "pretagged"):
    """90 daily documents mentioning Ada Lovelace, line i replaced by bad_lines[i]."""
    rows = []
    for i in range(90):
        day = date.fromordinal(date(2005, 2, 1).toordinal() + i).isoformat()
        payload = ({"text": "Mrs. Ada Lovelace spoke."} if schema == "raw"
                   else {"mentions": [["Ada Lovelace", 2]]})
        rows.append(bad_lines.get(i, json.dumps({"id": f"d{i}", "date": day, **payload}).encode()))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"\n".join(rows) + b"\n")
    return corpus


BAD_UTF8 = b'{"id": "d\xff", "date": "2005-03-01", "mentions": [["Ada Lovelace", 2]]}'


@pytest.mark.parametrize("command", ["periods", "extract"])
def test_invalid_utf8_is_a_malformed_line(tmp_path, capsys, command):
    gaz = tmp_path / "gaz.txt"
    gaz.write_text("Ada\n", encoding="utf-8")
    schema = "raw" if command == "extract" else "pretagged"
    if command == "extract":
        args = ["extract", "--gazetteer", str(gaz), "--out", str(tmp_path / "tagged.jsonl")]
    else:
        args = ["periods", "--window", "2005-01", "2005-07", "--n-min", "5", "--seed", "1",
                "--filters", "all", "--out-dir", str(tmp_path / "out")]
    few = _daily_corpus(tmp_path, {3: BAD_UTF8, 40: b"\xc3(" + BAD_UTF8}, schema)
    assert main([*args, "--input", str(few)]) == 0
    if command == "extract":
        assert "(2 malformed lines skipped)" in capsys.readouterr().out
    many = _daily_corpus(tmp_path, {i: BAD_UTF8 for i in range(0, 90, 5)}, schema)
    assert main([*args, "--input", str(many)]) == 3
    err = capsys.readouterr().err
    assert "18 of 90 lines malformed" in err
    assert "corpus.jsonl:1: invalid UTF-8; corpus.jsonl:6: invalid UTF-8" in err


@pytest.mark.parametrize("where", ["id", "name"])
def test_lone_surrogate_escape_is_a_malformed_line(tmp_path, where):
    # eight documents on consecutive days would make a period if read
    def bad(i):
        day = date.fromordinal(date(2005, 2, 1).toordinal() + i).isoformat()
        doc_id, name = (f"d{i}\\ud800", "Ada Lovelace") if where == "id" else (f"x{i}", "Ada \\uDC00")
        return f'{{"id": "{doc_id}", "date": "{day}", "mentions": [["{name}", 2]]}}'.encode()

    pair = b'{"id": "y", "date": "2005-03-02", "mentions": [["\\ud83d\\ude00 Ada", 12]]}'
    corpus = _daily_corpus(tmp_path, {**{i: bad(i) for i in range(5, 13)}, 40: pair})
    out = tmp_path / "out"
    assert main(["periods", "--input", str(corpus), "--window", "2005-01", "2005-07", "--n-min", "5",
                 "--seed", "1", "--filters", "all", "--min-mentions", "1", "--out-dir", str(out)]) == 0
    rows = (out / "periods_spike_all.csv").read_text(encoding="utf-8").splitlines()
    names = {row.split(",")[0] for row in rows}
    assert names == {"name", "Ada Lovelace", "\U0001F600 Ada"}  # a valid pair stays accepted
