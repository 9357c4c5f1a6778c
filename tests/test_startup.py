"""What a launch imports and starts, checked in fresh interpreters.

extract must run without numpy; the other subcommands keep OpenBLAS from
starting a thread pool unless the user asked for one; only a launch that
takes a SHA-256 maps OpenSSL; and the stage names that
perfbench/layertrace.py wraps in famespan.cli must still resolve there and
still be what the stages call.
"""

import json
import os
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402

# WRAPS entries that name functions cli stopped calling before these tests
STALE_WRAPS = {"window_filter", "month_volumes", "sample_uniform", "mentions_of"}


def _env(env_update: dict | None) -> dict:
    """The environment of a fresh interpreter that finds this checkout's
    famespan, with no OPENBLAS_NUM_THREADS unless ``env_update`` sets it."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_update or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _python(code: str, *args: str, env_update: dict | None = None, python: str = sys.executable) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    proc = subprocess.run([python, "-c", code, *args], env=_env(env_update), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# a byte-order mark, CRLF, CR and LF line ends, a byte that is not UTF-8, and
# a paired and a lone surrogate escape
_RAW_CORPUS = (b"\xef\xbb\xbf" + b'{"id": "a", "date": "1950-01-02", "text": "Mrs. Ada Lovelace spoke."}\r\n'
               b'{"id": "b", "date": "1950-01-03", "text": "Ada Lovelace \\ud83d\\ude00 smiled."}\r'
               b'{"id": "c\xff", "date": "1950-01-04", "text": "Ada Lovelace"}\n'
               b'{"id": "d", "date": "1950-01-05", "text": "Ada Lovelace \\ud800"}\r\n'
               + b"".join(b'{"id": "e%d", "date": "1950-02-01", "text": "Lady Ada Lovelace."}\n' % i
                          for i in range(20)))


def _extract(tmp_path: Path, python: str = sys.executable) -> tuple[str, bytes]:
    """extract over _RAW_CORPUS in a fresh ``python``: its stdout, with
    whether numpy and OPENBLAS_NUM_THREADS were loaded and set, and the
    bytes it wrote."""
    raw, gaz, out = tmp_path / "raw.jsonl", tmp_path / "gaz.txt", tmp_path / "tagged.jsonl"
    raw.write_bytes(_RAW_CORPUS)
    gaz.write_text("Ada\n", encoding="utf-8")
    loaded = _python(
        "import sys\n"
        "from famespan.cli import build_parser, main\n"
        "build_parser()\n"
        "assert main(['extract', '--input', sys.argv[1], '--gazetteer', sys.argv[2],"
        " '--out', sys.argv[3]]) == 0\n"
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in __import__('os').environ)\n",
        str(raw), str(gaz), str(out), python=python)
    return loaded, out.read_bytes()


def test_extract_imports_no_numpy(tmp_path):
    loaded, tagged = _extract(tmp_path)
    assert loaded.splitlines()[-1] == "False False"
    assert "(2 malformed lines skipped)" in loaded
    assert json.loads(tagged.splitlines()[0])["mentions"] == [["Ada Lovelace", 1]]


# every python3.N on PATH from 3.10 on but the running one's name
OTHER_PYTHONS = [name for name in map("python3.{}".format, range(10, 20))
                 if name != f"python3.{sys.version_info.minor}" and shutil.which(name)]


@pytest.mark.parametrize("python", OTHER_PYTHONS or [None])
def test_extract_bytes_match_other_pythons(tmp_path, python):
    # extract needs no numpy, so a bare interpreter runs it
    if python is None:
        pytest.skip("no other python3.N on PATH")
    if subprocess.run([python, "-c", ""], capture_output=True, timeout=60).returncode:
        pytest.skip(f"{python} does not start")
    assert _extract(tmp_path, shutil.which(python)) == _extract(tmp_path)


def test_cli_import_loads_no_shard_machinery():
    # the fork helper, pickle and signal serve only inputs read in shards and
    # bootstrap cells shared out over CPUs
    loaded = _python("import sys\nimport famespan.cli\n"
                     "print(sorted({'numpy', 'pickle', 'signal', 'famespan.forks'} & set(sys.modules)))\n")
    assert loaded.splitlines()[-1] == "[]"


@pytest.mark.parametrize("call", [
    "cli.ingest([path], 'pretagged', cfg.window, SamplerConfig(1, 3), ListSink(lambda block: ()))",
    "cli.build_pipeline_timelines(cfg, [path])",
], ids=["ingest", "build_pipeline_timelines"])
def test_stage_entry_points_load_the_stages(tmp_path, call):
    # called directly, with no main() before them to load the stages
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "a", "date": "2005-01-03", "mentions": [["Ada", 1]]}) + "\n",
                      encoding="utf-8")
    out = _python(
        "import sys\n"
        "from datetime import date\n"
        "from famespan import cli\n"
        "from famespan.corpus_io import AnalysisWindow, ListSink\n"
        "from famespan.sampler import SamplerConfig\n"
        "path = sys.argv[1]\n"
        "cfg = cli.RunConfig(AnalysisWindow(date(2005, 1, 1), date(2005, 2, 1)), n_min=1, seed=3)\n"
        f"print(len({call}))\n",
        str(corpus))
    assert out.splitlines()[-1] == "1"


def _periods_csv(periods: Path) -> Path:
    """12 spike periods of 7 to 18 days."""
    rows = [f"N{i},spike,2005-01-03,2005-01-{10 + i},2005-01-03,{7 + i}" for i in range(12)]
    periods.write_text("name,method,start,end,peak_date,duration_days\n" + "\n".join(rows) + "\n",
                       encoding="utf-8")
    return periods


def _report_threads(tmp_path: Path, env_update: dict | None = None) -> tuple[str, int]:
    """OPENBLAS_NUM_THREADS and the process's thread count after a report
    launch, which loads numpy."""
    periods = _periods_csv(tmp_path / "periods_spike_all.csv")
    out = _python(
        "import os, sys\n"
        "from famespan.cli import main\n"
        "assert main(['report', '--periods', sys.argv[1], '--seed', '1', '--reps', '20',"
        " '--out-dir', sys.argv[2]]) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "tasks = '/proc/self/task'\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
        " len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)\n",
        str(periods), str(tmp_path / "out"), env_update=env_update)
    value, threads = out.splitlines()[-1].split()
    return value, int(threads)


def test_numpy_subcommands_start_no_blas_thread_pool(tmp_path):
    assert _report_threads(tmp_path) == ("1", 1)


def test_preset_openblas_threads_is_kept(tmp_path):
    assert _report_threads(tmp_path, {"OPENBLAS_NUM_THREADS": "2"})[0] == "2"


def test_traced_names_still_resolve_in_cli():
    names = [attr for module, attr, _, _ in layertrace.WRAPS if module == "famespan.cli"]
    resolved = json.loads(_python(
        "import json, sys\n"
        "import famespan.cli as cli\n"
        "print(json.dumps({n: getattr(cli, n, None) is not None for n in sys.argv[1:]}))\n",
        *names))
    assert {n for n, ok in resolved.items() if not ok} == STALE_WRAPS & set(names)


def _daily_corpus(corpus: Path) -> Path:
    """90 pre-tagged JSON documents, one a day from 2005-01-01."""
    day = date(2005, 1, 1)
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(90):
            fh.write(json.dumps({"id": f"d{i}", "date": (day + timedelta(days=i)).isoformat(),
                                 "mentions": [["Ada Lovelace", 1], ["Grace Hopper", 2]]}) + "\n")
    return corpus


def test_traced_periods_times_its_stages(tmp_path):
    # the stages must call the tracer's wrappers, not names bound after them
    corpus = _daily_corpus(tmp_path / "corpus.jsonl")
    spans = tmp_path / "spans.npz"
    subprocess.run(
        [sys.executable, str(BENCH / "layertrace.py"), str(spans), "periods", "--input", str(corpus),
         "--window", "2005-01", "2005-04", "--n-min", "10", "--seed", "3", "--filters", "all",
         "--out-dir", str(tmp_path / "out")],
        env=_env(None), cwd=ROOT, check=True, capture_output=True, timeout=120)
    tracer, _, missing = layertrace.Tracer.load(spans)
    counts = tracer.span_counts()
    # month_volumes and mentions_of, the only names of these layers, are gone from cli
    assert missing == {"sampler.volume", "name_extract.extract"}
    for layer in ("timeline.build", "timeline.filter", "sampler.sample", "peaks.spike",
                  "peaks.continuity", "report.write"):
        assert counts.get(layer, 0) > 0, layer


def test_loading_the_stages_maps_no_openssl():
    # hashlib loads _hashlib, which maps OpenSSL's libcrypto; the keyed
    # blake2b of the sampler and the stage seeds is hashlib's own
    loaded = _python("import sys\n"
                     "import famespan.cli as cli\n"
                     "cli._load_stages()\n"
                     "print('_hashlib' in sys.modules)\n"
                     "import hashlib\n"
                     "from famespan import sampler, stats\n"
                     "print(sampler.blake2b is hashlib.blake2b, stats.blake2b is hashlib.blake2b)\n")
    assert loaded.splitlines()[-2:] == ["False", "True True"]


@pytest.mark.parametrize("command", ["extract", "sample", "periods", "stats", "report", "run"])
def test_only_a_sha256_maps_openssl(tmp_path, command):
    # a pre-tagged JSON corpus and word lists read without digests take no
    # SHA-256; a manifest does, for every input
    raw, gaz = tmp_path / "raw.jsonl", tmp_path / "gaz.txt"
    raw.write_bytes(_RAW_CORPUS)
    gaz.write_text("Ada\n", encoding="utf-8")
    corpus = _daily_corpus(tmp_path / "corpus.jsonl")
    periods = _periods_csv(tmp_path / "periods_spike_all.csv")
    sampling = ["--window", "2005-01", "2005-04", "--n-min", "10", "--seed", "3"]
    out = str(tmp_path / "out")
    argv = {
        "extract": ["--input", str(raw), "--gazetteer", str(gaz), "--out", str(tmp_path / "tagged.jsonl")],
        "sample": ["--input", str(corpus), *sampling, "--out", str(tmp_path / "sampled.jsonl")],
        "periods": ["--input", str(corpus), *sampling, "--filters", "all", "--out-dir", out],
        "stats": ["--periods", str(periods), "--seed", "1", "--reps", "20", "--out-dir", out],
        "report": ["--periods", str(periods), "--seed", "1", "--reps", "20", "--out-dir", out],
        "run": ["--input", str(corpus), *sampling, "--filters", "all", "--reps", "20", "--out-dir", out],
    }[command]
    loaded = _python("import json, sys\n"
                     "from famespan.cli import main\n"
                     "assert main(json.loads(sys.argv[1])) == 0\n"
                     "print('_hashlib' in sys.modules)\n",
                     json.dumps([command, *argv]))
    assert loaded.splitlines()[-1] == str(command in ("report", "run"))
