"""What a launch imports and starts, checked in fresh interpreters.

extract must run without numpy; the other subcommands keep OpenBLAS from
starting a thread pool unless the user asked for one; and the stage names
that perfbench/layertrace.py wraps in famespan.cli must still resolve
there and still be what the stages call.
"""

import json
import os
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
STALE_WRAPS = {"window_filter", "month_volumes", "sample_uniform"}


def _env(env_update: dict | None) -> dict:
    """The environment of a fresh interpreter that finds this checkout's
    famespan, with no OPENBLAS_NUM_THREADS unless ``env_update`` sets it."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_update or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _python(code: str, *args: str, env_update: dict | None = None) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_env(env_update), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_extract_imports_no_numpy(tmp_path):
    raw, gaz, out = tmp_path / "raw.jsonl", tmp_path / "gaz.txt", tmp_path / "tagged.jsonl"
    raw.write_text(json.dumps({"id": "a", "date": "1950-01-02", "text": "Mrs. Ada Lovelace spoke."})
                   + "\n", encoding="utf-8")
    gaz.write_text("Ada\n", encoding="utf-8")
    loaded = _python(
        "import sys\n"
        "from famespan.cli import build_parser, main\n"
        "build_parser()\n"
        "assert main(['extract', '--input', sys.argv[1], '--gazetteer', sys.argv[2],"
        " '--out', sys.argv[3]]) == 0\n"
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in __import__('os').environ)\n",
        str(raw), str(gaz), str(out))
    assert loaded.splitlines()[-1] == "False False"
    assert json.loads(out.read_text(encoding="utf-8"))["mentions"] == [["Ada Lovelace", 1]]


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


def _report_threads(tmp_path: Path, env_update: dict | None = None) -> tuple[str, int]:
    """OPENBLAS_NUM_THREADS and the process's thread count after a report
    launch, which loads numpy."""
    periods = tmp_path / "periods_spike_all.csv"
    rows = [f"N{i},spike,2005-01-03,2005-01-{10 + i},2005-01-03,{7 + i}" for i in range(12)]
    periods.write_text("name,method,start,end,peak_date,duration_days\n" + "\n".join(rows) + "\n",
                       encoding="utf-8")
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


def test_traced_periods_times_its_stages(tmp_path):
    # the stages must call the tracer's wrappers, not names bound after them
    corpus = tmp_path / "corpus.jsonl"
    day = date(2005, 1, 1)
    with open(corpus, "w", encoding="utf-8") as fh:
        for i in range(90):
            fh.write(json.dumps({"id": f"d{i}", "date": (day + timedelta(days=i)).isoformat(),
                                 "mentions": [["Ada Lovelace", 1], ["Grace Hopper", 2]]}) + "\n")
    spans = tmp_path / "spans.npz"
    subprocess.run(
        [sys.executable, str(BENCH / "layertrace.py"), str(spans), "periods", "--input", str(corpus),
         "--window", "2005-01", "2005-04", "--n-min", "10", "--seed", "3", "--filters", "all",
         "--out-dir", str(tmp_path / "out")],
        env=_env(None), cwd=ROOT, check=True, capture_output=True, timeout=120)
    tracer, _, missing = layertrace.Tracer.load(spans)
    counts = tracer.span_counts()
    assert missing == {"sampler.volume"}  # month_volumes only, which cli no longer calls
    for layer in ("timeline.build", "timeline.filter", "sampler.sample", "peaks.spike",
                  "peaks.continuity", "report.write"):
        assert counts.get(layer, 0) > 0, layer
