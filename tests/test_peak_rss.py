"""Peak memory of a pre-tagged run, per mention, in fresh interpreters.

A pre-tagged run holds its mentions in columns until the sampler's mask,
then merges them into timelines.  Its peak resident size may grow by less
than 10 bytes per added mention: 2 bytes of name code and 1 of count
(while the names and counts are small), plus what the merge holds beside
them, 3 bytes of time rank and slice and the timelines it returns.  The
runs are measured under perfbench/spawn.py, as the benchmark measures
them, since a child's ru_maxrss on Linux starts from the resident size of
the process that spawned it.

The runs are of periods, which goes through the same ingest and merge as
run, so that both peak in the merge.  run's peak comes at its end for
corpora of up to about 1M mentions, when the manifest's SHA-256 maps
OpenSSL (about 3.5 MB) beside the statistics; above them the merge's
16 slices grow with the corpus.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_DOC, N_NAMES = 5, 2_000

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB of the largest process")


def _write_corpus(path: Path, n_docs: int) -> None:
    """``n_docs`` documents of 5 mentions, dated over 2006-2009 in order;
    each name is mentioned on a stretch of about three weeks."""
    rng = np.random.default_rng(11)
    day = np.sort(rng.integers(0, 1461, n_docs))
    code = (day[:, None] * N_NAMES // 1461 + rng.integers(0, 30, (n_docs, PER_DOC))) % N_NAMES
    dates = np.datetime_as_string(np.datetime64("2006-01-01") + day, unit="D")
    with open(path, "w", encoding="utf-8") as fh:
        for i, (date, names) in enumerate(zip(dates.tolist(), code.tolist())):
            mentions = ", ".join(f'["n{c:04d}", {1 + (i + k) % 3}]' for k, c in enumerate(names))
            fh.write(f'{{"id": "d{i}", "date": "{date}", "mentions": [{mentions}]}}\n')


def _peak_rss_bytes(corpus: Path, out: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-S", str(ROOT / "perfbench" / "spawn.py"), "300", sys.executable, "-m",
           "famespan.cli", "periods", "--input", str(corpus), "--window", "2006-01", "2010-01",
           "--n-min", "1000000", "--underfull-policy", "keep-all", "--seed", "1", "--out-dir", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=320)
    assert proc.returncode == 0, proc.stderr
    cost = json.loads(proc.stdout.splitlines()[-1])
    assert cost["code"] == 0, proc.stderr
    return cost["rss_mb"] * 2**20


def test_peak_rss_grows_under_10_bytes_per_mention(tmp_path):
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    _write_corpus(small, 40_000)
    _write_corpus(large, 160_000)
    grown = _peak_rss_bytes(large, tmp_path / "large") - _peak_rss_bytes(small, tmp_path / "small")
    per_mention = grown / ((160_000 - 40_000) * PER_DOC)
    assert per_mention < 10, f"{per_mention:.1f} bytes per added mention"
