"""Self-test of the output checks: each workload's real outputs pass, and
each check rejects a corrupted copy of the file it reads.

    python3 -m pytest perfbench/test_checks.py -q

Runs every workload once (about half a minute in all).
"""

from __future__ import annotations

import csv
import json
import shutil
from datetime import date
from pathlib import Path

import pytest

import checks as ck
import run

SEED = 4242


WORK = run.OUT / "selftest"


@pytest.fixture(scope="module")
def outputs():
    """(workload, inputs, output dir, truth) for one good pass of each."""
    made = {}
    for name, wl in run.WORKLOADS.items():
        inp, truth = run.ensure_inputs(wl, SEED)
        out = run.fresh(WORK / name)
        for argv in wl.commands(inp, out, SEED):
            code = run.measured(["-m", "famespan.cli", *argv], out / "famespan.log")[0]
            assert code == 0, (out / "famespan.log").read_text()
        made[name] = (wl, inp, out, truth)
    return made


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _edit_csv(path: Path, edit) -> None:
    header, rows = _rows(path)
    edit(header, rows)
    _write_rows(path, header, rows)


def _set(header, rows, row: int, column: str, value) -> None:
    rows[row][header.index(column)] = str(value)


def _summary_cell(column: str, edit):
    def apply(header, rows):
        i = header.index(column)
        point, lo, hi = ck.parse_interval(rows[0][i], column)
        point, lo, hi = edit(point, lo, hi)
        fmt = lambda x: f"{x:.2f}" if column.startswith("alpha") else f"{x:g}"  # noqa: E731
        rows[0][i] = f"{fmt(point)} ({fmt(lo)} .. {fmt(hi)})"
    return apply


def _first_cohort_max(out: Path, periods: str) -> float:
    cohorts = ck.cohorts_of(ck.read_periods(out / periods))
    return float(cohorts[min(cohorts)].max())


def _inner_row(h, rows) -> int:
    """The longest period starting in 2007 or 2008, well inside the window."""
    inner = [k for k, r in enumerate(rows) if r[h.index("start")][:4] in ("2007", "2008")]
    return max(inner, key=lambda k: float(rows[k][h.index("duration_days")]))


def shift_month_count(path):
    _edit_csv(path, lambda h, r: _set(h, r, 0, "n_t", int(r[0][h.index("n_t")]) + 1))


def kept_far_from_mean(path):
    def edit(h, r):
        i = next(k for k, row in enumerate(r) if int(row[h.index("n_t")]) > int(row[h.index("kept")]))
        _set(h, r, i, "kept", int(r[i][h.index("kept")]) - 120)
    _edit_csv(path, edit)


def cut_continuity_end(path):
    """The longest period loses 10 days at its end: still inside the
    segment, but it now misses more than the last week."""
    def edit(h, rows):
        i = _inner_row(h, rows)
        end = date.fromordinal(date.fromisoformat(rows[i][h.index("end")]).toordinal() - 10)
        _set(h, rows, i, "end", end.isoformat())
        _set(h, rows, i, "duration_days", f"{float(rows[i][h.index('duration_days')]) - 10:g}")
    _edit_csv(path, edit)


def drop_inner_row(path):
    _edit_csv(path, lambda h, r: r.pop(_inner_row(h, r)))


def move_spike_off_segment(path):
    """Shift a spike period a year later, off its segment."""
    def edit(h, rows):
        i = _inner_row(h, rows)
        for col in ("start", "end", "peak_date"):
            d = date.fromisoformat(rows[i][h.index(col)])
            _set(h, rows, i, col, date.fromordinal(d.toordinal() + 364).isoformat())
    _edit_csv(path, edit)


def series_n_plus_one(path):
    _edit_csv(path, lambda h, r: _set(h, r, 0, "n", int(r[0][h.index("n")]) + 1))


def series_hi_to_max(periods: str):
    def corrupt(path):
        top = _first_cohort_max(path.parent, periods)
        _edit_csv(path, lambda h, r: _set(h, r, 0, "p50_hi", f"{top:g}"))
    return corrupt


def fits_alpha_nudge(path):
    fits = json.loads(path.read_text())
    label = next(k for k, v in fits.items() if "alpha" in v)
    fits[label]["alpha"] += 1e-6
    path.write_text(json.dumps(fits))


def curve_y_plus_one(path_dir):
    path = sorted(path_dir.parent.glob(path_dir.name))[0]
    lines = path.read_text().splitlines()
    x, y = lines[2].split(",")
    lines[2] = f"{x},{int(y) + 1}"
    path.write_text("\n".join(lines) + "\n")


def summary_p50_point_plus(path):
    _edit_csv(path, _summary_cell("p50 (lo..hi)", lambda p, lo, hi: (p + 1, lo, hi + 1)))


def summary_p50_hi_to_max(periods: str):
    def corrupt(path):
        top = _first_cohort_max(path.parent, periods)
        _edit_csv(path, _summary_cell("p50 (lo..hi)", lambda p, lo, hi: (p, lo, top)))
    return corrupt


def summary_alpha_shift(path):
    _edit_csv(path, _summary_cell("alpha (lo..hi)", lambda p, lo, hi: (p + 0.1, lo, hi + 0.1)))


def extracted_count_plus(path):
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        rec = json.loads(line)
        if rec["mentions"]:
            rec["mentions"][0][1] += 1
            lines[k] = json.dumps(rec)
            break
    path.write_text("\n".join(lines) + "\n")


def sampled_drop_line(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")


# (workload, output file, corruption, words of the expected failure)
CORRUPTIONS = [
    ("pretagged_1m", "sampling_report.csv", shift_month_count, "month counts"),
    ("pretagged_1m", "sampling_report.csv", kept_far_from_mean, "binomial mean"),
    ("pretagged_1m", "periods_continuity_all.csv", cut_continuity_end, "vs segment"),
    ("pretagged_1m", "periods_spike_all.csv", move_spike_off_segment, "misses segment"),
    ("pretagged_1m", "periods_continuity_all.csv", drop_inner_row, "planted names missing"),
    ("pretagged_1m", "summary.csv", summary_p50_point_plus, "nearest rank"),
    ("pretagged_1m", "fits_spike_all.json", fits_alpha_nudge, "alpha"),
    ("century_bootstrap", "series_continuity_all_5y.csv", series_n_plus_one, " n "),
    ("century_bootstrap", "series_continuity_all_5y.csv",
     series_hi_to_max("periods_continuity_all.csv"), "implausible"),
    ("century_bootstrap", "summary.csv", summary_p50_hi_to_max("periods_continuity_all.csv"),
     "implausible"),
    ("century_bootstrap", "summary.csv", summary_alpha_shift, "closed form"),
    ("century_bootstrap", "curve_continuity_all_*.csv", curve_y_plus_one, "row"),
    ("raw_staged", "tagged.jsonl", extracted_count_plus, "planted"),
    ("raw_staged", "sampled.jsonl", sampled_drop_line, "kept documents"),
    ("raw_staged", "volumes.csv", shift_month_count, "month counts"),
    ("raw_staged", "stages/fits_spike_all.json", fits_alpha_nudge, "alpha"),
    ("raw_staged", "stages/summary.csv", summary_p50_point_plus, "nearest rank"),
]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_real_outputs_pass(outputs, name):
    wl, inp, out, truth = outputs[name]
    wl.check(inp, out, truth)


@pytest.mark.parametrize("name,rel,corrupt,words", CORRUPTIONS,
                         ids=[f"{c[0]}:{c[1]}:{i}" for i, c in enumerate(CORRUPTIONS)])
def test_check_rejects_corruption(outputs, name, rel, corrupt, words):
    wl, inp, out, truth = outputs[name]
    copy = run.fresh(WORK / "corrupted") / "out"
    shutil.copytree(out, copy)
    corrupt(copy / rel)
    with pytest.raises(ck.CheckFailed, match=words):
        wl.check(inp, copy, truth)


def test_sampling_check_accepts_rare_correct_counts(tmp_path):
    """A correct sampler's 4-sigma draw (seed 314 of pretagged_1m) passes;
    a count 9 sigma off fails."""
    path = tmp_path / "sampling_report.csv"
    path.write_text("month,n_t,kept\n2009-07,4200,3944\n")
    ck.check_sampling_report(path, {"2009-07": 4200}, 4000)
    path.write_text("month,n_t,kept\n2009-07,4200,3880\n")
    with pytest.raises(ck.CheckFailed, match="binomial mean"):
        ck.check_sampling_report(path, {"2009-07": 4200}, 4000)
