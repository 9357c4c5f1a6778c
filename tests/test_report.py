from datetime import date, datetime, timedelta

import numpy as np
import pytest

from famespan.errors import DataError
from famespan.peaks import METHOD_CONTINUITY, METHOD_SPIKE, FamePeriod
from famespan.report import (
    NA,
    SUMMARY_COLUMNS,
    compute_cohort_stats,
    fit_record,
    format_alpha,
    format_duration,
    format_interval,
    read_periods_csv,
    sha256_file,
    summary_row,
    write_cumulative_curve_csv,
    write_fits_json,
    write_manifest,
    write_periods_csv,
    write_quantile_series_csv,
    write_summary_csv,
    write_summary_text,
)
from famespan.stats import (
    WIDTH_5_YEARS,
    BootstrapInterval,
    Cohort,
    assign_cohorts,
    cumulative_curve,
)


def period(peak, duration, name="x", method=METHOD_CONTINUITY):
    if float(duration) == int(duration):
        start = peak - timedelta(days=2)
        end = start + timedelta(days=int(duration))
        return FamePeriod(name, method, start, end, peak, float(duration))
    start = datetime(peak.year, peak.month, peak.day) - timedelta(days=2)
    end = start + timedelta(days=float(duration))
    return FamePeriod(name, method, start, end, datetime(peak.year, peak.month, peak.day),
                      (end - start) / timedelta(days=1))


def test_duration_formatting():
    assert format_duration(7.0) == "7"
    assert format_duration(11.5) == "11.500"
    assert format_duration(0.125) == "0.125"


def test_interval_formatting_matches_report_shape():
    iv = BootstrapInterval(point=27.0, lo=25.0, hi=29.0)
    assert format_interval(iv) == "27 (25 .. 29)"
    alpha = BootstrapInterval(point=-2.45, lo=-2.55, hi=-2.21)
    assert format_interval(alpha, format_alpha) == "-2.45 (-2.55 .. -2.21)"


def test_periods_csv_round_trip(tmp_path):
    periods = [
        period(date(1950, 5, 3), 7, "A Name"),
        period(date(1950, 6, 1), 14, "B, quoted"),
        FamePeriod(
            "Sub Day",
            METHOD_CONTINUITY,
            datetime(1951, 1, 1, 6, 0),
            datetime(1951, 1, 3, 18, 0),
            datetime(1951, 1, 2, 6, 0),
            2.5,
        ),
    ]
    path = tmp_path / "periods.csv"
    write_periods_csv(periods, path)
    assert read_periods_csv(path) == periods


def test_periods_csv_duration_formats(tmp_path):
    path = tmp_path / "p.csv"
    write_periods_csv([period(date(1950, 5, 3), 7)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,method,start,end,peak_date,duration_days"
    assert lines[1].endswith(",7")


_PERIODS_HEADER = "name,method,start,end,peak_date,duration_days\n"


@pytest.mark.parametrize("text, where, reason", [
    ("name,start,end\nA,2005-01-01,2005-01-08\n", 1, "not a periods CSV"),
    ("", 1, "not a periods CSV"),
    (_PERIODS_HEADER + "A,spike,2005-01-03,2005-01-10,2005-01-03,7\nB,spike,2005-01-03\n", 3,
     "expected 6 fields, got 3"),
    (_PERIODS_HEADER + "A,spike,2005-01-03,notadate,2005-01-03,7\n", 2, "'notadate'"),
    (_PERIODS_HEADER + "A,spike,2005-01-10,2005-01-03,2005-01-05,-7\n", 2,
     "end 2005-01-03 is before start 2005-01-10"),
], ids=["header", "empty", "field-count", "timestamp", "end-before-start"])
def test_malformed_periods_csv_is_a_data_error(tmp_path, text, where, reason):
    path = tmp_path / "periods_spike_all.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as info:
        read_periods_csv(path)
    assert str(info.value).startswith(f"{path}:{where}: ")
    assert reason in str(info.value)


def test_duplicate_periods_row_is_a_data_error(tmp_path):
    # one period read twice would be a cohort of two
    row = "A,spike,2005-01-03,2005-01-10,2005-01-03,7\n"
    path = tmp_path / "periods_spike_all.csv"
    path.write_text(_PERIODS_HEADER + row + "B,spike,2005-01-03,2005-01-17,2005-01-10,14\n" + row,
                    encoding="utf-8")
    with pytest.raises(DataError) as info:
        read_periods_csv(path)
    assert str(info.value) == f"{path}:4: second row for ('A', spike); the first is at {path}:2"
    path.write_text(_PERIODS_HEADER + row + row.replace("spike", "continuity"), encoding="utf-8")
    assert [(p.name, p.method) for p in read_periods_csv(path)] == [("A", "spike"), ("A", "continuity")]


def test_zero_length_period_leaves_alpha_na_and_keeps_quantiles():
    cohort = Cohort(date(1945, 1, 1), WIDTH_5_YEARS, np.array([0.0, 7.0, 9.0]))
    cs = compute_cohort_stats(METHOD_CONTINUITY, "all", cohort, master_seed=2, reps=100,
                              level=0.99)
    assert cs.fit is None and cs.alpha is None
    assert cs.alpha_error.startswith("DegenerateTail: ")
    assert fit_record(cs) == {"error": cs.alpha_error}
    assert set(cs.quantiles) == {"p50", "p90", "p99"}
    assert all(0.0 <= iv.lo <= iv.point <= iv.hi <= 9.0 for iv in cs.quantiles.values())
    assert summary_row(cs)[3] == "7 (0 .. 9)" and summary_row(cs)[6] == NA


def test_quantile_series_csv(tmp_path):
    periods = [period(date(1952, 3, 1), d, name=f"n{i}") for i, d in enumerate([7, 7, 14, 21])]
    cohorts = assign_cohorts(periods, WIDTH_5_YEARS)
    path = tmp_path / "series.csv"
    write_quantile_series_csv(cohorts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bucket_start,width,n,p50,p90,p99"
    assert lines[1] == "1950-01-01,60,4,7,21,21"


def test_cumulative_curve_csv_reference_slope(tmp_path):
    rng = np.random.default_rng(0)
    durations = (7.0 * (1.0 - rng.random(400)) ** (-1 / 1.5)).tolist()
    periods = [period(date(1962, 2, 2), d, name=f"n{i}") for i, d in enumerate(durations)]
    cohort = assign_cohorts(periods, WIDTH_5_YEARS)[0]
    cs = compute_cohort_stats(METHOD_SPIKE, "all", cohort, master_seed=5, reps=50, level=0.99)
    path = tmp_path / "curve.csv"
    write_cumulative_curve_csv(cohort, cumulative_curve(cohort), path, cs.fit)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# cohort=1960-4 n=400 reference_slope=")
    slope = float(header.split("=")[-1])
    assert slope == pytest.approx(cs.fit.alpha + 1.0, abs=0.005)


def test_summary_row_and_na_alpha(tmp_path):
    durations = [7] * 10 + [9]
    periods = [period(date(1946, 1, 10), d, name=f"n{i}") for i, d in enumerate(durations)]
    cohort = assign_cohorts(periods, WIDTH_5_YEARS)[0]
    cs = compute_cohort_stats(METHOD_CONTINUITY, "all", cohort, master_seed=1, reps=100, level=0.99)
    row = summary_row(cs)
    assert row[:3] == [METHOD_CONTINUITY, "all", "1945-9"]
    assert row[3] == "7 (7 .. 7)"
    assert row[6] == NA  # 11 durations cannot carry a 10-value strict tail
    csv_path, txt_path = tmp_path / "s.csv", tmp_path / "s.txt"
    write_summary_csv([row], csv_path)
    write_summary_text([row], txt_path)
    assert csv_path.read_text().splitlines()[0] == ",".join(SUMMARY_COLUMNS)
    text = txt_path.read_text().splitlines()
    assert text[0].split()[0] == "method"
    assert "7 (7 .. 7)" in text[2]


def test_fits_json(tmp_path):
    rng = np.random.default_rng(3)
    durations = (7.0 * (1.0 - rng.random(300)) ** (-1 / 1.5)).tolist()
    periods = [period(date(1946, 1, 10), d, name=f"n{i}") for i, d in enumerate(durations)]
    cohort = assign_cohorts(periods, WIDTH_5_YEARS)[0]
    cs = compute_cohort_stats(METHOD_SPIKE, "all", cohort, master_seed=2, reps=60, level=0.99)
    path = tmp_path / "fits.json"
    write_fits_json({cs.cohort.label: cs}, path)
    import json

    payload = json.loads(path.read_text())
    rec = payload["1945-9"]
    assert set(rec) == {"alpha", "d_min", "n_tail", "lo", "hi", "reps", "seed"}
    assert rec["alpha"] == cs.fit.alpha
    assert rec["lo"] <= rec["alpha"] <= rec["hi"]

    # the recorded seed/reps alone reproduce the interval
    from famespan.stats import PowerLawAlphaStatistic, bootstrap

    redo = bootstrap(cohort.durations, PowerLawAlphaStatistic(), reps=rec["reps"],
                     level=0.99, seed=rec["seed"])
    assert (redo.lo, redo.hi) == (rec["lo"], rec["hi"])


def test_manifest_tracks_input_bytes(tmp_path):
    f = tmp_path / "input.jsonl"
    f.write_text("line one\n")
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    write_manifest({"seed": 1}, [f], m1)
    write_manifest({"seed": 1}, [f], m2)
    assert m1.read_bytes() == m2.read_bytes()
    f.write_text("line two\n")
    m3 = tmp_path / "m3.json"
    write_manifest({"seed": 1}, [f], m3)
    assert m1.read_bytes() != m3.read_bytes()
    assert sha256_file(f) in m3.read_text()


def _cohort_of(durations):
    periods = [period(date(1946, 1, 10), d, name=f"n{i}") for i, d in enumerate(durations)]
    return assign_cohorts(periods, WIDTH_5_YEARS)[0]


def test_unstable_alpha_keeps_quantile_intervals():
    # the point fit barely passes (exactly 10 tail values), most resamples fail
    cohort = _cohort_of([7.0] * 40 + list(range(8, 18)))
    cs = compute_cohort_stats(METHOD_CONTINUITY, "all", cohort, master_seed=2, reps=500,
                              level=0.99)
    assert cs.fit is not None and cs.alpha is None
    assert cs.alpha_error.startswith("UnstableStatistic: alpha failed on ")
    assert set(cs.quantiles) == {"p50", "p90", "p99"}
    assert all(iv.lo <= iv.point <= iv.hi for iv in cs.quantiles.values())
    assert summary_row(cs)[6] == NA


@pytest.mark.parametrize("durations, with_alpha", [
    ((7.0 * (1.0 - np.random.default_rng(3).random(300)) ** (-1 / 1.5)).tolist(), True),
    ([7] * 10 + [9], False),
])
def test_one_bootstrap_pass_per_cell(monkeypatch, durations, with_alpha):
    import famespan.report as report

    calls = []
    real = report.bootstrap_many

    def counting(values, statistics, **kwargs):
        calls.append([s.name for s in statistics])
        return real(values, statistics, **kwargs)

    monkeypatch.setattr(report, "bootstrap_many", counting)
    cs = compute_cohort_stats(METHOD_SPIKE, "all", _cohort_of(durations), master_seed=2,
                              reps=60, level=0.99)
    expected = ["p50", "p90", "p99"] + (["alpha"] if with_alpha else [])
    assert calls == [expected]
    assert (cs.alpha is not None) == with_alpha
