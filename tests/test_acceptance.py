"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`
to see them).  Statistical criteria use fixed seeds: they are exact,
reproducible checks of a deterministic computation, sized so that the
underlying statistical claim holds with large margin.
"""

import functools
import time
from datetime import date, timedelta
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

from famespan.cli import main
from famespan.corpus_io import AnalysisWindow, write_documents
from famespan.dates import month_index
from famespan.name_extract import Mention
from famespan.peaks import (
    METHOD_SPIKE,
    FamePeriod,
    WeekGrid,
    continuity_period,
    period_filter,
    spike_period,
)
from famespan.sampler import SamplerConfig, keep_scorer, sample_columns
from famespan.stats import (
    QuantileStatistic,
    bootstrap,
    derive_seed,
    fit_power_law,
    quantile,
)
from famespan.synth import (
    Document,
    NameProfile,
    SynthSpec,
    VolumeSchedule,
    document_to_json,
    generate_corpus,
    oracle_continuity,
    oracle_spike,
)
from famespan.timeline import (
    Timeline,
    YearlyCount,
    basic_name_filter,
    build_timelines,
    top_frac_by_year,
    top_k_by_year,
)

from fixtures import fixture_timeline

MONDAY = date(2000, 1, 3)
GRID = WeekGrid(MONDAY)


def criterion(num, slug, budget_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - t0
                if budget_s is not None:
                    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over {budget_s}s budget"
            except BaseException:
                print(f"ACCEPTANCE {num:2d} {slug}: FAIL")
                raise
            print(f"ACCEPTANCE {num:2d} {slug}: PASS ({elapsed:.1f}s)")

        return wrapper

    return deco


def tl_on_days(days, counts=None, name="x"):
    counts = counts or [1] * len(days)
    return Timeline.from_pairs(name, [(MONDAY + timedelta(days=d), c) for d, c in zip(days, counts)])


# -- 1 ----------------------------------------------------------------------


@criterion(1, "oracle-equivalence", budget_s=10.0)
def test_oracle_equivalence_1000_random_timelines():
    rng = np.random.default_rng(20260808)
    base_us = np.datetime64("1950-01-02", "us").astype(np.int64)
    day_us = 86_400_000_000
    for case in range(1000):
        n = int(rng.integers(1, 201))
        span_days = int(rng.integers(1, 1096))
        mode = case % 3  # day-only, sub-day, mixed
        start = base_us + int(rng.integers(0, 40 * 365)) * day_us
        if mode == 0:
            offs = rng.integers(0, span_days + 1, size=n) * day_us
        elif mode == 1:
            offs = rng.integers(0, (span_days + 1) * day_us, size=n)
        else:
            half = n // 2 + 1
            offs = np.concatenate(
                [
                    rng.integers(0, span_days + 1, size=half) * day_us,
                    rng.integers(0, (span_days + 1) * day_us, size=n - half),
                ]
            )
        pairs = [(int(start + o), int(rng.integers(1, 6))) for o in offs]
        t = Timeline.from_pairs(f"case{case}", pairs)
        assert spike_period(t, GRID) == oracle_spike(t, GRID), f"spike mismatch, case {case}"
        assert continuity_period(t) == oracle_continuity(t), f"continuity mismatch, case {case}"


# -- 2 ----------------------------------------------------------------------


@criterion(2, "hand-checked-fixtures")
def test_hand_examples_and_disagreement_fixtures():
    # spike: declining counts stay within a tenth of the max
    p = spike_period(tl_on_days([0, 7, 14], counts=[10, 2, 1]), GRID)
    assert (p.start, p.end, p.peak_date, p.duration_days) == (
        MONDAY, MONDAY + timedelta(days=21), MONDAY, 21.0)
    # spike: single mention spans its one week
    p = spike_period(tl_on_days([3]), GRID)
    assert (p.start, p.duration_days) == (MONDAY, 7.0)
    # spike: tie on the max goes to the earliest week
    p = spike_period(tl_on_days([0, 7, 14], counts=[3, 5, 5]), GRID)
    assert (p.peak_date, p.duration_days) == (MONDAY + timedelta(days=7), 21.0)

    # continuity: gaps 5, 6, 19 keep the first three events
    p = continuity_period(tl_on_days([0, 5, 11, 30]))
    assert (p.start, p.end, p.duration_days, p.peak_date) == (
        MONDAY, MONDAY + timedelta(days=11), 11.0, MONDAY + timedelta(days=5))
    # continuity: Monday -> Wednesday is a 2-day duration
    p = continuity_period(Timeline.from_pairs("x", [(date(2000, 1, 3), 1), (date(2000, 1, 5), 1)]))
    assert p.duration_days == 2.0
    # continuity: a gap of 8 days leaves two singleton runs; earliest wins
    p = continuity_period(tl_on_days([0, 8]))
    assert (p.start, p.duration_days) == (MONDAY, 0.0)

    monroe = fixture_timeline("monroe-like")
    grid = WeekGrid.for_window(AnalysisWindow(date(1950, 1, 1), date(1965, 1, 1)))
    ms, mc = spike_period(monroe, grid), continuity_period(monroe)
    assert mc.duration_days > 5 * ms.duration_days

    astor = fixture_timeline("astor-like")
    grid = WeekGrid.for_window(AnalysisWindow(date(1890, 1, 1), date(1915, 1, 1)))
    as_, ac = spike_period(astor, grid), continuity_period(astor)
    assert as_.end < ac.start or ac.end < as_.start


# -- 3 ----------------------------------------------------------------------


@criterion(3, "mle-recovery", budget_s=30.0)
def test_mle_recovers_known_exponents():
    for alpha_true in (2.0, 2.5, 3.0):
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng((515151, int(alpha_true * 10), trial))
            u = rng.random(10000)
            durations = 7.0 * (1.0 - u) ** (-1.0 / (alpha_true - 1.0))
            fit = fit_power_law(durations)
            if abs(fit.alpha - (-alpha_true)) <= 0.1:
                hits += 1
        assert hits >= 95, f"alpha={alpha_true}: only {hits}/100 within 0.1"


# -- 4 ----------------------------------------------------------------------


@criterion(4, "scale-invariance")
def test_tripling_durations_leaves_alpha_fixed():
    rng = np.random.default_rng(606060)
    continuous = 7.0 * (1.0 - rng.random(2000)) ** (-1.0 / 1.5)
    weekly = 7.0 * np.ceil(continuous / 7.0)  # spike-like multiples of 7
    for durations in (continuous, weekly):
        a = fit_power_law(durations).alpha
        a3 = fit_power_law(durations * 3.0).alpha
        assert abs(a - a3) < 1e-9


# -- 5 ----------------------------------------------------------------------

V_WINDOW = AnalysisWindow(date(2005, 1, 1), date(2005, 11, 1))
V_MONTHS = [(2005, m) for m in range(1, 11)]
V_NMIN = 1000


def _volume_profiles():
    profiles = []
    dense_span = (date(2005, 9, 20) - date(2005, 2, 1)).days
    for i in range(90):
        s = date(2005, 2, 1) + timedelta(days=i * dense_span // 90)
        profiles.append(NameProfile(f"dense{i:02d}", ((s, s + timedelta(days=10), 0.3),)))
    for i in range(60):
        s = date(2005, 3, 1) + timedelta(days=i * 120 // 60)
        profiles.append(NameProfile(f"sparse{i:02d}", ((s, s + timedelta(days=120), 0.004),)))
    return tuple(profiles)


def _sample(docs, cfg):
    """The documents the program's sampler (sample_columns) keeps, in input order."""
    months = [month_index(d.timestamp.year, d.timestamp.month) for d in docs]
    scores = list(map(keep_scorer(cfg.seed), (d.id for d in docs)))
    _, keep, _ = sample_columns(months, scores, cfg)
    return list(compress(docs, keep))


def _volume_durations(docs, trial, sample):
    if sample:
        cfg = SamplerConfig(V_NMIN, derive_seed(909090, "sampler", trial), "drop-month")
        docs = _sample(docs, cfg)
    timelines = build_timelines(Mention(name, d.timestamp, count) for d in docs for name, count in d.mentions)
    kept = basic_name_filter(timelines, 10)
    periods = [continuity_period(t) for t in kept.values()]
    periods = period_filter(periods, V_WINDOW, 2.0)
    return np.array([p.duration_days for p in periods])


@criterion(5, "volume-invariance", budget_s=300.0)
def test_sampling_removes_volume_dependence():
    profiles = _volume_profiles()
    flat_volume = VolumeSchedule.from_monthly_totals({m: V_NMIN for m in V_MONTHS})
    ramp_volume = VolumeSchedule.from_monthly_totals(
        {m: V_NMIN * (i + 1) for i, m in enumerate(V_MONTHS)}
    )
    passes = 0
    for trial in range(50):
        flat_docs = list(generate_corpus(SynthSpec(
            profiles, flat_volume, V_WINDOW, derive_seed(909090, "flat", trial))))
        ramp_docs = list(generate_corpus(SynthSpec(
            profiles, ramp_volume, V_WINDOW, derive_seed(909090, "ramp", trial))))
        flat = _volume_durations(flat_docs, trial, sample=True)
        ramp_sampled = _volume_durations(ramp_docs, trial, sample=True)
        ramp_raw = _volume_durations(ramp_docs, trial, sample=False)

        # without sampling, volume inflates the long-duration quantiles
        assert quantile(ramp_raw, 0.9) > quantile(flat, 0.9), f"trial {trial}"

        medians_equal = quantile(flat, 0.5) == quantile(ramp_sampled, 0.5)
        iv_flat = bootstrap(flat, QuantileStatistic(0.9), reps=2000, level=0.99,
                            seed=derive_seed(909090, "boot-flat", trial))
        iv_ramp = bootstrap(ramp_sampled, QuantileStatistic(0.9), reps=2000, level=0.99,
                            seed=derive_seed(909090, "boot-ramp", trial))
        overlap = iv_flat.lo <= iv_ramp.hi and iv_ramp.lo <= iv_flat.hi
        if medians_equal and overlap:
            passes += 1
    assert passes >= 48, f"only {passes}/50 trials matched"


# -- 6 ----------------------------------------------------------------------


@criterion(6, "sampler-distribution")
def test_sampler_distribution_and_determinism(tmp_path):
    docs = [
        Document(id=f"doc{i}", timestamp=date(1950, 6, 1 + i % 28), text="x")
        for i in range(10000)
    ]
    cfg = SamplerConfig(n_min=5000, seed=321)
    kept = _sample(docs, cfg)
    sigma = (10000 * 0.25) ** 0.5
    assert abs(len(kept) - 5000) <= 3 * sigma

    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_documents(map(document_to_json, _sample(docs, cfg)), out1)
    write_documents(map(document_to_json, _sample(docs, cfg)), out2)
    assert out1.read_bytes() == out2.read_bytes()

    rng = np.random.default_rng(0)
    shuffled = [docs[i] for i in rng.permutation(len(docs))]
    assert {d.id for d in _sample(shuffled, cfg)} == {d.id for d in kept}


# -- 7 ----------------------------------------------------------------------


@criterion(7, "bootstrap-behavior", budget_s=120.0)
def test_bootstrap_behavior_and_coverage():
    iv = bootstrap([3.0] * 40, QuantileStatistic(0.5), reps=2000, seed=1)
    assert iv.point == iv.lo == iv.hi == 3.0

    data = np.random.default_rng(2).exponential(size=300)
    narrow = bootstrap(data, QuantileStatistic(0.5), reps=2000, level=0.95, seed=3)
    wide = bootstrap(data, QuantileStatistic(0.5), reps=2000, level=0.99, seed=3)
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi

    true_median = np.log(2.0)  # Exponential(1)
    covered = 0
    for trial in range(200):
        sample = np.random.default_rng((828282, trial)).exponential(size=500)
        iv = bootstrap(sample, QuantileStatistic(0.5), reps=2000, level=0.99,
                       seed=derive_seed(828282, "cov", trial))
        if iv.lo <= true_median <= iv.hi:
            covered += 1
    assert covered >= 185, f"coverage {covered}/200"


# -- 8 ----------------------------------------------------------------------


@criterion(8, "filtering-semantics")
def test_filtering_semantics():
    nine = [Mention("nine", date(2000, 1, 1 + i), 1) for i in range(9)]
    ten = [Mention("ten", date(2000, 1, 1 + i), 1) for i in range(10)]
    kept = basic_name_filter(build_timelines(nine + ten), 10)
    assert set(kept) == {"ten"}

    window = AnalysisWindow(date(2000, 1, 1), date(2001, 1, 1))
    at_edge = FamePeriod("x", METHOD_SPIKE, date(2000, 12, 18), date(2001, 1, 1),
                         date(2000, 12, 18), 14.0)
    inside = FamePeriod("y", METHOD_SPIKE, date(2000, 12, 11), date(2000, 12, 25),
                        date(2000, 12, 11), 14.0)
    assert period_filter([at_edge, inside], window) == [inside]

    for n_y in (800, 1000, 1500):
        counts = [YearlyCount(f"n{i:05d}", 2000, i + 1) for i in range(n_y)]
        assert len(top_k_by_year(counts, 1000)) == min(1000, n_y)
    for n_y, expect in ((2500, 3), (1000, 1), (1001, 2), (999, 1)):
        counts = [YearlyCount(f"n{i:05d}", 2000, i + 1) for i in range(n_y)]
        assert len(top_frac_by_year(counts)) == expect, n_y


# -- 9 ----------------------------------------------------------------------


def _report_corpus(tmp_path: Path) -> Path:
    rng = np.random.default_rng(404)
    profiles = []
    for i in range(50):  # dense block pins the median
        s = date(2005, 2, 1) + timedelta(days=int(rng.integers(0, 150)))
        profiles.append(NameProfile(f"dense{i:02d}", ((s, s + timedelta(days=10), 0.5),)))
    for i in range(30):  # spread tail so p90/p99 move
        s = date(2005, 2, 1) + timedelta(days=int(rng.integers(0, 60)))
        length = int(rng.integers(20, 120))
        profiles.append(
            NameProfile(f"tail{i:02d}", ((s, s + timedelta(days=length), 0.08),))
        )
    window = AnalysisWindow(date(2005, 1, 1), date(2005, 11, 1))
    volume = VolumeSchedule.from_monthly_totals({(2005, m): 400 for m in range(1, 11)})
    docs = generate_corpus(SynthSpec(tuple(profiles), volume, window, seed=11))
    path = tmp_path / "corpus.jsonl"
    write_documents(map(document_to_json, docs), path)
    return path


@criterion(9, "report-fidelity")
def test_report_interval_format_and_recomputability(tmp_path):
    import re

    corpus = _report_corpus(tmp_path)
    out = tmp_path / "out"
    args = ["run", "--input", str(corpus), "--out-dir", str(out),
            "--schema", "pretagged", "--window", "2005-01", "2005-11",
            "--n-min", "400", "--seed", "99", "--reps", "200"]
    assert main(args) == 0

    interval_re = re.compile(r"^-?\d+(\.\d{3})? \(-?\d+(\.\d{3})? \.\. -?\d+(\.\d{3})?\)$")
    alpha_re = re.compile(r"^-\d+\.\d{2} \(-\d+\.\d{2} \.\. -\d+\.\d{2}\)$")
    import csv as csvmod

    with open(out / "summary.csv", newline="") as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0][3:] == ["p50 (lo..hi)", "p90 (lo..hi)", "p99 (lo..hi)", "alpha (lo..hi)"]
    assert len(rows) > 1
    saw_alpha = False
    for row in rows[1:]:
        for cell in row[3:6]:
            assert interval_re.match(cell), cell
        assert row[6] == "n/a" or alpha_re.match(row[6]), row[6]
        saw_alpha = saw_alpha or row[6] != "n/a"
    assert saw_alpha, "no cohort produced a tail fit"

    # every table number must be recomputable from the periods CSVs alone
    period_files = sorted(str(p) for p in out.glob("periods_*.csv"))
    re_out = tmp_path / "recomputed"
    assert main(["report", "--periods", *period_files, "--seed", "99",
                 "--reps", "200", "--out-dir", str(re_out)]) == 0
    original = sorted((out / "summary.csv").read_text().splitlines()[1:])
    recomputed = sorted((re_out / "summary.csv").read_text().splitlines()[1:])
    assert original == recomputed


# -- 10 ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def million_mention_corpus(tmp_path_factory):
    rng = np.random.default_rng(1000000)
    window = AnalysisWindow(date(2006, 1, 1), date(2010, 1, 1))
    n_days = (window.end - window.start).days
    docs_per_day = 138.0
    profiles = []
    for i in range(2000):
        # varied segment lengths spread the duration distribution so the
        # tail fits and bootstrap run on realistic, non-degenerate cohorts
        length = int(rng.integers(10, 121))
        start_off = int(rng.integers(0, n_days - length - 1))
        s = window.start + timedelta(days=start_off)
        profiles.append(
            NameProfile(
                f"name{i:04d}",
                ((s, s + timedelta(days=length), 500 / (length * docs_per_day)),),
            )
        )
    volume = VolumeSchedule.from_monthly_totals(
        {(y, m): 4200 for y in range(2006, 2010) for m in range(1, 13)}
    )
    spec = SynthSpec(tuple(profiles), volume, window, seed=77)
    path = tmp_path_factory.mktemp("big") / "corpus.jsonl"
    total = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in generate_corpus(spec):
            total += len(doc.mentions)
            fh.write(document_to_json(doc))
            fh.write("\n")
    assert total > 900_000, f"corpus has only {total} mentions"
    return path


@criterion(10, "throughput", budget_s=60.0)
def test_end_to_end_throughput_on_million_mentions(million_mention_corpus, tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--input", str(million_mention_corpus), "--out-dir", str(out),
        "--schema", "pretagged", "--window", "2006-01", "2010-01",
        "--n-min", "4000", "--seed", "13", "--reps", "2000",
    ])
    assert code == 0
    assert (out / "summary.csv").exists()
