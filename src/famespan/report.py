"""Report artifacts: CSV/JSON writers, interval formatting, manifest.

All writers emit byte-stable output: fixed row order, fixed float
formatting, LF newlines, no wall-clock anywhere.  Numbers render as
integers when integral; fractional durations carry three decimals;
exponents carry two.  Intervals render as "27 (25 .. 29)".
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus_io import sha256_file
from .dates import US_PER_DAY, epoch_us, iso, parse_timestamp
from .errors import DataError, StatsError
from .peaks import FamePeriod
from .stats import (
    BootstrapInterval,
    Cohort,
    PowerLawAlphaStatistic,
    PowerLawFit,
    QuantileStatistic,
    bootstrap_many,
    derive_seed,
    fit_power_law,
    quantile,
)

NA = "n/a"

QUANTILE_LEVELS = (0.5, 0.9, 0.99)


def format_duration(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:.3f}"


def format_alpha(a: float) -> str:
    return f"{a:.2f}"


def format_interval(iv: BootstrapInterval, fmt=format_duration) -> str:
    return f"{fmt(iv.point)} ({fmt(iv.lo)} .. {fmt(iv.hi)})"


def write_periods_csv(periods: Sequence[FamePeriod], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "method", "start", "end", "peak_date", "duration_days"])
        for p in periods:
            writer.writerow(
                [p.name, p.method, iso(p.start), iso(p.end), iso(p.peak_date),
                 format_duration(p.duration_days)]
            )


def read_periods_csv(path: str | Path) -> list[FamePeriod]:
    """Re-read persisted periods; durations are recomputed from the full-
    precision start/end timestamps so rounding in the CSV cannot drift.
    A bad header or row, or a second row for one (name, method), raises
    DataError naming the file and line."""
    out: list[FamePeriod] = []
    first_line: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:2] != ["name", "method"]:
            raise DataError(f"{path}:1: not a periods CSV (expected a name,method,... header)")
        for row in reader:
            try:
                if len(row) != 6:
                    raise ValueError(f"expected 6 fields, got {len(row)}")
                name, method, start_raw, end_raw, peak_raw, _dur = row
                first = first_line.setdefault((name, method), reader.line_num)
                if first != reader.line_num:
                    raise ValueError(f"second row for ({name!r}, {method}); "
                                     f"the first is at {path}:{first}")
                start, end = parse_timestamp(start_raw), parse_timestamp(end_raw)
                duration = (epoch_us(end) - epoch_us(start)) / US_PER_DAY
                if duration < 0:
                    raise ValueError(f"end {end_raw} is before start {start_raw}")
                out.append(
                    FamePeriod(name, method, start, end, parse_timestamp(peak_raw), duration)
                )
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return out


def write_quantile_series_csv(
    cohorts: Sequence[Cohort],
    path: str | Path,
    intervals: dict[str, dict[str, BootstrapInterval]] | None = None,
) -> None:
    """One row per cohort: bucket_start, width, n, p50, p90, p99.

    When bootstrap intervals are supplied (keyed by cohort label), lo/hi
    columns are appended for each quantile.
    """
    cols = [f"p{q * 100:g}" for q in QUANTILE_LEVELS]
    header = ["bucket_start", "width", "n"] + cols
    if intervals is not None:
        for c in cols:
            header += [f"{c}_lo", f"{c}_hi"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for cohort in cohorts:
            row = [cohort.bucket_start.isoformat(), cohort.width_months, cohort.durations.size]
            row += [format_duration(quantile(cohort.durations, q)) for q in QUANTILE_LEVELS]
            if intervals is not None:
                ivs = intervals[cohort.label]
                for c in cols:
                    row += [format_duration(ivs[c].lo), format_duration(ivs[c].hi)]
            writer.writerow(row)


def write_cumulative_curve_csv(
    cohort: Cohort, curve: list[tuple[float, int]], path: str | Path,
    fit: PowerLawFit | None,
) -> None:
    """Plot-ready survival curve; the header comment carries the log-log
    reference slope (one plus the fitted exponent, because the curve is
    cumulative)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        slope = format_alpha(fit.alpha + 1.0) if fit is not None else NA
        fh.write(f"# cohort={cohort.label} n={cohort.durations.size} reference_slope={slope}\n")
        fh.write("x,y\n")
        for x, y in curve:
            fh.write(f"{format_duration(x)},{y}\n")


@dataclass
class CohortStats:
    """What the summary row, series, curve and fits of one (method, filter, cohort) read."""

    method: str
    filter_name: str
    cohort: Cohort
    quantiles: dict[str, BootstrapInterval]
    alpha: BootstrapInterval | None
    fit: PowerLawFit | None
    alpha_error: str | None
    seed: int
    reps: int


def compute_cohort_stats(
    method: str,
    filter_name: str,
    cohort: Cohort,
    master_seed: int,
    reps: int,
    level: float,
    tail_quantile: float = 0.8,
) -> CohortStats:
    """Bootstrap the three quantiles and the tail exponent for one cohort.

    The stage seed is derived from (master, method, filter, cohort), so
    any table cell can be recomputed in isolation from the periods CSV.
    One bootstrap pass serves every statistic of the cell; the exponent
    joins it only when the tail fit succeeds on the cohort itself.
    """
    seed = derive_seed(master_seed, "bootstrap", method, filter_name, cohort.label)
    durations = cohort.durations
    statistics = [QuantileStatistic(q) for q in QUANTILE_LEVELS]
    fit = alpha_error = None
    try:
        fit = fit_power_law(durations, tail_quantile)
        statistics.append(PowerLawAlphaStatistic(tail_quantile))
    except StatsError as exc:
        alpha_error = f"{type(exc).__name__}: {exc}"
    # quantiles never fail on a resample; only the exponent can be unstable
    intervals = bootstrap_many(durations, statistics, reps=reps, level=level, seed=seed)
    alpha_iv = intervals.pop("alpha", None)
    if isinstance(alpha_iv, StatsError):
        alpha_error = f"{type(alpha_iv).__name__}: {alpha_iv}"
        alpha_iv = None
    return CohortStats(
        method=method,
        filter_name=filter_name,
        cohort=cohort,
        quantiles=intervals,
        alpha=alpha_iv,
        fit=fit,
        alpha_error=alpha_error,
        seed=seed,
        reps=reps,
    )


SUMMARY_COLUMNS = [
    "method",
    "filtering",
    "period",
    "p50 (lo..hi)",
    "p90 (lo..hi)",
    "p99 (lo..hi)",
    "alpha (lo..hi)",
]


def summary_row(cs: CohortStats) -> list[str]:
    cells = [cs.method, cs.filter_name, cs.cohort.label]
    for q in QUANTILE_LEVELS:
        cells.append(format_interval(cs.quantiles[f"p{q * 100:g}"]))
    cells.append(format_interval(cs.alpha, format_alpha) if cs.alpha else NA)
    return cells


def write_summary_csv(rows: Sequence[list[str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(rows)


def write_summary_text(rows: Sequence[list[str]], path: str | Path) -> None:
    """Aligned plain-text rendering of the summary table."""
    table = [SUMMARY_COLUMNS] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(SUMMARY_COLUMNS))]
    with open(path, "w", encoding="utf-8") as fh:
        for idx, row in enumerate(table):
            fh.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            fh.write("\n")
            if idx == 0:
                fh.write("  ".join("-" * w for w in widths).rstrip() + "\n")


def fit_record(cs: CohortStats) -> dict:
    if cs.fit is None or cs.alpha is None:
        return {"error": cs.alpha_error or "unavailable"}
    return {
        "alpha": cs.fit.alpha,
        "d_min": cs.fit.d_min,
        "n_tail": cs.fit.n_tail,
        "lo": cs.alpha.lo,
        "hi": cs.alpha.hi,
        "reps": cs.reps,
        "seed": cs.seed,
    }


def write_fits_json(stats_by_label: dict[str, CohortStats], path: str | Path) -> None:
    payload = {label: fit_record(cs) for label, cs in stats_by_label.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(config: dict, input_paths: Iterable[str | Path], path: str | Path,
                   digests: dict[str, str] | None = None) -> None:
    """Record configuration, seed, and input digests; no timestamps, so
    identical runs produce identical manifests.  An input in ``digests``
    (one read from a pipe, or a TSV file, by path) is not read again."""
    digests = digests or {}
    manifest = {
        "config": config,
        "inputs": {p: digests.get(p) or sha256_file(p) for p in sorted(map(str, input_paths))},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
