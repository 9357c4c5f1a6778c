"""Output checks built from the generator's truth and from computations
made apart from the program: nearest-rank quantiles, the closed-form tail
MLE, binomial order-statistic probabilities for the bootstrap, and the
planted segments.  No check compares with a stored copy of an output.

Every check raises CheckFailed with a short reason.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date, datetime
from fractions import Fraction
from pathlib import Path

import numpy as np

QUANTILES = {"p50": Fraction(1, 2), "p90": Fraction(9, 10), "p99": Fraction(99, 100)}
TAIL_QUANTILE = Fraction(4, 5)
MIN_TAIL = 10
LEVEL_TAIL = Fraction(1, 200)  # (1 - 0.99) / 2, the default interval level
FILTER_TOKENS = {"all": "all", "top-1000": "top-1000", "top-0.1pct": "top-0.1%"}
FORMAT_TOL = 5e-4 + 1e-9  # fractional durations are printed with 3 decimals
# a random figure (a kept count, a bootstrap interval end) is rejected when a
# Chernoff bound says a correct program gives one that far out with at most
# this probability (5 to 6 standard deviations); a 4-sigma test would fail a
# correct sampler about once in 300 runs of 48 months
IMPLAUSIBLE = 1e-7


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _ts(raw: str):
    return datetime.fromisoformat(raw) if "T" in raw else date.fromisoformat(raw)


def _days_between(a, b) -> float:
    if isinstance(a, datetime) or isinstance(b, datetime):
        a = a if isinstance(a, datetime) else datetime(a.year, a.month, a.day)
        b = b if isinstance(b, datetime) else datetime(b.year, b.month, b.day)
        return (b - a).total_seconds() / 86400.0
    return float((b - a).days)


def _as_date(ts) -> date:
    return ts.date() if isinstance(ts, datetime) else ts


def read_csv(path: Path) -> list[dict]:
    expect(path.exists(), f"missing output {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_periods(path: Path) -> list[dict]:
    rows = read_csv(path)
    for r in rows:
        r["start"], r["end"], r["peak_date"] = _ts(r["start"]), _ts(r["end"]), _ts(r["peak_date"])
        r["days"] = _days_between(r["start"], r["end"])
        expect(abs(float(r["duration_days"]) - r["days"]) <= FORMAT_TOL,
               f"{path.name}: {r['name']} duration_days {r['duration_days']} != end - start")
    return rows


def cohort_label(peak) -> str:
    """5-year bucket of a peak date, buckets starting on years divisible by 5."""
    start = 1970 + 5 * math.floor((_as_date(peak).year - 1970) / 5)
    return f"{start}-{(start + 4) % 10}"


def cohorts_of(periods: list[dict]) -> dict[str, np.ndarray]:
    grouped: dict[str, list[float]] = {}
    for r in periods:
        grouped.setdefault(cohort_label(r["peak_date"]), []).append(r["days"])
    return {label: np.sort(np.asarray(v)) for label, v in grouped.items()}


def nearest_rank(q: Fraction, n: int) -> int:
    """1-based rank ceil(q*n), computed exactly."""
    return min(max(math.ceil(q * n), 1), n)


def tail_mle(durations: np.ndarray) -> float | None:
    """alpha = -(1 + n / sum(ln(d_i / d_min))) over durations above the
    80th-percentile d_min; None where README says no fit exists."""
    d_min = durations[nearest_rank(TAIL_QUANTILE, durations.size) - 1]
    tail = durations[durations > d_min]
    if tail.size < MIN_TAIL:
        return None
    s = math.fsum(math.log(float(d) / d_min) for d in tail)
    return None if s <= 0 else -(1.0 + tail.size / s)


def _parse_num(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {raw!r}") from None


def parse_interval(cell: str, what: str) -> tuple[float, float, float]:
    """'27 (25 .. 29)' -> (27, 25, 29)."""
    try:
        point, rest = cell.split(" (", 1)
        lo, hi = rest.rstrip(")").split(" .. ")
    except ValueError:
        raise CheckFailed(f"{what}: not an interval: {cell!r}") from None
    return (_parse_num(point, what), _parse_num(lo, what), _parse_num(hi, what))


# ---------------------------------------------------------------------------
# the bootstrap distribution of a nearest-rank quantile


def _binom_sf(n: int, ps: np.ndarray, k: int) -> np.ndarray:
    """P(Bin(n, p) >= k) for each p in ps, summed from log-space terms."""
    i = np.arange(k, n + 1)
    lg = np.array([math.lgamma(x + 1) for x in range(n + 1)])
    log_choose = lg[n] - lg[i] - lg[n - i]
    out = []
    for p in ps.tolist():
        if p <= 0.0 or p >= 1.0:
            out.append(float(p >= 1.0))
            continue
        terms = log_choose + i * math.log(p) + (n - i) * math.log1p(-p)
        out.append(min(1.0, float(np.exp(terms).sum())))
    return np.array(out)


def _kl(a: float, p: float) -> float:
    def term(x, y):
        return 0.0 if x == 0 else x * math.log(x / y)
    return term(a, p) + term(1 - a, 1 - p)


def _tail_bound(reps: int, p: float, t: int, upper: bool) -> float:
    """Chernoff bound on P(Bin(reps, p) >= t) (upper) or <= t (lower)."""
    a = t / reps
    if (upper and a <= p) or (not upper and a >= p):
        return 1.0
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return math.exp(-reps * _kl(a, p))


def check_bootstrap_end(durations: np.ndarray, q: Fraction, value: float,
                        level_q: Fraction, reps: int, what: str) -> None:
    """The interval end must be one of the durations and a plausible
    rank-ceil(level_q*reps) order statistic of `reps` draws from the exact
    bootstrap distribution of the rank-ceil(q*n) order statistic, whose CDF
    at v is P(Bin(n, #{d <= v}/n) >= k).  Holds for any correct RNG."""
    n = durations.size
    values, counts = np.unique(durations, return_counts=True)
    j = int(np.argmin(np.abs(values - value)))
    expect(abs(values[j] - value) <= FORMAT_TOL, f"{what}: {value:g} is not a cohort duration")
    cdf = _binom_sf(n, np.cumsum(counts) / n, nearest_rank(q, n))
    r = nearest_rank(level_q, reps)
    p_reach = _tail_bound(reps, cdf[j], r, upper=True)
    p_below = _tail_bound(reps, cdf[j - 1], r - 1, upper=False) if j > 0 else 1.0
    expect(p_reach > IMPLAUSIBLE and p_below > IMPLAUSIBLE,
           f"{what}: {value:g} is implausible as the bootstrap rank-{r} of {reps} "
           f"(exact CDF {cdf[j - 1] if j else 0:.4g}..{cdf[j]:.4g})")


def check_quantile_cell(durations: np.ndarray, name: str, point: float, lo: float, hi: float,
                        reps: int, what: str) -> None:
    q = QUANTILES[name]
    want = durations[nearest_rank(q, durations.size) - 1]
    expect(abs(point - want) <= FORMAT_TOL, f"{what}: {name} {point:g} != nearest rank {want:g}")
    expect(lo <= point <= hi, f"{what}: {name} interval {lo:g}..{hi:g} excludes {point:g}")
    check_bootstrap_end(durations, q, lo, LEVEL_TAIL, reps, f"{what} {name}_lo")
    check_bootstrap_end(durations, q, hi, 1 - LEVEL_TAIL, reps, f"{what} {name}_hi")


# ---------------------------------------------------------------------------
# per-artifact checks


def check_sampling_report(path: Path, months: dict[str, int], n_min: int) -> None:
    """Month counts equal the generator's; each full month keeps a count
    that is plausible under Bin(n_t, n_min / n_t); underfull months keep none."""
    rows = read_csv(path)
    got = {r["month"]: int(r["n_t"]) for r in rows}
    expect(got == months, f"{path.name}: month counts differ from the generator's")
    for r in rows:
        n_t, kept = int(r["n_t"]), int(r["kept"])
        if n_t < n_min:
            expect(kept == 0, f"{path.name}: underfull month {r['month']} kept {kept}")
            continue
        p = n_min / n_t
        sigma = math.sqrt(n_t * p * (1 - p))
        expect(_tail_bound(n_t, p, kept, upper=kept > n_min) > IMPLAUSIBLE,
               f"{path.name}: {r['month']} kept {kept}, binomial mean {n_min} sd {sigma:.2f}")


def check_planted(periods_dir: Path, truth: dict, methods=("spike", "continuity")) -> None:
    """Names whose segment lies two weeks or more inside the window: the
    continuity period lies within the segment and misses at most its first
    and last week; the spike period overlaps the segment."""
    w0, w1 = (date.fromisoformat(x) for x in truth["window"])
    segments = {k: (date.fromisoformat(a), date.fromisoformat(b))
                for k, (a, b) in truth["segments"].items()}
    inner = {k for k, (a, b) in segments.items() if (a - w0).days >= 14 and (w1 - b).days >= 14}
    for method in methods:
        path = periods_dir / f"periods_{method}_all.csv"
        rows = {r["name"]: r for r in read_periods(path)}
        expect(rows.keys() <= segments.keys(), f"{path.name}: names that were never planted")
        missing = inner - rows.keys()
        expect(not missing, f"{path.name}: {len(missing)} planted names missing, e.g. "
               f"{sorted(missing)[:3]}")
        for name in inner:
            a, b = segments[name]
            s, e = _as_date(rows[name]["start"]), _as_date(rows[name]["end"])
            if method == "continuity":
                last = date.fromordinal(b.toordinal() - 1)
                expect(a <= s and e <= last and (s - a).days <= 7 and (last - e).days <= 7,
                       f"{path.name}: {name} period {s}..{e} vs segment {a}..{last}")
            else:
                expect(s < b and a < e, f"{path.name}: {name} spike {s}..{e} misses segment {a}..{b}")


def check_fits(path: Path, cohorts: dict[str, np.ndarray]) -> None:
    """Every reported alpha equals the closed-form MLE within 1e-9, and no
    alpha is reported where no fit exists."""
    expect(path.exists(), f"missing output {path.name}")
    fits = json.loads(path.read_text(encoding="utf-8"))
    expect(set(fits) == set(cohorts), f"{path.name}: cohorts {sorted(fits)} != {sorted(cohorts)}")
    for label, rec in fits.items():
        want = tail_mle(cohorts[label])
        if "alpha" not in rec:
            continue
        expect(want is not None, f"{path.name}: {label} has alpha but no fit exists")
        expect(abs(rec["alpha"] - want) <= 1e-9, f"{path.name}: {label} alpha {rec['alpha']} != {want}")
        expect(rec["lo"] <= rec["hi"], f"{path.name}: {label} alpha interval out of order")


def check_series(path: Path, cohorts: dict[str, np.ndarray], reps: int) -> None:
    """The 5-year series: n and quantile points per cohort, with intervals."""
    rows = read_csv(path)
    got = {cohort_label(date.fromisoformat(r["bucket_start"])): r for r in rows}
    expect(set(got) == set(cohorts), f"{path.name}: cohorts {sorted(got)} != {sorted(cohorts)}")
    for label, r in got.items():
        durs = cohorts[label]
        expect(int(r["n"]) == durs.size, f"{path.name}: {label} n {r['n']} != {durs.size}")
        for name in QUANTILES:
            check_quantile_cell(durs, name, _parse_num(r[name], path.name),
                                _parse_num(r[f"{name}_lo"], path.name),
                                _parse_num(r[f"{name}_hi"], path.name), reps,
                                f"{path.name} {label}")


def check_summary(path: Path, periods_files: list[Path], reps: int) -> None:
    """One row per (periods file, cohort) with every cell recomputed."""
    expected: dict[tuple[str, str, str], np.ndarray] = {}
    for pf in periods_files:
        _, method, token = pf.stem.split("_", 2)
        for label, durs in cohorts_of(read_periods(pf)).items():
            expected[(method, FILTER_TOKENS[token], label)] = durs
    rows = read_csv(path)
    got = {(r["method"], r["filtering"], r["period"]): r for r in rows}
    expect(len(got) == len(rows) and set(got) == set(expected),
           f"{path.name}: cells {sorted(got)} != {sorted(expected)}")
    for key, r in got.items():
        durs = expected[key]
        what = f"{path.name} {'/'.join(key)}"
        for name in QUANTILES:
            point, lo, hi = parse_interval(r[f"{name} (lo..hi)"], what)
            check_quantile_cell(durs, name, point, lo, hi, reps, what)
        want = tail_mle(durs)
        cell = r["alpha (lo..hi)"]
        if cell == "n/a":
            continue
        point, lo, hi = parse_interval(cell, what)
        expect(want is not None and abs(point - want) <= 0.005 + 1e-9,
               f"{what}: alpha {cell} vs closed form {want}")
        expect(lo <= hi, f"{what}: alpha interval out of order")


def check_curves(out_dir: Path, method: str, token: str, cohorts: dict[str, np.ndarray]) -> None:
    """Each curve row x,y says y durations exceed x, for every distinct x."""
    for label, durs in cohorts.items():
        path = out_dir / f"curve_{method}_{token}_{label}.csv"
        expect(path.exists(), f"missing output {path.name}")
        lines = path.read_text(encoding="utf-8").splitlines()
        expect(lines[0].startswith(f"# cohort={label} n={durs.size} "), f"{path.name}: bad header")
        xs = np.unique(durs)
        expect(len(lines) - 2 == xs.size, f"{path.name}: {len(lines) - 2} rows, want {xs.size}")
        for line, x in zip(lines[2:], xs):
            gx, gy = line.split(",")
            expect(abs(float(gx) - x) <= FORMAT_TOL and int(gy) == int((durs > x).sum()),
                   f"{path.name}: row {line!r} at x={x:g}")


def check_extracted(path: Path, truth_docs: list) -> None:
    """Exactly the planted documents, each with its planted names and
    counts in order of first occurrence."""
    expect(path.exists(), f"missing output {path.name}")
    with open(path, encoding="utf-8") as fh:
        got = {rec["id"]: rec for rec in map(json.loads, fh)}
    expect(len(got) == len(truth_docs), f"{path.name}: {len(got)} documents, want {len(truth_docs)}")
    for doc_id, day, mentions in truth_docs:
        rec = got.get(doc_id, {})
        expect(rec.get("date") == day and rec.get("mentions") == mentions,
               f"{path.name}: document {doc_id} has {rec.get('mentions')}, planted {mentions}")


def check_sampled(path: Path, report: Path, truth_docs: list) -> None:
    """The sampled corpus is a subset of the input whose per-month sizes
    match the sampling report's kept column."""
    expect(path.exists(), f"missing output {path.name}")
    planted = {doc_id: mentions for doc_id, _, mentions in truth_docs}
    kept: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            expect(planted.get(rec["id"]) == rec["mentions"],
                   f"{path.name}: document {rec['id']} is not an input document")
            kept[rec["date"][:7]] = kept.get(rec["date"][:7], 0) + 1
    want = {r["month"]: int(r["kept"]) for r in read_csv(report) if int(r["kept"])}
    expect(kept == want, f"{path.name}: kept documents per month differ from {report.name}")
