import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from famespan.errors import (
    DegenerateTail,
    EmptyCohort,
    InsufficientTail,
    UnstableStatistic,
)
from famespan.peaks import METHOD_CONTINUITY, FamePeriod
from famespan.stats import (
    WIDTH_3_MONTHS,
    WIDTH_5_YEARS,
    BootstrapInterval,
    PowerLawAlphaStatistic,
    QuantileStatistic,
    assign_cohorts,
    bootstrap,
    bootstrap_many,
    cumulative_curve,
    derive_seed,
    fit_power_law,
    quantile,
)


def period(peak, duration=7.0, name="x"):
    start = peak - timedelta(days=1)
    end = start + timedelta(days=int(duration))
    return FamePeriod(name, METHOD_CONTINUITY, start, end, peak, float(duration))


def power_law_samples(alpha, d_min, n, seed):
    # inverse-CDF oracle: F(d) = 1 - (d/d_min)^(1-alpha)
    u = np.random.default_rng(seed).random(n)
    return d_min * (1.0 - u) ** (-1.0 / (alpha - 1.0))


class TestQuantile:
    def test_nearest_rank_examples(self):
        assert quantile([7, 7, 14, 21], 0.5) == 7.0
        assert quantile([3.5], 0.77) == 3.5
        assert quantile([9, 9, 9], 0.99) == 9.0

    def test_float_product_guard(self):
        values = np.arange(1, 101, dtype=float)
        assert quantile(values, 0.07) == 7.0
        assert quantile(values, 0.8) == 80.0

    def test_permutation_invariant_and_monotone(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(size=101)
        shuffled = values[rng.permutation(values.size)]
        qs = [0.1, 0.25, 0.5, 0.9, 0.99, 1.0]
        results = [quantile(values, q) for q in qs]
        assert results == [quantile(shuffled, q) for q in qs]
        assert results == sorted(results)

    def test_empty_raises(self):
        with pytest.raises(EmptyCohort):
            quantile([], 0.5)

    def test_bad_level_raises(self):
        with pytest.raises(ValueError):
            quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestCohorts:
    def test_five_year_bucket_arithmetic(self):
        cohorts = assign_cohorts([period(date(1907, 3, 2))], WIDTH_5_YEARS)
        assert cohorts[0].bucket_start == date(1905, 1, 1)
        assert cohorts[0].label == "1905-9"

    def test_half_open_buckets(self):
        cohorts = assign_cohorts([period(date(1910, 1, 1))], WIDTH_5_YEARS)
        assert cohorts[0].bucket_start == date(1910, 1, 1)
        assert cohorts[0].label == "1910-4"

    def test_empty_periods_no_cohorts(self):
        assert assign_cohorts([], WIDTH_5_YEARS) == []

    def test_three_month_buckets_align_to_quarters(self):
        cohorts = assign_cohorts([period(date(1945, 5, 20))], WIDTH_3_MONTHS)
        assert cohorts[0].bucket_start == date(1945, 4, 1)
        assert cohorts[0].label == "1945Q2"

    def test_membership_partition(self):
        rng = np.random.default_rng(2)
        periods = [
            period(date(1900 + int(rng.integers(0, 40)), int(rng.integers(1, 13)), 15), name=f"n{i}")
            for i in range(200)
        ]
        for width in (WIDTH_3_MONTHS, WIDTH_5_YEARS):
            cohorts = assign_cohorts(periods, width)
            assert sum(c.durations.size for c in cohorts) == len(periods)


class TestPowerLawFit:
    def test_closed_form_example(self):
        # 12 values at d_min, 3 at d_min*e: sum of logs = 3, magnitude = 2
        data = [1.0] * 12 + [float(np.e)] * 3
        fit = fit_power_law(data, tail_quantile=0.8, min_tail=3)
        assert fit.d_min == 1.0
        assert fit.n_tail == 3
        assert abs(fit.alpha - (-2.0)) < 1e-12

    def test_monte_carlo_recovery(self):
        data = power_law_samples(2.5, 7.0, 10000, seed=42)
        fit = fit_power_law(data)
        assert abs(fit.alpha - (-2.5)) < 0.1
        assert fit.n_tail == pytest.approx(2000, abs=5)

    def test_scale_invariance(self):
        data = power_law_samples(3.0, 7.0, 5000, seed=1)
        a1 = fit_power_law(data).alpha
        a3 = fit_power_law(data * 3.0).alpha
        assert abs(a1 - a3) < 1e-9

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientTail):
            fit_power_law([1.0] * 17 + [5.0, 6.0, 7.0])

    def test_near_degenerate_tail_never_yields_invalid_exponent(self):
        # tail values one ulp above d_min: the guard either raises or the
        # fit still satisfies alpha < -1, never a garbage exponent
        d_min = 2.0
        values = [d_min] * 8 + [np.nextafter(d_min, 3.0)] * 2
        try:
            fit = fit_power_law(values, min_tail=2)
            assert fit.alpha < -1
        except DegenerateTail:
            pass

    def test_positive_durations_required(self):
        with pytest.raises(ValueError):
            fit_power_law([0.0, 1.0, 2.0])


class TestBootstrap:
    def test_constant_data_zero_width(self):
        iv = bootstrap([4.0] * 25, QuantileStatistic(0.5), reps=300, seed=9)
        assert iv.point == iv.lo == iv.hi == 4.0

    def test_levels_nest_on_same_seed(self):
        data = np.random.default_rng(3).exponential(size=200)
        narrow = bootstrap(data, QuantileStatistic(0.9), reps=1000, level=0.95, seed=5)
        wide = bootstrap(data, QuantileStatistic(0.9), reps=1000, level=0.99, seed=5)
        assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi

    def test_deterministic_under_seed(self):
        data = np.random.default_rng(4).exponential(size=100)
        a = bootstrap(data, QuantileStatistic(0.5), reps=400, seed=11)
        b = bootstrap(data, QuantileStatistic(0.5), reps=400, seed=11)
        assert a == b

    def test_point_matches_direct_statistic(self):
        data = np.random.default_rng(6).exponential(size=150) + 1.0
        iv = bootstrap(data, QuantileStatistic(0.99), reps=100, seed=0)
        assert iv.point == quantile(data, 0.99)
        alpha_iv = bootstrap(power_law_samples(2.5, 7, 2000, 8), PowerLawAlphaStatistic(), reps=100, seed=0)
        assert alpha_iv.point == fit_power_law(power_law_samples(2.5, 7, 2000, 8)).alpha

    def test_many_equals_separate_calls(self):
        data = power_law_samples(2.5, 7.0, 800, seed=21)
        stats = [QuantileStatistic(0.5), QuantileStatistic(0.9), PowerLawAlphaStatistic()]
        combined = bootstrap_many(data, stats, reps=300, seed=33)
        for stat in stats:
            assert combined[stat.name] == bootstrap(data, stat, reps=300, seed=33)

    def test_unstable_statistic(self):
        # point fit barely passes (exactly 10 tail values); resamples often fail
        values = np.array([1.0] * 40 + list(range(2, 12)), dtype=float)
        with pytest.raises(UnstableStatistic):
            bootstrap(values, PowerLawAlphaStatistic(), reps=500, seed=2)

    def test_empty_values(self):
        with pytest.raises(EmptyCohort):
            bootstrap([], QuantileStatistic(0.5), reps=10, seed=0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            BootstrapInterval(point=1.0, lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            BootstrapInterval(point=1.0, lo=1.0, hi=1.0, level=1.0)


class TestCumulativeCurve:
    def test_counts_strictly_greater(self):
        cohort = assign_cohorts(
            [period(date(1950, 2, 1), d, name=f"n{i}") for i, d in enumerate([7, 7, 14])],
            WIDTH_5_YEARS,
        )[0]
        assert cumulative_curve(cohort) == [(7.0, 1), (14.0, 0)]

    def test_single_duration(self):
        cohort = assign_cohorts([period(date(1950, 2, 1), 21.0)], WIDTH_5_YEARS)[0]
        assert cumulative_curve(cohort) == [(21.0, 0)]

    def test_non_increasing(self):
        rng = np.random.default_rng(1)
        durations = rng.integers(2, 50, size=100).astype(float)
        cohort = assign_cohorts(
            [period(date(1960, 3, 1), float(d), name=f"n{i}") for i, d in enumerate(durations)],
            WIDTH_5_YEARS,
        )[0]
        curve = cumulative_curve(cohort)
        ys = [y for _, y in curve]
        assert ys == sorted(ys, reverse=True)
        assert ys[-1] == 0


def test_quantile_matches_exact_rational_rank():
    # independent oracle: compute ceil(q*n) in exact rational arithmetic
    from fractions import Fraction
    from math import ceil

    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        values = np.sort(rng.random(n))
        hundredths = int(rng.integers(1, 101))
        q = hundredths / 100.0
        expected_rank = ceil(Fraction(hundredths, 100) * n)
        assert quantile(values, q) == values[expected_rank - 1]


def test_bootstrap_batching_matches_plain_loop():
    # n large enough that reps span several internal batches; compare with
    # an independent one-replicate-at-a-time evaluation
    from famespan.stats import _resample_indices

    rng = np.random.default_rng(12)
    values = rng.exponential(size=30000) + 0.5
    reps, seed, q = 300, 44, 0.9
    iv = bootstrap(values, QuantileStatistic(q), reps=reps, level=0.99, seed=seed)
    replicate_values = []
    for r in range(reps):
        resample = values[_resample_indices(seed, r, values.size)]
        replicate_values.append(quantile(resample, q))
    assert iv.lo == quantile(replicate_values, 0.005)
    assert iv.hi == quantile(replicate_values, 0.995)
    assert iv.point == quantile(values, q)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, "bootstrap", "spike", "all", "1905-9")
    b = derive_seed(42, "bootstrap", "spike", "all", "1905-9")
    c = derive_seed(42, "bootstrap", "spike", "all", "1910-4")
    d = derive_seed(43, "bootstrap", "spike", "all", "1905-9")
    assert a == b
    assert len({a, c, d}) == 3


# -- keyed resampling: reference arithmetic in exact Python integers --------

_M64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _ref_mix(z):
    z = ((z ^ (z >> 30)) * _MIX[0]) & _M64
    z = ((z ^ (z >> 27)) * _MIX[1]) & _M64
    return z ^ (z >> 31)


def _ref_unmix(z):
    # inverse of _ref_mix, for crafting words whose re-draw is rejected too
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift((z * pow(_MIX[1], -1, 2**64)) & _M64, 27)
    return unshift((z * pow(_MIX[0], -1, 2**64)) & _M64, 30)


def _ref_bounded(word, n):
    threshold = 2**64 % n
    while (word * n) & _M64 < threshold:
        word = _ref_mix((word + _GOLDEN) & _M64)
    return (word * n) >> 64


def _ref_index(seed, rep, i, n):
    key = _ref_mix(seed & _M64)
    row_key = _ref_mix((key + (rep + 1) * _GOLDEN) & _M64)
    return _ref_bounded(_ref_mix((row_key + (i + 1) * _GOLDEN) & _M64), n)


class TestKeyedResampling:
    def test_matches_exact_integer_reference(self):
        from famespan.stats import _resample_indices

        for seed, rep, n in [(0, 0, 1), (44, 7, 13), (2**64 - 1, 24999, 150), (-3, 2, 1000)]:
            expected = [_ref_index(seed, rep, i, n) for i in range(n)]
            assert _resample_indices(seed, rep, n).tolist() == expected

    def test_bounded_rejection_branch_redraws(self):
        from famespan.stats import _bounded

        n = 3_000_000_007
        threshold = 2**64 % n
        # ceil(k * 2**64 / n) puts the low word of word * n in [0, n); keep
        # the words whose low word falls under the bias threshold
        crafted = [-(-k * 2**64 // n) for k in range(1, 400)]
        rejected = [w for w in crafted if (w * n) & _M64 < threshold]
        assert rejected
        twice = (_ref_unmix(rejected[0]) - _GOLDEN) & _M64  # its re-draw is rejected too
        assert _ref_mix((twice + _GOLDEN) & _M64) == rejected[0]
        words = [0, twice, *rejected, *crafted[:50]]
        got = _bounded(np.array(words, dtype=np.uint64), n)
        assert got.tolist() == [_ref_bounded(w, n) for w in words]
        assert all(0 <= g < n for g in got.tolist())
        # n = 6: 2**64 mod 6 = 4, so word 0 (low word 0) is always redrawn
        assert _bounded(np.array([0], dtype=np.uint64), 6)[0] == _ref_bounded(0, 6)

    def test_rows_are_batch_independent(self, monkeypatch):
        # a batch of 7 rows puts boundaries inside reps=20; every row the
        # bootstrap draws equals the single-row reference
        from famespan import stats

        reference = stats._resample_rows
        drawn = []

        def recording(seed, first, count, n):
            rows = reference(seed, first, count, n)
            drawn.append((first, rows))
            return rows

        values = np.random.default_rng(3).exponential(size=41)
        whole = stats._bootstrap_replicates(values, [QuantileStatistic(0.5)], 20, 8)
        monkeypatch.setattr(stats, "_BATCH_ELEMENTS", 7 * values.size + 3)
        monkeypatch.setattr(stats, "_resample_rows", recording)
        batched = stats._bootstrap_replicates(values, [QuantileStatistic(0.5)], 20, 8)
        monkeypatch.undo()
        assert [first for first, _ in drawn] == [0, 7, 14]
        rows = np.concatenate([r for _, r in drawn])
        assert rows.shape == (20, values.size)
        for r in range(20):
            assert np.array_equal(rows[r], stats._resample_indices(8, r, values.size))
        assert np.array_equal(whole["p50"][0], batched["p50"][0])

    def test_first_replicates_do_not_depend_on_reps(self):
        from famespan.stats import _bootstrap_replicates

        values = power_law_samples(2.5, 7.0, 300, seed=4)
        stats = [QuantileStatistic(0.9), PowerLawAlphaStatistic()]
        short = _bootstrap_replicates(values, stats, 37, 91)
        long = _bootstrap_replicates(values, stats, 5000, 91)
        for name in ("p90", "alpha"):
            assert np.array_equal(short[name][0], long[name][0][:37])
            assert np.array_equal(short[name][1], long[name][1][:37])

    @pytest.mark.parametrize("n, reps, limit", [(7, 30000, 93.22), (150, 4000, 221.90)])
    def test_indices_uniform_chi_square(self, n, reps, limit):
        # n = 7: the (position, index) table, 48 degrees of freedom;
        # n = 150: the index counts, 149 degrees of freedom; limits are the
        # chi-square quantiles at p = 1e-4
        from famespan.stats import _resample_rows

        rows = _resample_rows(2024, 0, reps, n)
        assert rows.min() >= 0 and rows.max() < n
        if n == 7:
            cells = np.bincount((np.arange(n) * n + rows).ravel(), minlength=n * n)
        else:
            cells = np.bincount(rows.ravel(), minlength=n)
        expected = rows.size / cells.size
        assert ((cells - expected) ** 2 / expected).sum() < limit


def _log_binom_pmf(n, k, p):
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def _binom_sf(n, p, k):
    """P(Bin(n, p) >= k)."""
    return min(1.0, sum(math.exp(_log_binom_pmf(n, j, p)) for j in range(max(k, 0), n + 1)))


def test_quantile_interval_ends_match_exact_bootstrap_distribution():
    # The bootstrap nearest-rank q-quantile is <= v exactly when at least
    # k = ceil(q*n) of the n draws are <= v: G(v) = P(Bin(n, F(v)) >= k).
    # Each interval end must be a plausible rank-ceil(0.005*reps) (lo) or
    # rank-ceil(0.995*reps) (hi) order statistic of reps draws from G.
    rng = np.random.default_rng(17)
    reps, eps = 4000, 1e-6
    for trial in range(4):
        values = 7.0 * np.ceil(rng.pareto(1.3, size=int(rng.integers(20, 60))) * 3 + 1)
        distinct = np.unique(values)
        for q in (0.5, 0.9, 0.99):
            k = math.ceil(q * values.size - 1e-9)
            iv = bootstrap(values, QuantileStatistic(q), reps=reps, seed=derive_seed(5, trial))

            def cdf(v):
                return _binom_sf(values.size, float(np.mean(values <= v)), k)

            for end, level in ((iv.lo, 0.005), (iv.hi, 0.995)):
                rank = math.ceil(level * reps - 1e-9)
                j = int(np.searchsorted(distinct, end))
                assert distinct[j] == end
                below = cdf(distinct[j - 1]) if j > 0 else 0.0
                p_reach = _binom_sf(reps, cdf(end), rank)  # >= rank draws <= end
                p_under = 1.0 - _binom_sf(reps, below, rank)  # < rank draws below end
                assert p_reach > eps and p_under > eps, (trial, q, level, end)


def test_quantile_replicates_do_not_pin_the_sorted_rows():
    rows = np.sort(np.random.default_rng(5).random((40, 30)), axis=1)
    vals, ok = QuantileStatistic(0.9).on_sorted_rows(rows)
    assert vals.tolist() == rows[:, 26].tolist() and ok.all()
    assert not np.shares_memory(vals, rows)


def test_bootstrap_cell_memory_is_bounded():
    # a pretagged_1m-sized cell: every statistic of a table cell at n=2000,
    # 2000 reps, which at 8 bytes a resample element would be 32 MB
    values = power_law_samples(-2.5, 7.0, 2000, seed=6)
    stats = [QuantileStatistic(q) for q in (0.5, 0.9, 0.99)] + [PowerLawAlphaStatistic()]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = bootstrap_many(values, stats, reps=2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(isinstance(iv, BootstrapInterval) for iv in out.values())
    assert peak < 16 * 2**20
