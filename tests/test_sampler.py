import math
import tracemalloc
from array import array
from itertools import compress

import numpy as np
import pytest

from famespan import sampler
from famespan.dates import month_index
from famespan.errors import ConfigError, UnderfullMonth
from famespan.sampler import SamplerConfig, keep_scorer, sample_columns, write_sampling_report


def docs_in_month(year, month, n, prefix=""):
    """The ids and month indices of n documents of one month."""
    return [f"{prefix}{year}-{month}-{i}" for i in range(n)], [month_index(year, month)] * n


def joined(*columns):
    ids, months = [], []
    for more_ids, more_months in columns:
        ids += more_ids
        months += more_months
    return ids, months


def sample(ids, months, cfg):
    """sample_columns over the ids' keep scores: its volumes, the kept ids
    in input order and the kept count of each month."""
    volumes, keep, kept_counts = sample_columns(months, list(map(keep_scorer(cfg.seed), ids)), cfg)
    return volumes, list(compress(ids, keep)), kept_counts


def test_month_volumes_counts():
    ids, months = joined(docs_in_month(1900, 2, 1), docs_in_month(1900, 1, 3))
    volumes, _, _ = sample(ids, months, SamplerConfig(n_min=1, seed=1))
    assert volumes.tolist() == [[month_index(1900, 1), 3], [month_index(1900, 2), 1]]


def test_month_volumes_empty():
    volumes, kept, kept_counts = sample([], [], SamplerConfig(n_min=1, seed=1))
    assert volumes.shape == (0, 2) and kept == [] and kept_counts.tolist() == []


def test_month_at_target_kept_fully():
    ids, months = docs_in_month(1950, 6, 40)
    _, kept, _ = sample(ids, months, SamplerConfig(n_min=40, seed=1))
    assert kept == ids


def test_binomial_concentration_at_half():
    # 10,000 docs in one month, target half: kept ~ Binomial(10000, 0.5)
    ids, months = docs_in_month(1950, 6, 10000)
    _, kept, _ = sample(ids, months, SamplerConfig(n_min=5000, seed=123))
    sigma = math.sqrt(10000 * 0.25)
    assert abs(len(kept) - 5000) <= 3 * sigma


def test_order_independence_and_determinism():
    ids, months = joined(docs_in_month(1960, 2, 500), docs_in_month(1960, 3, 800))
    cfg = SamplerConfig(n_min=400, seed=99)
    kept1 = set(sample(ids, months, cfg)[1])
    order = np.random.default_rng(0).permutation(len(ids))
    kept2 = set(sample([ids[i] for i in order], [months[i] for i in order], cfg)[1])
    assert kept1 == kept2
    kept3 = set(sample(ids, months, cfg)[1])
    assert kept1 == kept3


def test_different_seed_changes_selection():
    ids, months = docs_in_month(1960, 2, 2000)
    a = set(sample(ids, months, SamplerConfig(n_min=1000, seed=1))[1])
    b = set(sample(ids, months, SamplerConfig(n_min=1000, seed=2))[1])
    assert a != b


def test_underfull_policies():
    ids, months = docs_in_month(1894, 5, 10)
    assert sample(ids, months, SamplerConfig(100, 1, "drop-month"))[1] == []
    assert sample(ids, months, SamplerConfig(100, 1, "keep-all"))[1] == ids
    with pytest.raises(UnderfullMonth, match="^month 1894-05 has 10 documents < n_min=100$"):
        sample(ids, months, SamplerConfig(100, 1, "fail"))


def test_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(n_min=0, seed=1)
    with pytest.raises(ConfigError):
        SamplerConfig(n_min=1, seed=1, underfull_policy="bogus")


def test_keep_score_uniform_range():
    score = keep_scorer(7)
    scores = [score(f"id{i}") for i in range(2000)]
    assert all(0.0 <= s < 1.0 for s in scores)
    assert 0.45 < float(np.mean(scores)) < 0.55


def test_sampling_report(tmp_path):
    ids, months = joined(docs_in_month(1950, 6, 100), docs_in_month(1950, 7, 20))
    vols, kept, kept_counts = sample(ids, months, SamplerConfig(n_min=50, seed=5))
    assert kept_counts.tolist() == [sum(i.startswith("1950-6-") for i in kept), 0]
    out = tmp_path / "report.csv"
    write_sampling_report(vols, kept_counts, out)
    assert out.read_text() == f"month,n_t,kept\n1950-06,100,{kept_counts[0]}\n1950-07,20,0\n"


@pytest.mark.parametrize("policy", ["drop-month", "keep-all"])
def test_slices_of_documents_change_nothing(monkeypatch, policy):
    # 30 months in random order, some below n_min, counted and masked in
    # slices that split every month
    rng = np.random.default_rng(4)
    months = rng.integers(1200, 1230, 3000).tolist()
    scores = rng.random(3000).tolist()
    cfg = SamplerConfig(n_min=95, seed=1, underfull_policy=policy)
    whole = sample_columns(months, scores, cfg)
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(sampler, "_CHUNK", chunk)
        for got, expected in zip(sample_columns(months, scores, cfg), whole):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_the_mask_is_made_in_bounded_slices():
    # the pretagged_1m volume: 201,600 documents over 48 months, in the
    # ingest's columns; beside the mask it returns, the sampler holds no
    # temporary over the whole corpus
    rng = np.random.default_rng(3)
    n_docs = 201_600
    months = array("i", np.sort(rng.integers(1272, 1320, n_docs)).tolist())
    scores = array("d", rng.random(n_docs).tolist())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, keep, _ = sample_columns(months, scores, SamplerConfig(n_min=4000, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert keep.nbytes == n_docs
    assert peak - keep.nbytes <= 32 * sampler._CHUNK
