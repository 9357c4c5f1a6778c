import math
from datetime import date

import numpy as np
import pytest

from famespan.corpus_io import Document
from famespan.errors import ConfigError, UnderfullMonth
from famespan.sampler import (
    MonthVolume,
    SamplerConfig,
    keep_score,
    month_volumes,
    sample_uniform,
    write_sampling_report,
)


def docs_in_month(year, month, n, prefix=""):
    return [
        Document(id=f"{prefix}{year}-{month}-{i}", timestamp=date(year, month, 1 + i % 28), text="x")
        for i in range(n)
    ]


def test_month_volumes_counts():
    docs = docs_in_month(1900, 1, 3) + docs_in_month(1900, 2, 1)
    assert month_volumes(docs) == [
        MonthVolume((1900, 1), 3),
        MonthVolume((1900, 2), 1),
    ]


def test_month_volumes_empty():
    assert month_volumes([]) == []


def test_month_at_target_kept_fully():
    docs = docs_in_month(1950, 6, 40)
    vols = month_volumes(docs)
    kept = list(sample_uniform(docs, vols, SamplerConfig(n_min=40, seed=1)))
    assert kept == docs


def test_binomial_concentration_at_half():
    # 10,000 docs in one month, target half: kept ~ Binomial(10000, 0.5)
    docs = docs_in_month(1950, 6, 10000)
    vols = month_volumes(docs)
    kept = list(sample_uniform(docs, vols, SamplerConfig(n_min=5000, seed=123)))
    sigma = math.sqrt(10000 * 0.25)
    assert abs(len(kept) - 5000) <= 3 * sigma


def test_order_independence_and_determinism():
    docs = docs_in_month(1960, 2, 500) + docs_in_month(1960, 3, 800)
    vols = month_volumes(docs)
    cfg = SamplerConfig(n_min=400, seed=99)
    kept1 = {d.id for d in sample_uniform(docs, vols, cfg)}
    rng = np.random.default_rng(0)
    shuffled = [docs[i] for i in rng.permutation(len(docs))]
    kept2 = {d.id for d in sample_uniform(shuffled, vols, cfg)}
    assert kept1 == kept2
    kept3 = {d.id for d in sample_uniform(docs, vols, cfg)}
    assert kept1 == kept3


def test_different_seed_changes_selection():
    docs = docs_in_month(1960, 2, 2000)
    vols = month_volumes(docs)
    a = {d.id for d in sample_uniform(docs, vols, SamplerConfig(n_min=1000, seed=1))}
    b = {d.id for d in sample_uniform(docs, vols, SamplerConfig(n_min=1000, seed=2))}
    assert a != b


def test_underfull_policies():
    docs = docs_in_month(1894, 5, 10)
    vols = month_volumes(docs)
    assert list(sample_uniform(docs, vols, SamplerConfig(100, 1, "drop-month"))) == []
    assert list(sample_uniform(docs, vols, SamplerConfig(100, 1, "keep-all"))) == docs
    with pytest.raises(UnderfullMonth):
        list(sample_uniform(docs, vols, SamplerConfig(100, 1, "fail")))


def test_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(n_min=0, seed=1)
    with pytest.raises(ConfigError):
        SamplerConfig(n_min=1, seed=1, underfull_policy="bogus")


def test_keep_score_uniform_range():
    scores = [keep_score(7, f"id{i}") for i in range(2000)]
    assert all(0.0 <= s < 1.0 for s in scores)
    assert 0.45 < float(np.mean(scores)) < 0.55


def test_sampling_report(tmp_path):
    docs = docs_in_month(1950, 6, 100) + docs_in_month(1950, 7, 20)
    vols = month_volumes(docs)
    kept_counts = {}
    list(sample_uniform(docs, vols, SamplerConfig(n_min=50, seed=5), kept_counts=kept_counts))
    out = tmp_path / "report.csv"
    write_sampling_report(vols, kept_counts, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "month,n_t,kept"
    assert lines[1].startswith("1950-06,100,")
    assert lines[2] == f"1950-07,20,{kept_counts.get((1950, 7), 0)}"
