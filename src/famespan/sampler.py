"""Volume-normalizing subsampler.

Corpus volume varies by orders of magnitude over a century, which by
itself changes measured fame durations.  To decouple measurements from
volume, each document in month t is kept independently with probability
min(1, n_min/n_t).  The keep decision is a pure function of
(seed, document id), so the kept set does not depend on stream order or
partitioning, and the expected number of surviving documents in every
sufficiently full month is n_min.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .constants import UNDERFULL_POLICIES
from .corpus_io import Document
from .dates import month_from_index, month_of
from .errors import ConfigError, UnderfullMonth


@dataclass(frozen=True)
class MonthVolume:
    month: tuple[int, int]
    n_t: int

    def __post_init__(self):
        if self.n_t < 0:
            raise ValueError("document count cannot be negative")


@dataclass(frozen=True)
class SamplerConfig:
    n_min: int
    seed: int
    underfull_policy: str = "drop-month"

    def __post_init__(self):
        if self.n_min < 1:
            raise ConfigError("n_min must be >= 1")
        if self.underfull_policy not in UNDERFULL_POLICIES:
            raise ConfigError(
                f"unknown underfull policy {self.underfull_policy!r}; "
                f"expected one of {UNDERFULL_POLICIES}"
            )


def month_volumes(docs: Iterable[Document]) -> list[MonthVolume]:
    """Exact per-month document counts, sorted by month."""
    return [MonthVolume(*kv) for kv in sorted(Counter(month_of(d.timestamp) for d in docs).items())]


def keep_scorer(seed: int) -> Callable[[str], float]:
    """keep_score with the seed bound; the keyed hash is set up once and
    copied for each id."""
    keyed = blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def score(doc_id: str) -> float:
        h = keyed.copy()
        h.update(doc_id.encode("utf-8"))
        return int.from_bytes(h.digest(), "little") / 2**64
    return score


def keep_score(seed: int, doc_id: str) -> float:
    """Deterministic uniform score in [0, 1) for one (seed, id) pair."""
    return keep_scorer(seed)(doc_id)


def keep_probabilities(volumes: list[MonthVolume], cfg: SamplerConfig) -> dict[tuple[int, int], float]:
    """Each month's keep probability, min(1, n_min/n_t); months below
    n_min follow cfg.underfull_policy."""
    underfull = [vol for vol in volumes if vol.n_t < cfg.n_min]
    if underfull and cfg.underfull_policy == "fail":
        (year, month), n_t = underfull[0].month, underfull[0].n_t
        raise UnderfullMonth(f"month {year:04d}-{month:02d} has {n_t} documents < n_min={cfg.n_min}")
    fallback = 1.0 if cfg.underfull_policy == "keep-all" else 0.0
    return {vol.month: min(1.0, cfg.n_min / vol.n_t) if vol.n_t >= cfg.n_min else fallback
            for vol in volumes}


def sample_uniform(
    docs: Iterable[Document],
    volumes: list[MonthVolume],
    cfg: SamplerConfig,
    kept_counts: dict[tuple[int, int], int] | None = None,
) -> Iterator[Document]:
    """Keep each document in month t with probability min(1, n_min/n_t).

    ``volumes`` must cover every month present in ``docs``.  Pass a dict
    as ``kept_counts`` to collect per-month kept totals for the sampling
    report.
    """
    probs = keep_probabilities(volumes, cfg)
    for doc in docs:
        month = month_of(doc.timestamp)
        p = probs[month]
        if p >= 1.0 or (p > 0.0 and keep_score(cfg.seed, doc.id) < p):
            if kept_counts is not None:
                kept_counts[month] = kept_counts.get(month, 0) + 1
            yield doc


def sample_columns(
    months: Sequence[int], scores: Sequence[float], cfg: SamplerConfig
) -> tuple[list[MonthVolume], np.ndarray, dict[tuple[int, int], int]]:
    """sample_uniform over columns of month indices and keep_scores: the
    month volumes, the keep mask and the kept count of each month."""
    month_ids, inverse, n_t = np.unique(np.asarray(months), return_inverse=True, return_counts=True)
    volumes = [MonthVolume(month_from_index(m), n) for m, n in zip(month_ids.tolist(), n_t.tolist())]
    probs = keep_probabilities(volumes, cfg)
    # scores lie in [0, 1), so this is p >= 1 or (p > 0 and score < p)
    keep = np.asarray(scores) < np.array(list(probs.values()), dtype=np.float64)[inverse]
    return volumes, keep, dict(zip(probs, np.bincount(inverse[keep], minlength=len(probs)).tolist()))


def write_sampling_report(
    volumes: list[MonthVolume],
    kept_counts: dict[tuple[int, int], int],
    path: str | Path,
) -> None:
    """CSV audit trail: month, n_t, kept."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["month", "n_t", "kept"])
        for vol in volumes:
            writer.writerow(
                [f"{vol.month[0]:04d}-{vol.month[1]:02d}", vol.n_t, kept_counts.get(vol.month, 0)]
            )
