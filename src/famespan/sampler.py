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
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .constants import UNDERFULL_POLICIES
from .dates import month_from_index
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


def keep_scorer(seed: int) -> Callable[[str], float]:
    """The deterministic uniform score in [0, 1) of each document id under
    ``seed``; the keyed hash is set up once and copied for each id."""
    keyed = blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def score(doc_id: str) -> float:
        h = keyed.copy()
        h.update(doc_id.encode("utf-8"))
        return int.from_bytes(h.digest(), "little") / 2**64
    return score


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


def sample_columns(
    months: Sequence[int], scores: Sequence[float], cfg: SamplerConfig
) -> tuple[list[MonthVolume], np.ndarray, dict[tuple[int, int], int]]:
    """The keyed sampler over columns of month indices and keep scores
    (keep_scorer): the month volumes, the mask that keeps each document
    with its month's probability, and the kept count of each month."""
    months = np.asarray(months, dtype=np.int32)
    first = int(months.min()) if months.size else 0
    offsets = months - first  # a century is about 1,200 offsets
    n_t = np.bincount(offsets)
    present = np.flatnonzero(n_t)
    volumes = [MonthVolume(month_from_index(first + m), n)
               for m, n in zip(present.tolist(), n_t[present].tolist())]
    probs = keep_probabilities(volumes, cfg)
    p = np.zeros(n_t.size)
    p[present] = list(probs.values())
    # scores lie in [0, 1), so this is p >= 1 or (p > 0 and score < p)
    keep = np.asarray(scores) < p[offsets]
    kept = np.bincount(offsets[keep], minlength=n_t.size)[present]
    return volumes, keep, dict(zip(probs, kept.tolist()))


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
