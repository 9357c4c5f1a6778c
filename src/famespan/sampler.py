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

# hashlib.blake2b is this object (hashlib never takes blake2, keyed here, from
# OpenSSL), without the libcrypto that importing hashlib maps for its SHA-256
from _blake2 import blake2b
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .constants import UNDERFULL_POLICIES
from .dates import month_from_index
from .errors import ConfigError, UnderfullMonth


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


# documents counted and masked at a time (see sample_columns)
_CHUNK = 1 << 14


def sample_columns(
    months: Sequence[int], scores: Sequence[float], cfg: SamplerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keyed sampler over columns of month indices and keep scores
    (keep_scorer): the (month index, n_t) row of each month present, in
    month order; the mask that keeps each document with probability
    min(1, n_min/n_t), or as cfg.underfull_policy says in a month below
    n_min; and each month's kept count.  The counts and the mask are made
    over slices of _CHUNK documents, so that beside the columns and the
    mask (1 byte per document) only a slice's temporaries and arrays over
    the months are held."""
    months, scores = np.asarray(months, dtype=np.int32), np.asarray(scores)
    first = int(months.min()) if months.size else 0
    span = int(months.max()) + 1 - first if months.size else 0  # a century is about 1,200 months
    chunks = [slice(at, at + _CHUNK) for at in range(0, months.size, _CHUNK)]
    n_t = sum((np.bincount(months[c] - first, minlength=span) for c in chunks), np.zeros(span, np.int64))
    present = np.flatnonzero(n_t)
    volumes = np.column_stack([present + first, n_t[present]])
    underfull = n_t[present] < cfg.n_min
    if cfg.underfull_policy == "fail" and underfull.any():
        index, count = volumes[underfull][0].tolist()
        year, month = month_from_index(index)
        raise UnderfullMonth(f"month {year:04d}-{month:02d} has {count} documents < n_min={cfg.n_min}")
    # n_min/n_t is at most 1 in a full month; float64 divides counts below 2**53 as Python does
    p = np.zeros(span)
    p[present] = np.where(underfull, float(cfg.underfull_policy == "keep-all"), cfg.n_min / n_t[present])
    keep, kept = np.empty(months.size, bool), np.zeros(span, np.int64)
    for chunk in chunks:
        offsets = months[chunk] - first
        # scores lie in [0, 1), so this is p >= 1 or (p > 0 and score < p)
        kept += np.bincount(offsets[np.less(scores[chunk], p[offsets], out=keep[chunk])], minlength=span)
    return volumes, keep, kept[present]


def write_sampling_report(volumes: np.ndarray, kept: np.ndarray, path: str | Path) -> None:
    """CSV audit trail: month, n_t, kept, from sample_columns' volumes and
    kept counts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("month,n_t,kept\n")
        for (index, n_t), n_kept in zip(volumes.tolist(), kept.tolist()):
            year, month = month_from_index(index)
            fh.write(f"{year:04d}-{month:02d},{n_t},{n_kept}\n")
