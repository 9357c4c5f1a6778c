"""Synthetic corpora and brute-force reference detectors.

The generator draws from the stochastic timeline model used to reason
about volume effects: each name has a piecewise-constant daily mention
probability f(t), each day has a document count n(t), and every document
on day t mentions each name independently with probability f(t) (at most
once per document; with many documents the multiplicity does not matter).
Generated corpora are pre-tagged Documents, so the entire pipeline
downstream of text extraction can be verified against known ground truth.

oracle_spike / oracle_continuity re-derive the fame periods by exhaustive
scans (interval-membership week counting, enumeration of event ranges)
so the production detectors can be checked field-for-field against an
independent search structure.  oracle_phrases walks every token of a raw
text, which the recognizer's candidate scan must match phrase for phrase.
window_filter, month_volumes and sample_uniform are the ingest stages one
Document at a time, which the program runs over columns instead.
reference_read reads a corpus file's bytes one line at a time by the
README's file-format rules, which the reader's pieces, byte ranges and
block checks must match record for record and count for count.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .corpus_io import AnalysisWindow, record_json
from .dates import US_PER_DAY, Timestamp, from_epoch_us, parse_month, parse_timestamp
from .errors import ConfigError, UnderfullMonth
from .name_extract import RecognizerConfig, _resolve_run
from .peaks import (
    METHOD_CONTINUITY,
    METHOD_SPIKE,
    WEEK_US,
    FamePeriod,
    WeekGrid,
)
from .sampler import SamplerConfig, keep_scorer

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class Document:
    """One dated corpus item, carrying either raw text or extracted mentions."""

    id: str
    timestamp: Timestamp
    text: str | None = None
    mentions: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        if (self.text is None) == (self.mentions is None):
            raise ValueError(f"document {self.id!r}: exactly one of text/mentions required")


def document_to_json(doc: Document) -> str:
    return record_json(doc.id, doc.timestamp, doc.text if doc.text is not None else doc.mentions)


@dataclass(frozen=True)
class NameProfile:
    """Daily mention probability for one name, as [start, end) segments."""

    name: str
    segments: tuple[tuple[date, date, float], ...]

    def __post_init__(self):
        spans = sorted(self.segments)
        for start, end, p in spans:
            if start >= end:
                raise ConfigError(f"profile {self.name!r}: empty segment {start}..{end}")
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"profile {self.name!r}: probability {p} outside [0, 1]")
        for (_, prev_end, _), (next_start, _, _) in zip(spans, spans[1:]):
            if next_start < prev_end:
                raise ConfigError(f"profile {self.name!r}: overlapping segments")


@dataclass(frozen=True)
class VolumeSchedule:
    """Documents per day, as [start, end) segments of constant volume."""

    segments: tuple[tuple[date, date, int], ...]

    def __post_init__(self):
        for start, end, n in self.segments:
            if start >= end:
                raise ConfigError(f"volume: empty segment {start}..{end}")
            if n < 0:
                raise ConfigError(f"volume: negative count {n}")

    @classmethod
    def constant(cls, start: date, end: date, per_day: int) -> "VolumeSchedule":
        return cls(((start, end, per_day),))

    @classmethod
    def from_monthly_totals(cls, totals: dict[tuple[int, int], int]) -> "VolumeSchedule":
        """Spread each month's total evenly over its days (remainder first)."""
        segments: list[tuple[date, date, int]] = []
        for (year, month) in sorted(totals):
            total = totals[(year, month)]
            if total < 0:
                raise ConfigError(f"volume: negative monthly total for {year}-{month:02d}")
            first = date(year, month, 1)
            following = date(year + 1, 1, 1) if month == 12 else date(year, month + 1, 1)
            ndays = (following - first).days
            base, extra = divmod(total, ndays)
            if extra:
                segments.append((first, first + timedelta(days=extra), base + 1))
            if base or not extra:
                segments.append((first + timedelta(days=extra), following, base))
        return cls(tuple(segments))

    def day_counts(self, window: AnalysisWindow) -> np.ndarray:
        """Vector of document counts for every day in the window."""
        n_days = (window.end - window.start).days
        out = np.zeros(n_days, dtype=np.int64)
        for start, end, n in self.segments:
            lo = max((start - window.start).days, 0)
            hi = min((end - window.start).days, n_days)
            if lo < hi:
                out[lo:hi] = n
        return out


@dataclass(frozen=True)
class SynthSpec:
    profiles: tuple[NameProfile, ...]
    volume: VolumeSchedule
    window: AnalysisWindow
    seed: int

    def __post_init__(self):
        for profile in self.profiles:
            for start, end, _ in profile.segments:
                if start < self.window.start or end > self.window.end:
                    raise ConfigError(
                        f"profile {profile.name!r} segment {start}..{end} "
                        f"outside window {self.window.start}..{self.window.end}"
                    )


def generate_corpus(spec: SynthSpec) -> Iterator[Document]:
    """Emit the model's documents day by day, deterministically under seed.

    Document i on day t mentions name v iff the i-th uniform draw for
    (seed, t, v) falls below f_v(t); draws for a day depend only on
    (seed, day), so days can be generated independently.
    """
    window = spec.window
    n_days = (window.end - window.start).days
    day_counts = spec.volume.day_counts(window)
    # active (profile order, p) lists per day
    active: list[list[tuple[str, float]]] = [[] for _ in range(n_days)]
    for profile in spec.profiles:
        for start, end, p in profile.segments:
            if p <= 0.0:
                continue
            lo = (start - window.start).days
            hi = (end - window.start).days
            for day in range(lo, hi):
                active[day].append((profile.name, p))
    start_ordinal = window.start.toordinal()
    seed = spec.seed & _MASK64
    for day in range(n_days):
        n_docs = int(day_counts[day])
        if n_docs == 0:
            continue
        day_date = date.fromordinal(start_ordinal + day)
        todays = active[day]
        mention_lists: list[list[tuple[str, int]]] = [[] for _ in range(n_docs)]
        if todays:
            rng = np.random.default_rng((seed, start_ordinal + day))
            for name, p in todays:
                hits = np.flatnonzero(rng.random(n_docs) < p)
                for i in hits.tolist():
                    mention_lists[i].append((name, 1))
        for i in range(n_docs):
            yield Document(
                id=f"d{start_ordinal + day}-{i}",
                timestamp=day_date,
                mentions=tuple(mention_lists[i]),
            )


def load_synth_spec(path: str | Path) -> SynthSpec:
    """Read the declarative generator config (JSON, UTF-8).

    Schema:
      seed: integer
      window: {start: "YYYY-MM", end: "YYYY-MM"}
      volume: one of
        {"monthly_total": N}            -- every month gets N documents
        {"monthly_totals": {"YYYY-MM": N, ...}}
        {"per_day": [{"start": date, "end": date, "n": N}, ...]}
      profiles: [{name, segments: [{start: date, end: date, p: prob}]}]
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        window = AnalysisWindow(
            start=_month_date(raw["window"]["start"]),
            end=_month_date(raw["window"]["end"]),
        )
        volume = _parse_volume(raw["volume"], window)
        profiles = tuple(
            NameProfile(
                name=entry["name"],
                segments=tuple(
                    (_day_date(seg["start"]), _day_date(seg["end"]), float(seg["p"]))
                    for seg in entry["segments"]
                ),
            )
            for entry in raw["profiles"]
        )
        return SynthSpec(profiles=profiles, volume=volume, window=window, seed=int(raw["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad generator spec: {exc}") from exc


def _month_date(raw: str) -> date:
    year, month = parse_month(str(raw))
    return date(year, month, 1)


def _day_date(raw: str) -> date:
    ts = parse_timestamp(str(raw))
    if isinstance(ts, datetime):
        raise ValueError(f"expected a plain date, got {raw!r}")
    return ts


def _parse_volume(raw: dict, window: AnalysisWindow) -> VolumeSchedule:
    if "monthly_total" in raw:
        total = int(raw["monthly_total"])
        totals = {}
        year, month = window.start.year, window.start.month
        while (year, month) < (window.end.year, window.end.month):
            totals[(year, month)] = total
            year, month = (year + 1, 1) if month == 12 else (year, month + 1)
        return VolumeSchedule.from_monthly_totals(totals)
    if "monthly_totals" in raw:
        totals = {parse_month(k): int(v) for k, v in raw["monthly_totals"].items()}
        return VolumeSchedule.from_monthly_totals(totals)
    if "per_day" in raw:
        return VolumeSchedule(
            tuple(
                (_day_date(seg["start"]), _day_date(seg["end"]), int(seg["n"]))
                for seg in raw["per_day"]
            )
        )
    raise ValueError("volume needs monthly_total, monthly_totals, or per_day")


def window_filter(docs: Iterable[Document], window: AnalysisWindow) -> Iterator[Document]:
    """Yield exactly the documents whose timestamp falls in the window."""
    for doc in docs:
        if window.contains(doc.timestamp):
            yield doc


class MonthVolume(NamedTuple):
    """A month, as (year, month), and its document count."""
    month: tuple[int, int]
    n_t: int


def month_volumes(docs: Iterable[Document]) -> list[MonthVolume]:
    """Exact per-month document counts, sorted by month."""
    months = Counter((d.timestamp.year, d.timestamp.month) for d in docs)
    return [MonthVolume(*kv) for kv in sorted(months.items())]


def sample_uniform(
    docs: Iterable[Document],
    volumes: list[MonthVolume],
    cfg: SamplerConfig,
    kept_counts: dict[tuple[int, int], int] | None = None,
) -> Iterator[Document]:
    """Keep each document in month t with probability min(1, n_min/n_t); in
    a month below n_min keep all under "keep-all", none under "drop-month",
    and raise UnderfullMonth for the first such month under "fail".

    ``volumes`` must cover every month present in ``docs``.  Pass a dict
    as ``kept_counts`` to collect per-month kept totals for the sampling
    report.
    """
    n_t = dict(volumes)
    for (year, month), n in volumes:
        if n < cfg.n_min and cfg.underfull_policy == "fail":
            raise UnderfullMonth(f"month {year:04d}-{month:02d} has {n} documents < n_min={cfg.n_min}")
    score = keep_scorer(cfg.seed)
    for doc in docs:
        month = doc.timestamp.year, doc.timestamp.month
        if n_t[month] < cfg.n_min:
            keep = cfg.underfull_policy == "keep-all"
        else:
            keep = score(doc.id) < min(1.0, cfg.n_min / n_t[month])
        if keep:
            if kept_counts is not None:
                kept_counts[month] = kept_counts.get(month, 0) + 1
            yield doc


INVALID_UTF8 = "invalid UTF-8"
LONE_SURROGATE = "string holds a lone surrogate (an unpaired \\ud800-\\udfff escape)"


@dataclass
class ReferenceRead:
    """What reading one corpus file gives: the (id, timestamp, text or
    [(name, count), ...]) of each well-formed line in the window; the
    counts of lines, blank, out-of-window and malformed lines; each
    malformed line's number with its error text if it is a decoding fault
    (INVALID_UTF8 or LONE_SURROGATE), else None; a TSV file's sha256; and
    whether more than 10% of the non-blank lines are malformed."""

    records: list = field(default_factory=list)
    lines: int = 0
    blank: int = 0
    out_of_window: int = 0
    malformed: list = field(default_factory=list)
    digest: str | None = None
    too_many_malformed: bool = False


def reference_read(data: bytes, schema: str, window: AnalysisWindow | None = None) -> ReferenceRead:
    """The reading of a whole file's bytes by the README's "File formats"
    rules, one line at a time: one leading byte-order mark dropped, lines
    ended by CRLF, CR or LF, each decoded as strict UTF-8 and blank when
    str.strip() leaves nothing.  A pre-tagged file is TSV unless its first
    non-blank line starts with "{"."""
    lines = re.split(rb"\r\n|\r|\n", data.removeprefix(codecs.BOM_UTF8))
    if not lines[-1]:
        lines.pop()
    shown = [line.decode("utf-8", "replace").strip() for line in lines]
    tsv = schema == "pretagged" and not next((text for text in shown if text), "{").startswith("{")
    out = ReferenceRead(digest=hashlib.sha256(data).hexdigest() if tsv else None)
    for n, (line, text) in enumerate(zip(lines, shown), 1):
        out.lines += 1
        if not text:
            out.blank += 1
            continue
        try:
            line = line.decode("utf-8").strip()
            if out.digest:
                timestamp, payload = _reference_tsv(line)
                doc_id = f"tsv:{out.digest[:16]}:{n}"
            else:
                doc_id, timestamp, payload = _reference_json(line, schema)
        except UnicodeDecodeError:
            out.malformed.append((n, INVALID_UTF8))
        except UnicodeEncodeError:
            out.malformed.append((n, LONE_SURROGATE))
        except (ValueError, KeyError, TypeError):
            out.malformed.append((n, None))
        else:
            if window is None or window.contains(timestamp):
                out.records.append((doc_id, timestamp, payload))
            else:
                out.out_of_window += 1
    out.too_many_malformed = 10 * len(out.malformed) > out.lines - out.blank
    return out


def _reference_json(line: str, schema: str) -> tuple:
    """A JSON line's fields, checked in the reader's order: the object, its
    id, its date, the payload's type, lone surrogates (UnicodeEncodeError),
    then each mention."""
    rec = json.loads(line)
    if not isinstance(rec, dict) or not isinstance(rec["id"], str) or not rec["id"]:
        raise ValueError("not an object with a non-empty string id")
    if not isinstance(rec["date"], str):
        raise ValueError("date is not a string")
    timestamp = parse_timestamp(rec["date"])
    payload = rec["text" if schema == "raw" else "mentions"]
    if not isinstance(payload, str if schema == "raw" else list):
        raise ValueError("wrong payload type")
    names = [payload] if schema == "raw" else [m[0] for m in payload if type(m) is list and m and type(m[0]) is str]
    "".join([rec["id"], *names]).encode("utf-8")
    if schema == "pretagged":
        if not all(type(m) is list and len(m) == 2 and type(m[0]) is str and m[0] and type(m[1]) is int
                   and 1 <= m[1] < 2**63 for m in payload):
            raise ValueError("bad mention")
        payload = [tuple(m) for m in payload]
    return rec["id"], timestamp, payload


def _reference_tsv(line: str) -> tuple:
    """A TSV line's date and single (name, count) mention: three fields,
    each stripped; the count is ASCII digits from 1 to 2**63 - 1."""
    fields = [part.strip() for part in line.split("\t")]
    if len(fields) != 3 or not fields[1] or not re.fullmatch("[0-9]+", fields[2]):
        raise ValueError("not date<TAB>name<TAB>count")
    count = int(fields[2])
    if not 1 <= count < 2**63:
        raise ValueError("count out of range")
    return parse_timestamp(fields[0]), [(fields[1], count)]


def oracle_spike(t, grid: WeekGrid) -> FamePeriod:
    """Reference spike detector: interval-membership counting plus a scan
    of every candidate week range around the peak."""
    times = t.times_us
    counts = t.counts
    origin = grid.origin_us
    week_totals: list[int] = []
    # count each week by explicit interval membership, first to last event
    first_week = int((int(times[0]) - origin) // WEEK_US)
    last_w = int((int(times[-1]) - origin) // WEEK_US)
    for week in range(first_week, last_w + 1):
        lo = origin + week * WEEK_US
        hi = lo + WEEK_US
        inside = (times >= lo) & (times < hi)
        week_totals.append(int(counts[inside].sum()))
    totals = week_totals
    # earliest week attaining the maximum
    peak = max(range(len(totals)), key=lambda i: (totals[i], -i))
    threshold = totals[peak] / 10.0
    valid_lo = [lo for lo in range(peak + 1) if all(c >= threshold for c in totals[lo:peak + 1])]
    valid_hi = [hi for hi in range(peak, len(totals)) if all(c >= threshold for c in totals[peak:hi + 1])]
    lo, hi = min(valid_lo), max(valid_hi)
    return FamePeriod(
        name=t.name,
        method=METHOD_SPIKE,
        start=grid.week_start(first_week + lo),
        end=grid.week_start(first_week + hi + 1),
        peak_date=grid.week_start(first_week + peak),
        duration_days=float(7 * (hi - lo + 1)),
    )


def oracle_continuity(t) -> FamePeriod:
    """Reference continuity detector: enumerate all event ranges, keeping
    those with no mention-free seven-day window, and take the longest
    (earliest on ties)."""
    times = t.times_us
    n = len(times)
    gaps = np.diff(times)
    best_i = best_j = 0
    best_dur = -1
    for i in range(n):
        # ranges (i, j) stay valid until the first gap > 7 days after i
        bad = np.flatnonzero(gaps[i:] > WEEK_US)
        j_max = i + (int(bad[0]) if bad.size else n - 1 - i)
        spans = times[i:j_max + 1] - times[i]
        j = i + int(np.argmax(spans))
        dur = int(times[j] - times[i])
        if dur > best_dur:
            best_i, best_j, best_dur = i, j, dur
    start_us = int(times[best_i])
    end_us = int(times[best_j])
    duration_days = (end_us - start_us) / US_PER_DAY
    peak_us = start_us + int(duration_days / 2) * US_PER_DAY
    return FamePeriod(
        name=t.name,
        method=METHOD_CONTINUITY,
        start=from_epoch_us(start_us),
        end=from_epoch_us(end_us),
        peak_date=from_epoch_us(peak_us),
        duration_days=duration_days,
    )


def oracle_phrases(text: str, cfg: RecognizerConfig):
    """Reference recognizer walk: every token of ``text``, in order, through
    the run state machine; yields the accepted phrases as
    name_extract._accepted_phrases must."""

    def core(raw: str) -> str:  # a sentence-final period stripped; initials keep theirs
        return raw[:-1] if raw.endswith(".") and len(raw) > 2 else raw

    def resolve(run, honorific_before):
        return _resolve_run([core(raw) for raw in run], honorific_before, cfg)

    token_re = r"[^\W\d_](?:[^\W\d_]|['’-])*\.?"
    tokens = [(m.group(0), m.start(), m.end()) for m in re.finditer(token_re, text)]
    run: list[str] = []
    run_honorific = False
    prev_end = None
    for raw, start, end in tokens:
        adjacent = prev_end is not None and text[prev_end:start].strip() == ""
        prev_end = end
        if raw.rstrip(".") in cfg._honorific_cores:
            yield from resolve(run, run_honorific)
            run, run_honorific = [], True
            continue
        if not raw[0].isupper():
            yield from resolve(run, run_honorific)
            run, run_honorific = [], False
            continue
        if run and not adjacent:
            yield from resolve(run, run_honorific)
            run, run_honorific = [], False
        if not run and run_honorific and not adjacent:
            run_honorific = False
        run.append(raw)
        if core(raw) != raw:
            yield from resolve(run, run_honorific)
            run, run_honorific = [], False
    yield from resolve(run, run_honorific)
