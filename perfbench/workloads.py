"""Seeded input generators of the benchmark workloads.

Every generator is a pure function of its seed and writes its input files
plus a ``truth.json`` that records what was planted (segments, documents
per month, mentions, and for raw text the exact mentions of every
document).  The output checks compare the program's files with that truth
and with computations of their own; nothing here imports famespan.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np


def _months(start: date, end: date):
    y, m = start.year, start.month
    while (y, m) < (end.year, end.month):
        yield y, m
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)


def _month_key(d: date) -> str:
    return f"{d.year:04d}-{d.month:02d}"


def _even_daily_volume(start: date, end: date, monthly_total: int) -> list[int]:
    """Documents per day: each month's total spread evenly, remainder first."""
    per_day = []
    for y, m in _months(start, end):
        first = date(y, m, 1)
        following = date(y + 1, 1, 1) if m == 12 else date(y, m + 1, 1)
        ndays = (following - first).days
        base, extra = divmod(monthly_total, ndays)
        per_day += [base + 1] * extra + [base] * (ndays - extra)
    return per_day


def _json_line(doc_id: str, day: date, mention_items: list[str]) -> str:
    return f'{{"id":"{doc_id}","date":"{day.isoformat()}","mentions":[{",".join(mention_items)}]}}'


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


# ---------------------------------------------------------------------------
# pretagged_1m: the acceptance-criterion-10 corpus shape


PT_WINDOW = (date(2006, 1, 1), date(2010, 1, 1))
PT_NAMES = 2000
PT_MONTHLY = 4200
PT_DOCS_PER_DAY = 138.0
PT_MENTIONS_PER_NAME = 500


def generate_pretagged_1m(seed: int, out_dir: Path) -> dict:
    """2,000 names, each on one segment of 10-120 days with about 500
    expected mentions; every document on day t mentions each active name
    independently (the generative model of README's synth stage)."""
    rng = np.random.default_rng([seed, 1])
    w0, w1 = PT_WINDOW
    n_days = (w1 - w0).days
    length = rng.integers(10, 121, size=PT_NAMES)
    start_off = rng.integers(0, n_days - length - 1)
    p = PT_MENTIONS_PER_NAME / (length * PT_DOCS_PER_DAY)
    items = np.array([f'["name{i:04d}",1]' for i in range(PT_NAMES)], dtype=object)
    per_day = _even_daily_volume(w0, w1, PT_MONTHLY)
    lines: list[str] = []
    months: dict[str, int] = {}
    mentions = 0
    for day in range(n_days):
        n = per_day[day]
        d = w0 + timedelta(days=day)
        months[_month_key(d)] = months.get(_month_key(d), 0) + n
        active = np.flatnonzero((start_off <= day) & (day < start_off + length))
        hits = rng.random((active.size, n)) < p[active, None]
        per_doc = hits.sum(axis=0)
        mentions += int(per_doc.sum())
        doc_rows, name_rows = np.nonzero(hits.T)  # by document, then name order
        chunks = np.split(items[active[name_rows]], np.cumsum(per_doc)[:-1])
        for i in range(n):
            lines.append(_json_line(f"p{day}-{i}", d, chunks[i].tolist()))
    _write_lines(out_dir / "corpus.jsonl", lines)
    segments = {
        f"name{i:04d}": [(w0 + timedelta(days=int(start_off[i]))).isoformat(),
                         (w0 + timedelta(days=int(start_off[i] + length[i]))).isoformat()]
        for i in range(PT_NAMES)
    }
    return {"window": [w0.isoformat(), w1.isoformat()], "documents": len(lines),
            "mentions": mentions, "months": months, "segments": segments}


# ---------------------------------------------------------------------------
# century_bootstrap: few documents, many long-window cohorts


CB_WINDOW = (date(1895, 1, 1), date(2011, 1, 1))
CB_COHORTS = (1900, 1935, 1970, 2000)
CB_NAMES_PER_COHORT = 150
CB_MONTHLY = 31


def generate_century(seed: int, out_dir: Path) -> dict:
    """Each 5-year cohort gets names whose continuity period is planted
    exactly: a mention on every day of a segment of d+1 days, with the peak
    (start + floor(d/2)) uniform in the cohort.  Cohort k's durations are
    the midpoint quantiles of a Pareto law (survival exponent 1.5, minimum
    4 + k days), dealt to its names at random, so every seed has the same
    durations and nearly the same mention count.  Documents exist only in
    the years around each cohort, 31 per month, so every month is exactly
    full at n_min = 31."""
    rng = np.random.default_rng([seed, 2])
    segments: dict[str, list[str]] = {}
    day_names: dict[int, list[str]] = {}
    eras = []
    mid = (np.arange(CB_NAMES_PER_COHORT) + 0.5) / CB_NAMES_PER_COHORT
    for k, c in enumerate(CB_COHORTS):
        c0, c1 = date(c, 1, 1), date(c + 5, 1, 1)
        eras.append((date(c - 1, 1, 1), date(c + 6, 1, 1)))
        span = (c1 - c0).days
        durations = rng.permutation(np.floor((4 + k) * mid ** (-1 / 1.5)).astype(int))
        peaks = rng.integers(0, span, size=CB_NAMES_PER_COHORT)
        for j in range(CB_NAMES_PER_COHORT):
            name = f"c{c} n{j:03d}"
            d = int(durations[j])
            first = c0 + timedelta(days=int(peaks[j]) - d // 2)
            segments[name] = [first.isoformat(), (first + timedelta(days=d + 1)).isoformat()]
            for i in range(d + 1):
                day_names.setdefault((first + timedelta(days=i)).toordinal(), []).append(name)
    lines: list[str] = []
    months: dict[str, int] = {}
    mentions = 0
    for e0, e1 in eras:
        per_day = _even_daily_volume(e0, e1, CB_MONTHLY)
        for k, n in enumerate(per_day):
            d = e0 + timedelta(days=k)
            months[_month_key(d)] = months.get(_month_key(d), 0) + n
            todays = day_names.get(d.toordinal(), [])
            counts = rng.integers(2, 4, size=len(todays))  # >= 12 mentions per name
            docs = rng.integers(0, n, size=len(todays))
            per_doc: list[list[str]] = [[] for _ in range(n)]
            for name, cnt, i in zip(todays, counts.tolist(), docs.tolist()):
                per_doc[i].append(f'["{name}",{cnt}]')
                mentions += cnt
            for i in range(n):
                lines.append(_json_line(f"c{d.toordinal()}-{i}", d, per_doc[i]))
    _write_lines(out_dir / "corpus.jsonl", lines)
    return {"window": [CB_WINDOW[0].isoformat(), CB_WINDOW[1].isoformat()],
            "documents": len(lines), "mentions": mentions, "months": months,
            "segments": segments}


# ---------------------------------------------------------------------------
# raw_staged: raw text that the documented recognizer rule tags exactly


RS_WINDOW = (date(2001, 1, 1), date(2003, 1, 1))
RS_NAMES = 300
RS_MONTHLY = 250
RS_TEXT_CHARS = 750
RS_DECOYS_PER_DOC = 2

GIVEN_NAMES = (
    "Ada", "Alan", "Alice", "Anna", "Arthur", "Bertha", "Carl", "Clara", "Daniel",
    "Edith", "Edward", "Elena", "Emil", "Frida", "George", "Grace", "Hans", "Helen",
    "Henry", "Irene", "Isaac", "James", "Jane", "John", "Karl", "Laura", "Leon",
    "Lucy", "Maria", "Martin", "Mary", "Nina", "Oscar", "Otto", "Paul", "Peter",
    "Rosa", "Ruth", "Samuel", "Sofia", "Thomas", "Victor", "Walter", "Wilma",
)
HONORIFICS = ("Mr.", "Mrs.", "Dr.", "Prof.", "Rev.", "Capt.")
DECOYS = (
    "Harbor", "Council", "Valley", "Railway", "Bureau", "Museum", "Bridge", "Senate",
    "Library", "Theatre", "Airport", "Stadium", "Gazette", "Academy", "Orchestra",
)
FILLER = (
    "officials", "said", "that", "the", "plan", "would", "be", "reviewed", "again",
    "after", "a", "long", "debate", "over", "costs", "and", "delays", "in", "city",
    "residents", "gathered", "near", "old", "market", "to", "hear", "news", "from",
    "reporters", "late", "on", "monday", "while", "crowds", "waited", "outside",
    "building", "for", "hours", "with", "signs", "praising", "local", "work",
)
_SYLLABLES = ("ka", "lo", "mi", "ren", "tas", "vo", "bel", "dri", "gan", "hul",
              "ne", "pra", "sil", "tor", "vek", "zu", "mar", "qui", "ost", "wen")


def _surnames(rng, count: int) -> list[str]:
    taken = set(GIVEN_NAMES) | set(DECOYS)
    out: list[str] = []
    while len(out) < count:
        k = int(rng.integers(2, 4))
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), size=k))
        word = word.capitalize()
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _filler(rng, k: int) -> str:
    return " ".join(FILLER[int(i)] for i in rng.integers(0, len(FILLER), size=k))


def _raw_text(rng, occurrences: list[str]) -> str:
    """Clauses of lowercase filler around each name occurrence, so every
    planted phrase is a run of exactly two capitalised tokens."""
    clauses = [f"{_filler(rng, 3)} {o} {_filler(rng, 2)}" for o in occurrences]
    for _ in range(RS_DECOYS_PER_DOC):
        a, b = rng.choice(len(DECOYS), size=2, replace=False)
        pos = int(rng.integers(0, len(clauses) + 1))
        clauses.insert(pos, f"{_filler(rng, 2)} {DECOYS[a]} {DECOYS[b]} {_filler(rng, 2)}")
    text = ""
    for i, clause in enumerate(clauses):
        text += ("The " if i % 3 == 0 else ", ") + clause
        if i % 3 == 2:
            text += ". "
    while len(text) < RS_TEXT_CHARS:
        text += f" The {_filler(rng, 8)}."
    return text.strip()


def generate_raw_staged(seed: int, out_dir: Path) -> dict:
    """Planted names active on segments of 20-82 days (the same lengths for
    every seed, dealt at random); every day each active
    name appears in 2-4 distinct documents, once or twice per document.
    Two in three names start with a gazetteer given name, the rest follow
    an honorific."""
    rng = np.random.default_rng([seed, 3])
    w0, w1 = RS_WINDOW
    n_days = (w1 - w0).days
    surnames = _surnames(rng, 2 * RS_NAMES)
    rendered, planted = [], []
    for i in range(RS_NAMES):
        if i % 3 == 2:
            name = f"{surnames[2 * i]} {surnames[2 * i + 1]}"
            rendered.append(f"{HONORIFICS[i % len(HONORIFICS)]} {name}")
        else:
            name = f"{GIVEN_NAMES[int(rng.integers(0, len(GIVEN_NAMES)))]} {surnames[2 * i]}"
            rendered.append(name)
        planted.append(name)
    length = rng.permutation(20 + (63 * np.arange(RS_NAMES)) // RS_NAMES)  # 20-82 days
    start_off = rng.integers(0, n_days - length + 1)
    per_day = _even_daily_volume(w0, w1, RS_MONTHLY)
    lines, docs = [], []
    months: dict[str, int] = {}
    mentions = 0
    for day in range(n_days):
        n = per_day[day]
        d = w0 + timedelta(days=day)
        months[_month_key(d)] = months.get(_month_key(d), 0) + n
        per_doc: list[list[int]] = [[] for _ in range(n)]
        for v in np.flatnonzero((start_off <= day) & (day < start_off + length)).tolist():
            for i in rng.choice(n, size=min(n, int(rng.integers(2, 5))), replace=False).tolist():
                per_doc[i].append(v)
        for i in range(n):
            order = per_doc[i]
            counts = (1 + (rng.random(len(order)) < 0.2)).tolist()
            occurrences = [rendered[v] for v in order]
            occurrences += [rendered[v] for v, c in zip(order, counts) if c == 2]
            doc_id = f"r{day}-{i}"
            text = _raw_text(rng, occurrences)
            lines.append(json.dumps({"id": doc_id, "date": d.isoformat(), "text": text},
                                    separators=(",", ":")))
            docs.append([doc_id, d.isoformat(), [[planted[v], c] for v, c in zip(order, counts)]])
            mentions += sum(counts)
    _write_lines(out_dir / "raw.jsonl", lines)
    _write_lines(out_dir / "gazetteer.txt", list(GIVEN_NAMES))
    segments = {
        planted[i]: [(w0 + timedelta(days=int(start_off[i]))).isoformat(),
                     (w0 + timedelta(days=int(start_off[i] + length[i]))).isoformat()]
        for i in range(RS_NAMES)
    }
    return {"window": [w0.isoformat(), w1.isoformat()], "documents": len(lines),
            "mentions": mentions, "months": months, "segments": segments, "docs": docs}
