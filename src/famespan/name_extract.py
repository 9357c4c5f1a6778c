"""Turn raw document text into personal-name mentions.

The recognizer is a deliberately simple, deterministic stand-in: a
capitalized phrase is accepted as a personal name when it is preceded by
an honorific ("Mrs. Ada Lovelace") or when its first token appears in a
given-name gazetteer.  Anyone with a better NER can bypass it entirely
by supplying pre-tagged documents; downstream measurements only see
(name, timestamp, count) records either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .corpus_io import Document
from .dates import Timestamp
from .errors import ConfigError

DEFAULT_HONORIFICS = frozenset(
    {"Mr", "Mrs", "Ms", "Miss", "Dr", "Prof", "Rev", "Sen", "Gen", "Gov",
     "Capt", "Col", "Sgt", "Lt", "Judge", "President", "Sir", "Lady", "Lord"}
)

DEFAULT_STOP_CAPITALIZED = frozenset(
    {"The", "A", "An", "And", "But", "Or", "Nor", "So", "Yet", "On", "In",
     "At", "By", "To", "From", "With", "For", "Of", "As", "If", "When",
     "While", "After", "Before", "During", "He", "She", "It", "They", "We",
     "I", "You", "This", "That", "These", "Those", "There", "Here", "Its",
     "His", "Her", "Their", "Our", "My", "Your", "What", "Who", "Why",
     "How", "Where", "Not", "No", "Yes", "New", "One", "Two", "Last",
     "First", "Many", "Some", "All", "Most", "Each", "Every", "Other",
     "Another", "Such", "Both", "Several", "Today", "Yesterday", "Tomorrow"}
)

# A token is a letter followed by letters, internal apostrophes or hyphens
# ("O'Neill", "Smith-Jones"), optionally closed by a period ("Mrs.", "F.").
_TOKEN_RE = re.compile(r"[^\W\d_](?:[^\W\d_]|['’-])*\.?")


class Mention(NamedTuple):
    """One (name, timestamp, count) attention record."""

    name: str
    timestamp: Timestamp
    count: int


@dataclass(frozen=True)
class RecognizerConfig:
    """Knobs for the heuristic recognizer."""

    given_name_gazetteer: frozenset[str]
    honorifics: frozenset[str] = DEFAULT_HONORIFICS
    max_phrase_tokens: int = 4
    min_phrase_tokens: int = 2
    stop_capitalized: frozenset[str] = DEFAULT_STOP_CAPITALIZED
    # normalized (period-free) honorifics, derived in __post_init__
    _honorific_cores: frozenset[str] = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self):
        if self.min_phrase_tokens < 2:
            raise ConfigError("min_phrase_tokens must be >= 2")
        if self.max_phrase_tokens < self.min_phrase_tokens:
            raise ConfigError("max_phrase_tokens must be >= min_phrase_tokens")
        if not self.given_name_gazetteer:
            raise ConfigError("gazetteer must be non-empty for the heuristic recognizer")
        object.__setattr__(
            self, "_honorific_cores", frozenset(h.rstrip(".") for h in self.honorifics)
        )


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One entry per line, UTF-8; blank lines ignored."""
    entries = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word:
                entries.add(word)
    return frozenset(entries)


def load_recognizer(
    gazetteer: str | Path, honorifics: str | Path | None = None, stoplist: str | Path | None = None
) -> RecognizerConfig:
    """Recognizer from word-list files; built-in defaults for the lists not given."""
    return RecognizerConfig(
        given_name_gazetteer=load_wordlist(gazetteer),
        honorifics=load_wordlist(honorifics) if honorifics else DEFAULT_HONORIFICS,
        stop_capitalized=load_wordlist(stoplist) if stoplist else DEFAULT_STOP_CAPITALIZED,
    )


class _Token(NamedTuple):
    raw: str
    start: int
    end: int


def _core(raw: str) -> str:
    """Token text with a sentence-final period stripped; initials keep theirs."""
    if raw.endswith(".") and len(raw) > 2:
        return raw[:-1]
    return raw


def _is_sentence_final(raw: str) -> bool:
    return raw.endswith(".") and len(raw) > 2


def extract_mentions(doc: Document, cfg: RecognizerConfig) -> list[Mention]:
    """Extract accepted capitalized phrases from the document body.

    Returns one Mention per distinct accepted name, count = number of
    occurrences, ordered by first occurrence.  Deterministic in
    (text, cfg).
    """
    if doc.text is None:
        raise ValueError(f"document {doc.id!r} has no text; use mentions_of for dispatch")
    counts: dict[str, int] = {}
    for phrase in _accepted_phrases(doc.text, cfg):
        counts[phrase] = counts.get(phrase, 0) + 1
    return [Mention(name, doc.timestamp, n) for name, n in counts.items()]


def _accepted_phrases(text: str, cfg: RecognizerConfig):
    tokens = [_Token(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    run: list[_Token] = []
    run_honorific = False
    prev_end = None
    for tok in tokens:
        adjacent = prev_end is not None and text[prev_end:tok.start].strip() == ""
        prev_end = tok.end
        if tok.raw.rstrip(".") in cfg._honorific_cores:
            yield from _resolve_run(run, run_honorific, cfg)
            run, run_honorific = [], True
            continue
        if not tok.raw[0].isupper():
            yield from _resolve_run(run, run_honorific, cfg)
            run, run_honorific = [], False
            continue
        if run and not adjacent:
            yield from _resolve_run(run, run_honorific, cfg)
            run, run_honorific = [], False
        if not run and run_honorific and not adjacent:
            run_honorific = False
        run.append(tok)
        if _is_sentence_final(tok.raw):
            yield from _resolve_run(run, run_honorific, cfg)
            run, run_honorific = [], False
    yield from _resolve_run(run, run_honorific, cfg)


def _resolve_run(run: list[_Token], honorific_before: bool, cfg: RecognizerConfig):
    """Greedy longest-match acceptance over one run of capitalized tokens."""
    i = 0
    while i <= len(run) - cfg.min_phrase_tokens:
        first = _core(run[i].raw)
        if first in cfg.stop_capitalized:
            i += 1
            continue
        accepted = None
        if (honorific_before and i == 0) or first in cfg.given_name_gazetteer:
            longest = min(cfg.max_phrase_tokens, len(run) - i)
            if longest >= cfg.min_phrase_tokens:
                accepted = longest
        if accepted is None:
            i += 1
            continue
        yield " ".join(_core(t.raw) for t in run[i:i + accepted])
        i += accepted


def mentions_of(doc: Document, cfg: RecognizerConfig | None = None) -> list[Mention]:
    """Recognizer dispatch: extract from raw text, pass through pre-tagged."""
    if doc.mentions is not None:
        return [Mention(name, doc.timestamp, count) for name, count in doc.mentions]
    if cfg is None:
        raise ConfigError("raw documents need a recognizer config (gazetteer)")
    return extract_mentions(doc, cfg)
