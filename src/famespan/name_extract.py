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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .dates import Timestamp
from .errors import ConfigError, DataError

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

# A token is a letter ([^\W\d_]) followed by letters, internal apostrophes
# or hyphens ("O'Neill", "Smith-Jones"), optionally closed by a period
# ("Mrs.", "F.").  A letter after another letter or after a joiner that
# follows one is inside a token, not the start of one.
_JOINERS = "'’-"
_TOKEN_TAIL = rf"(?:[^\W\d_]|[{_JOINERS}])*\.?"


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
    # normalized (period-free) honorifics and the candidate scan, derived in __post_init__
    _honorific_cores: frozenset[str] = field(init=False, repr=False, compare=False, default=frozenset())
    _candidates: re.Pattern = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.min_phrase_tokens < 2:
            raise ConfigError("min_phrase_tokens must be >= 2")
        if self.max_phrase_tokens < self.min_phrase_tokens:
            raise ConfigError("max_phrase_tokens must be >= min_phrase_tokens")
        if not self.given_name_gazetteer:
            raise ConfigError("gazetteer must be non-empty for the heuristic recognizer")
        cores = frozenset(h.rstrip(".") for h in self.honorifics)
        object.__setattr__(self, "_honorific_cores", cores)
        object.__setattr__(self, "_candidates", re.compile(_candidate_pattern(cores)))


def _candidate_pattern(honorific_cores: frozenset[str]) -> str:
    """Every token that may be capitalized or an honorific: one starting
    with a letter other than ASCII a-z, or with the ASCII lowercase first
    letter of an honorific.  Checked after the first letter, the
    lookbehind rejects a start right after another letter; the caller
    checks a start right after a joiner, which is rare."""
    firsts = {h[0] for h in honorific_cores if h}
    skipped = "".join(c for c in "abcdefghijklmnopqrstuvwxyz" if c not in firsts)
    return rf"[^{skipped}\W\d_](?<![^\W\d_].){_TOKEN_TAIL}"


def load_wordlist(path: str | Path, digests: dict[str, str] | None = None) -> frozenset[str]:
    """One entry per line, UTF-8 (a byte-order mark is dropped; bytes that
    are not UTF-8 are a DataError); blank lines ignored.  The sha256 of the
    bytes read goes into ``digests``, by path, so a list read from a pipe
    gets the digest of what was read."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digests is not None:
        import hashlib  # imported on use: it maps OpenSSL, which only a SHA-256 needs
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: a word list must be UTF-8 ({exc.reason})") from None
    return frozenset(word for line in text.split("\n") if (word := line.strip()))


def load_recognizer(
    gazetteer: str | Path, honorifics: str | Path | None = None, stoplist: str | Path | None = None,
    digests: dict[str, str] | None = None,
) -> RecognizerConfig:
    """Recognizer from word-list files; built-in defaults for the lists not
    given.  ``digests`` is load_wordlist's."""
    return RecognizerConfig(
        given_name_gazetteer=load_wordlist(gazetteer, digests),
        honorifics=load_wordlist(honorifics, digests) if honorifics else DEFAULT_HONORIFICS,
        stop_capitalized=load_wordlist(stoplist, digests) if stoplist else DEFAULT_STOP_CAPITALIZED,
    )


def phrase_counts(text: str, cfg: RecognizerConfig) -> Counter[str]:
    """Each accepted phrase of ``text`` and its number of occurrences, in
    order of first occurrence.  Deterministic in (text, cfg)."""
    return Counter(_accepted_phrases(text, cfg))


def _accepted_phrases(text: str, cfg: RecognizerConfig):
    """The accepted phrases of ``text`` in order, one per occurrence.

    Only candidate tokens (capitalized or honorific) reach this loop; the
    regex skips the rest.  A token that is neither ends the current run
    exactly as a non-whitespace gap between two candidates does, so all
    that matters between candidates is whether the gap is whitespace."""
    run: list[str] = []  # token cores
    run_honorific = False
    prev_end = 0  # any value: before the first candidate no run or honorific can be cut
    for m in cfg._candidates.finditer(text):
        start = m.start()
        raw = m.group()
        if start and text[start - 1] in _JOINERS and _continues_token(text, start - 1):
            continue  # the tail of a token that began with a letter outside the class
        if raw.rstrip(".") in cfg._honorific_cores:
            yield from _resolve_run(run, run_honorific, cfg)
            run, run_honorific = [], True
            prev_end = m.end()
            continue
        if not raw[0].isupper():
            continue
        if not (prev_end == start or text[prev_end:start].isspace()):
            if run:
                yield from _resolve_run(run, run_honorific, cfg)
                run = []
            run_honorific = False
        prev_end = m.end()
        if raw[-1] == "." and len(raw) > 2:  # sentence-final; initials keep their period
            run.append(raw[:-1])
            yield from _resolve_run(run, run_honorific, cfg)
            run, run_honorific = [], False
        else:
            run.append(raw)
    yield from _resolve_run(run, run_honorific, cfg)


def _continues_token(text: str, i: int) -> bool:
    """Whether the apostrophes and hyphens ending at ``text[i]`` follow a
    letter, so the token that letter is in runs on past them."""
    while i >= 0 and text[i] in _JOINERS:
        i -= 1
    return i >= 0 and text[i].isalnum() and not text[i].isdecimal()  # [^\W\d_]


def _resolve_run(run: list[str], honorific_before: bool, cfg: RecognizerConfig):
    """Greedy longest-match acceptance over one run of capitalized token
    cores (a sentence-final period stripped, initials keep theirs)."""
    i = 0
    while i <= len(run) - cfg.min_phrase_tokens:
        first = run[i]
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
        yield " ".join(run[i:i + accepted])
        i += accepted
