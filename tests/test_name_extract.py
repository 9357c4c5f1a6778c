import hashlib
import re

import pytest

from famespan.errors import ConfigError
from famespan.name_extract import (
    RecognizerConfig,
    load_wordlist,
    phrase_counts,
)


def cfg(gazetteer=("Ada",), **kw):
    return RecognizerConfig(given_name_gazetteer=frozenset(gazetteer), **kw)


def names(counts):
    return list(counts.items())


def test_honorific_and_gazetteer_paths_count_occurrences():
    got = phrase_counts("Mrs. Ada Lovelace spoke. Ada Lovelace left.", cfg())
    assert names(got) == [("Ada Lovelace", 2)]


def test_empty_text():
    assert phrase_counts("", cfg()) == {}


def test_stop_capitalized_rejected():
    got = phrase_counts("The White House announced a plan.", cfg(gazetteer=("Ada",)))
    assert got == {}


def test_honorific_not_part_of_name():
    got = phrase_counts("Dr. Grace Hopper arrived.", cfg(gazetteer=("Zz",)))
    assert names(got) == [("Grace Hopper", 1)]


def test_single_capitalized_token_not_a_phrase():
    assert phrase_counts("Mrs. Smith arrived.", cfg()) == {}


def test_longest_match_wins():
    got = phrase_counts("Ada Lovelace King spoke.", cfg())
    assert names(got) == [("Ada Lovelace King", 1)]


def test_max_phrase_tokens_caps_match():
    got = phrase_counts("Ada B C D E F spoke.", cfg(max_phrase_tokens=3))
    assert names(got) == [("Ada B C", 1)]


def test_hyphen_and_apostrophe_tokens():
    got = phrase_counts("Ada Smith-Jones met Ada O'Neill.", cfg())
    assert names(got) == [("Ada Smith-Jones", 1), ("Ada O'Neill", 1)]


def test_sentence_boundary_breaks_phrase():
    # "Paris. Ada" must not merge across the period
    got = phrase_counts("He went to Paris. Ada Lovelace stayed.", cfg())
    assert names(got) == [("Ada Lovelace", 1)]


def test_comma_breaks_adjacency():
    got = phrase_counts("Ada, Lovelace", cfg())
    assert got == {}


def test_initials_keep_their_period():
    got = phrase_counts("Ada B. Lovelace spoke.", cfg())
    assert names(got) == [("Ada B. Lovelace", 1)]


def test_deterministic_and_first_occurrence_order():
    text = "Ada Two spoke. Ada One spoke. Ada Two again said Ada One."
    a = phrase_counts(text, cfg())
    b = phrase_counts(text, cfg())
    assert a == b
    assert list(a) == ["Ada Two", "Ada One"]


def test_no_whitespace_artifacts_in_names():
    got = phrase_counts("  Ada   Lovelace  spoke to Mrs.  Jane  Smith-Page. ", cfg())
    for name in got:
        assert name == name.strip()
        assert "  " not in name


def test_counts_match_naive_scan():
    # independent check: occurrences of the accepted phrase as token runs
    text = "Ada Lovelace met Ada Lovelace and Ada Lovelace. Nobody else came."
    got = phrase_counts(text, cfg())
    assert names(got) == [("Ada Lovelace", 3)]
    assert sum(got.values()) == len(re.findall(r"Ada Lovelace", text))


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg(min_phrase_tokens=1)
    with pytest.raises(ConfigError):
        cfg(max_phrase_tokens=1)
    with pytest.raises(ConfigError):
        RecognizerConfig(given_name_gazetteer=frozenset())


def test_fuzz_structural_invariants():
    import numpy as np

    vocab = [
        "Ada", "Grace", "Lovelace", "Hopper", "King", "White", "Smith-Jones",
        "O'Neill", "Mrs.", "Dr.", "The", "On", "spoke", "went", "to", "a",
        "market.", "and", "then,", "B.",
    ]
    config = cfg(gazetteer=("Ada", "Grace"), stop_capitalized=frozenset({"The", "On"}))
    rng = np.random.default_rng(55)
    for _ in range(200):
        words = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 40))]
        text = " ".join(words)
        got = phrase_counts(text, config)
        assert got == phrase_counts(text, config)
        squashed = " ".join(text.split())
        for name, count in got.items():
            assert count >= 1
            tokens = name.split()
            assert 2 <= len(tokens) <= config.max_phrase_tokens
            assert tokens[0] not in config.stop_capitalized
            assert name == name.strip() and "  " not in name
            # each counted occurrence exists verbatim in the squashed text
            assert squashed.count(name) >= count, (text, name)


def test_load_wordlist(tmp_path):
    f = tmp_path / "gaz.txt"
    f.write_text("Ada\n\nGrace\n", encoding="utf-8")
    assert load_wordlist(f) == frozenset({"Ada", "Grace"})


def test_load_wordlist_line_endings_and_digest(tmp_path):
    # LF, CRLF and CR end entries; the digest is of the bytes read, the
    # byte-order mark included
    f = tmp_path / "gaz.txt"
    data = b"\xef\xbb\xbfAda\r\nGrace\rAlan \n\n"
    f.write_bytes(data)
    digests = {}
    assert load_wordlist(f, digests) == frozenset({"Ada", "Grace", "Alan"})
    assert digests == {str(f): hashlib.sha256(data).hexdigest()}
