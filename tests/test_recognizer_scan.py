"""The recognizer's candidate scan against the reference token walk.

name_extract._accepted_phrases lets the regex skip every token that can
be neither capitalized nor an honorific; synth.oracle_phrases walks every
token.  They must accept the same phrases, in the same order, on any
text and for any honorific list, lowercase honorifics included.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from famespan import name_extract
from famespan.cli import main
from famespan.name_extract import DEFAULT_HONORIFICS, RecognizerConfig, _accepted_phrases
from famespan.synth import oracle_phrases

GAZETTEER = frozenset({"Ada", "Grace", "Élise", "ǅemal", "O'Neill"})
CONFIGS = [
    RecognizerConfig(given_name_gazetteer=GAZETTEER),
    RecognizerConfig(
        given_name_gazetteer=GAZETTEER,
        honorifics=DEFAULT_HONORIFICS | {"mr", "lady.", "x-Ray", "é", "½"},
        stop_capitalized=frozenset({"The", "On", "Smith"}),
        max_phrase_tokens=3,
    ),
    RecognizerConfig(
        given_name_gazetteer=GAZETTEER,
        honorifics=frozenset({"mr.", "o'Neill", "Dr", "_x", "1a"}),
        min_phrase_tokens=3,
    ),
]

WORDS = [
    # gazetteer names, honorifics (default and custom), stop words
    "Ada", "Grace", "Élise", "Lovelace", "Hopper", "King",
    "Mrs.", "Mr", "Dr.", "Lady", "mr", "mr.", "lady.", "lady", "Ms.",
    "The", "On", "Smith", "spoke", "went", "to", "and",
    # joiners, initials, sentence ends
    "O'Neill", "o'Neill", "x-Ray", "-Ray", "’Tis", "O'", "Jo-", "F.", "B.", "Smith.", "King.",
    # digits and underscores glued on, non-ASCII, titlecase, a numeric letter
    "1Ada", "Ada1", "_Ada", "Ada_", "É", "é", "élan", "ǅemal", "½", "½Ada",
    # a name glued inside a lowercase token, right after a letter or a joiner
    "xAda", "x-Ada", "o'Ada", "qAda", "q-Ada", "q’-Ada", "q½-Ada", "1-Ada", "_'Ada",
    # single characters
    "'", "’", "-", ".", "x", "m", "A", "1", "_",
]
SEPARATORS = [" ", "  ", "\t", "\n", ", ", "...", "", ". ", " - "]

texts = st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=40).map(
    lambda pieces: "".join(word + sep for word, sep in pieces)
)


@settings(max_examples=400, deadline=None)
@given(texts, st.sampled_from(CONFIGS))
def test_candidate_scan_matches_token_walk(text, cfg):
    assert list(_accepted_phrases(text, cfg)) == list(oracle_phrases(text, cfg))


# one-letter names, so that short random strings hold phrases
LETTER_CONFIGS = [
    RecognizerConfig(given_name_gazetteer=frozenset({"A", "É", "Ma"})),
    RecognizerConfig(given_name_gazetteer=frozenset({"A", "ǅ"}), honorifics=frozenset({"m", "r.", "Mr", "½"}),
                     stop_capitalized=frozenset({"M"})),
]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="AaMmrÉéǅ½'’-. \t\n,1_", max_size=40), st.sampled_from(LETTER_CONFIGS))
def test_candidate_scan_matches_token_walk_on_any_characters(text, cfg):
    assert list(_accepted_phrases(text, cfg)) == list(oracle_phrases(text, cfg))


SHAPES = [
    "Mrs. Ada Lovelace spoke. Ada Lovelace left.",
    "mr Grace Hopper met lady. Jane Doe and Mr. O'Neill Smith.",
    "o'Neill Ada King x-Ray Ada King -Ray Ada King ’Tis Ada King.",
    "Ada F. Kennedy and Ada Smith. Kennedy went to Élise Durand, Élise Durand.",
    "1Ada King Ada1 King _Ada King Ada_ King ½Ada King É Ada King é Ada King",
    "ǅemal Ada King ǅemal Ada\tKing\nAda...King Ada, King",
    "The Ada King On Ada King Smith Ada King mr. Ada King lady Ada King",
    "qAda King q-Ada King q’-Ada King q½-Ada King xAda King mcAda King o'Ada King 1-Ada King _'Ada King",
]


def test_extract_output_matches_token_walk(tmp_path, monkeypatch):
    raw = tmp_path / "raw.jsonl"
    lines = [json.dumps({"id": f"d{i}", "date": "1950-01-02", "text": text}, ensure_ascii=False)
             for i, text in enumerate(SHAPES)]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = CONFIGS[1]
    lists = {}
    for name, words in (("gazetteer", cfg.given_name_gazetteer), ("honorifics", cfg.honorifics),
                        ("stoplist", cfg.stop_capitalized)):
        lists[name] = tmp_path / f"{name}.txt"
        lists[name].write_text("\n".join(sorted(words)) + "\n", encoding="utf-8")
    args = ["extract", "--input", str(raw), *(a for name, p in lists.items() for a in (f"--{name}", str(p)))]

    assert main([*args, "--out", str(tmp_path / "scan.jsonl")]) == 0
    with monkeypatch.context() as m:
        m.setattr(name_extract, "_accepted_phrases", oracle_phrases)
        assert main([*args, "--out", str(tmp_path / "walk.jsonl")]) == 0
    scan = (tmp_path / "scan.jsonl").read_bytes()
    assert scan == (tmp_path / "walk.jsonl").read_bytes()
    tagged = [json.loads(line)["mentions"] for line in scan.decode("utf-8").splitlines()]
    assert sum(len(m) for m in tagged) >= 10  # the comparison is not of empty outputs
    assert ["Jane Doe", 1] in tagged[1] and ["O'Neill Smith", 1] in tagged[1]

