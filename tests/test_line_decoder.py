"""The JSON line decoder: one C-scanner call per line.

corpus_io._parse_json_line decodes with the json module's scanner and
falls back to json.loads only to raise its error.  The reference is the
same function decoding through json.loads, so a line gives the same
fields, or the same exception type and message, either way.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famespan import corpus_io
from famespan.cli import main

DATES = ("2005-03-01", "2005-03-01T06:30:00Z", "2005-02-30", "March 2005")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_MENTIONS = st.lists(st.tuples(st.sampled_from(["Ada Lovelace", "", "Ünïcode Näme"]),
                               st.integers(-1, 3) | st.floats()).map(list), max_size=3)
_RECORD = st.fixed_dictionaries(
    {"id": st.text(max_size=5) | _JSON, "date": st.sampled_from(DATES) | _JSON},
    optional={"mentions": _MENTIONS | _JSON, "text": st.text(max_size=8) | _JSON},
)
_VALID = st.builds(lambda rec, ascii: json.dumps(rec, ensure_ascii=ascii), _RECORD, st.booleans())


@st.composite
def _lines(draw):
    line = draw(_VALID)
    kind = draw(st.sampled_from(["valid", "trailing", "truncated", "bom", "nan", "bare",
                                 "escape", "control"]))
    if kind == "trailing":
        return line + draw(st.sampled_from([" x", " {}", "{}", "]", ",", " 1", '"']))
    if kind == "truncated":
        return line[:draw(st.integers(1, max(1, len(line) - 1)))]
    if kind == "bom":  # a byte-order mark in the middle of a file stays on its line
        return "\ufeff" + line
    if kind == "nan":
        return draw(st.sampled_from([
            '{"id": "a", "date": "2005-03-01", "mentions": [["Ada Lovelace", NaN]]}',
            '{"id": "a", "date": NaN, "mentions": []}', "NaN", "-Infinity",
            '{"id": "a", "date": "2005-03-01", "text": "x", "score": Infinity}']))
    if kind == "bare":
        return json.dumps(draw(st.lists(_JSON, max_size=3) | st.text(max_size=6) | st.integers()
                               | st.floats(allow_nan=False)))
    if kind == "escape":
        escape = draw(st.sampled_from(["q", "x41", "u12", "u00e9", "n"]))
        return '{"id": "a\\' + escape + '", "date": "2005-03-01"}'
    if kind == "control":
        ch = chr(draw(st.integers(0, 31)))
        return '{"id": "a' + ch + 'b", "date": "2005-03-01", "mentions": [], "text": "t' + ch + '"}'
    return line


def _outcome(line: str, schema: str):
    try:
        return repr(corpus_io._parse_json_line(line, schema, corpus_io._Stamps(None)))
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(line=_lines(), schema=st.sampled_from(corpus_io.SCHEMAS))
def test_scanner_decode_matches_json_loads(line, schema):
    line = line.strip()  # the reader hands over stripped, non-blank lines
    if not line:
        return
    got = _outcome(line, schema)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "_scan_json", lambda s, idx: (json.loads(s), len(s)))
        assert got == _outcome(line, schema)


def test_clean_pretagged_run_never_calls_json_loads(tmp_path, monkeypatch):
    spec = {
        "seed": 3,
        "window": {"start": "2005-01", "end": "2005-07"},
        "volume": {"monthly_total": 200},
        "profiles": [{"name": f"Name {i:02d}",
                      "segments": [{"start": f"2005-{2 + i % 3:02d}-{1 + i:02d}",
                                    "end": f"2005-{2 + i % 3:02d}-{11 + i:02d}", "p": 0.3}]}
                     for i in range(12)],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(corpus)]) == 0
    loads, calls = json.loads, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(corpus_io.json, "loads", counted)
    run = ["run", "--input", str(corpus), "--window", "2005-01", "2005-07", "--n-min", "150",
           "--seed", "5", "--min-mentions", "5", "--reps", "20"]
    assert main([*run, "--out-dir", str(tmp_path / "clean")]) == 0
    assert calls == []
    # the counter does see the fallback: a line with text after its object
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write('{"id": "x", "date": "2005-03-01", "mentions": []} {}\n')
    assert main([*run, "--out-dir", str(tmp_path / "dirty")]) == 0
    assert calls == ['{"id": "x", "date": "2005-03-01", "mentions": []} {}']
