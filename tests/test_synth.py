import json
import math
from datetime import date

import numpy as np
import pytest

from famespan.corpus_io import AnalysisWindow
from famespan.errors import ConfigError
from famespan.name_extract import Mention
from famespan.peaks import continuity_period
from famespan.synth import (
    NameProfile,
    SynthSpec,
    VolumeSchedule,
    generate_corpus,
    load_synth_spec,
)
from famespan.timeline import build_timelines

WINDOW = AnalysisWindow(date(2005, 1, 1), date(2005, 7, 1))


def spec_with(profiles, volume=None, seed=1):
    volume = volume or VolumeSchedule.constant(WINDOW.start, WINDOW.end, 20)
    return SynthSpec(profiles=tuple(profiles), volume=volume, window=WINDOW, seed=seed)


def seg(start, end, p):
    return (start, end, p)


def test_zero_probability_emits_empty_mentions():
    profiles = [NameProfile("A", (seg(date(2005, 2, 1), date(2005, 3, 1), 0.0),))]
    docs = list(generate_corpus(spec_with(profiles)))
    assert len(docs) == (WINDOW.end - WINDOW.start).days * 20
    assert all(doc.mentions == () for doc in docs)


def test_probability_one_mentions_every_document():
    day = date(2005, 3, 7)
    profiles = [NameProfile("A", (seg(day, date(2005, 3, 8), 1.0),))]
    vol = VolumeSchedule.constant(WINDOW.start, WINDOW.end, 50)
    docs = [d for d in generate_corpus(spec_with(profiles, vol)) if d.timestamp == day]
    assert len(docs) == 50
    assert all(doc.mentions == (("A", 1),) for doc in docs)


def test_deterministic_under_seed():
    profiles = [NameProfile("A", (seg(date(2005, 2, 1), date(2005, 4, 1), 0.3),))]
    a = list(generate_corpus(spec_with(profiles, seed=7)))
    b = list(generate_corpus(spec_with(profiles, seed=7)))
    c = list(generate_corpus(spec_with(profiles, seed=8)))
    assert a == b
    assert a != c


def test_document_ids_unique():
    profiles = [NameProfile("A", (seg(date(2005, 2, 1), date(2005, 3, 1), 0.5),))]
    docs = list(generate_corpus(spec_with(profiles)))
    assert len({d.id for d in docs}) == len(docs)


def test_mention_totals_within_three_sigma():
    # expected mentions per day = f * n; check the 1000-day empirical total
    window = AnalysisWindow(date(2000, 1, 1), date(2002, 10, 1))  # 1004 days
    n, p = 50, 0.2
    profiles = (NameProfile("A", ((window.start, window.end, p),)),)
    spec = SynthSpec(
        profiles=profiles,
        volume=VolumeSchedule.constant(window.start, window.end, n),
        window=window,
        seed=123,
    )
    total = sum(len(d.mentions) for d in generate_corpus(spec))
    days = (window.end - window.start).days
    mean = days * n * p
    sigma = math.sqrt(days * n * p * (1 - p))
    assert abs(total - mean) <= 3 * sigma


def test_monthly_totals_spread_exactly():
    vol = VolumeSchedule.from_monthly_totals({(2005, 2): 1000, (2005, 3): 45})
    window = AnalysisWindow(date(2005, 2, 1), date(2005, 4, 1))
    counts = vol.day_counts(window)
    assert counts[:28].sum() == 1000
    assert counts[28:].sum() == 45
    assert counts[:28].max() - counts[:28].min() <= 1


def test_volume_effect_on_continuity_durations():
    # One name mentioned with probability 0.01 per article over Feb 1..Mar 31.
    # At 10000 articles/week the measured continuity duration spans almost the
    # whole two months; under 100 articles/week the sparse mentions leave
    # mention-free weeks and durations come out shorter in distribution.
    window = AnalysisWindow(date(2005, 2, 1), date(2005, 4, 1))
    segment = (date(2005, 2, 1), date(2005, 4, 1), 0.01)
    full_span = (date(2005, 3, 31) - date(2005, 2, 1)).days  # 58 days

    def measured_duration(per_day, seed):
        spec = SynthSpec(
            profiles=(NameProfile("A", (segment,)),),
            volume=VolumeSchedule.constant(window.start, window.end, per_day),
            window=window,
            seed=seed,
        )
        mentions = [Mention(name, doc.timestamp, n)
                    for doc in generate_corpus(spec) for name, n in doc.mentions]
        timelines = build_timelines(mentions)
        if "A" not in timelines:
            return 0.0
        return continuity_period(timelines["A"]).duration_days

    dense = [measured_duration(1429, seed) for seed in range(100)]  # ~10000/week
    sparse = [measured_duration(14, seed) for seed in range(100)]  # <100/week
    near_full = sum(1 for d in dense if d >= full_span - 7)
    assert near_full > 95
    assert np.median(sparse) < np.median(dense)


def test_profile_validation():
    with pytest.raises(ConfigError):
        NameProfile("A", (seg(date(2005, 3, 1), date(2005, 2, 1), 0.5),))
    with pytest.raises(ConfigError):
        NameProfile("A", (seg(date(2005, 2, 1), date(2005, 3, 1), 1.5),))
    with pytest.raises(ConfigError):
        NameProfile(
            "A",
            (
                seg(date(2005, 2, 1), date(2005, 3, 1), 0.5),
                seg(date(2005, 2, 15), date(2005, 3, 10), 0.5),
            ),
        )


def test_segments_must_sit_inside_window():
    with pytest.raises(ConfigError):
        spec_with([NameProfile("A", (seg(date(2004, 12, 1), date(2005, 2, 1), 0.1),))])


def test_spec_file_round_trip(tmp_path):
    raw = {
        "seed": 99,
        "window": {"start": "2005-01", "end": "2005-07"},
        "volume": {"monthly_total": 300},
        "profiles": [
            {
                "name": "Ada Lovelace",
                "segments": [{"start": "2005-02-01", "end": "2005-03-01", "p": 0.05}],
            }
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    spec = load_synth_spec(path)
    assert spec.seed == 99
    assert spec.window == WINDOW
    assert spec.profiles[0].name == "Ada Lovelace"
    docs = list(generate_corpus(spec))
    per_month = {}
    for d in docs:
        per_month[d.timestamp.month] = per_month.get(d.timestamp.month, 0) + 1
    assert all(v == 300 for v in per_month.values())


def test_bad_spec_file_is_config_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 1, "window": {"start": "2005-01", "end": "2005-07"}}))
    with pytest.raises(ConfigError):
        load_synth_spec(path)
