import tracemalloc
from collections import Counter
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famespan.errors import DataError
from famespan.name_extract import Mention
from famespan.timeline import (
    MentionColumns,
    Timeline,
    YearlyCount,
    basic_name_filter,
    build_timelines,
    top_frac_by_year,
    top_k_by_year,
    yearly_counts,
)

D1 = date(1950, 3, 4)
D2 = date(1950, 3, 9)


def test_additive_merge():
    tls = build_timelines([Mention("A", D1, 2), Mention("A", D1, 1), Mention("A", D2, 1)])
    t = tls["A"]
    assert t.timestamps() == [D1, D2]
    assert t.counts.tolist() == [3, 1]
    assert t.total == 4


def test_disjoint_names_disjoint_timelines():
    tls = build_timelines([Mention("A", D1, 1), Mention("B", D2, 2)])
    assert set(tls) == {"A", "B"}
    assert tls["A"].total == 1 and tls["B"].total == 2


def test_merge_is_order_independent():
    mentions = [Mention("A", D1, 2), Mention("B", D2, 1), Mention("A", D2, 1)]
    assert build_timelines(mentions) == build_timelines(list(reversed(mentions)))


def test_total_multiplicity_conserved():
    rng = np.random.default_rng(3)
    mentions = [
        Mention(f"n{rng.integers(0, 20)}", date(2000, 1, 1 + int(rng.integers(0, 28))), int(rng.integers(1, 5)))
        for _ in range(500)
    ]
    tls = build_timelines(mentions)
    assert sum(t.total for t in tls.values()) == sum(m.count for m in mentions)


def test_basic_name_filter_boundary():
    tls = build_timelines(
        [Mention("nine", D1, 9), Mention("ten", D1, 10), Mention("one", D2, 1)]
    )
    kept = basic_name_filter(tls, min_total=10)
    assert set(kept) == {"ten"}
    assert set(basic_name_filter(tls, min_total=1)) == {"nine", "ten", "one"}


def test_yearly_counts():
    tls = build_timelines(
        [
            Mention("A", date(1999, 12, 31), 2),
            Mention("A", date(2000, 1, 1), 3),
            Mention("A", date(2000, 6, 1), 1),
        ]
    )
    assert sorted(yearly_counts(tls)) == [
        YearlyCount("A", 1999, 2),
        YearlyCount("A", 2000, 4),
    ]


class TestTopK:
    COUNTS = [
        YearlyCount("A", 2000, 5),
        YearlyCount("B", 2000, 3),
        YearlyCount("C", 2000, 1),
    ]

    def test_direct_ranking(self):
        assert top_k_by_year(self.COUNTS, k=2) == {"A", "B"}

    def test_k_larger_than_names(self):
        assert top_k_by_year(self.COUNTS, k=10) == {"A", "B", "C"}

    def test_union_over_years(self):
        counts = self.COUNTS + [YearlyCount("D", 2001, 9)]
        assert top_k_by_year(counts, k=1) == {"A", "D"}

    def test_tie_breaks_lexicographically(self):
        counts = [YearlyCount("B", 2000, 5), YearlyCount("A", 2000, 5), YearlyCount("C", 2000, 5)]
        assert top_k_by_year(counts, k=2) == {"A", "B"}

    def test_per_year_size(self):
        counts = [YearlyCount(f"n{i}", 2000, i) for i in range(50)]
        assert len(top_k_by_year(counts, k=20)) == 20


class TestTopFrac:
    def test_ceiling_rule(self):
        counts = [YearlyCount(f"n{i:04d}", 2000, 2500 - i) for i in range(2500)]
        got = top_frac_by_year(counts, Fraction(1, 1000))
        assert got == {"n0000", "n0001", "n0002"}  # ceil(2.5) = 3

    def test_exactly_one_per_thousand(self):
        counts = [YearlyCount(f"n{i:04d}", 2000, 1000 - i) for i in range(1000)]
        assert top_frac_by_year(counts, Fraction(1, 1000)) == {"n0000"}

    def test_fraction_one_returns_all(self):
        counts = [YearlyCount(f"n{i}", 2000, i + 1) for i in range(7)]
        assert top_frac_by_year(counts, 1) == {f"n{i}" for i in range(7)}

    def test_float_fraction_handled_decimally(self):
        counts = [YearlyCount(f"n{i:04d}", 2000, 3000 - i) for i in range(3000)]
        assert len(top_frac_by_year(counts, 0.001)) == 3  # ceil(3.0), not ceil(3.0000000004)


def test_monotone_in_added_years():
    counts = [YearlyCount(f"n{i}", 2000, 10 - i) for i in range(5)]
    base_k = top_k_by_year(counts, k=2)
    base_f = top_frac_by_year(counts, 1)
    more = counts + [YearlyCount("z", 2001, 100)]
    assert base_k <= top_k_by_year(more, k=2)
    assert base_f <= top_frac_by_year(more, 1)


# the corpus readers reject the same counts as malformed lines
BAD_COUNTS = (-4, 0, 2**63)
BAD_COUNT_ERROR = r"^timeline 'Ada': count must be in \[1, 2\*\*63 - 1\], got {}$"


@pytest.mark.parametrize("count", (-3, *BAD_COUNTS))
def test_from_pairs_count_outside_int64_mention_range_rejected(count):
    with pytest.raises(ValueError, match=BAD_COUNT_ERROR.format(count)):
        Timeline.from_pairs("Ada", [(date(2005, 3, 2), 1), (date(2005, 3, 1), count)])


def test_empty_timeline_rejected():
    with pytest.raises(ValueError):
        Timeline("x", np.array([], dtype=np.int64), np.array([], dtype=np.int64))


DAY_US = 86_400_000_000
# 1900-01-01 (before the epoch) and 2005-03-01, in epoch microseconds
BASES_US = (-2_208_988_800_000_000, 1_109_635_200_000_000)

documents = st.lists(
    st.tuples(
        st.sampled_from(BASES_US),
        st.integers(0, 3),  # day
        st.sampled_from([0, 1, 3_600_000_000, DAY_US - 1]),  # time of day
        st.lists(st.tuples(st.sampled_from(["A", "B", "Ada Lovelace", "É"]), st.integers(1, 2**40)),
                 max_size=4),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(documents, st.data())
def test_merge_matches_counter_oracle(docs, data):
    # keep: None (every document), or any mask, all-dropped and all-kept included
    keep = data.draw(st.none() | st.lists(st.booleans(), min_size=len(docs), max_size=len(docs)))
    cols = MentionColumns()
    oracle: Counter = Counter()
    for i, (base, day, tod, mentions) in enumerate(docs):
        us = base + day * DAY_US + tod
        cols.add(us, mentions)  # repeated names in one document stay separate mentions
        if keep is None or keep[i]:
            for name, count in mentions:
                oracle[name, us] += count
    got = build_timelines(cols, None if keep is None else np.array(keep, dtype=bool))
    assert set(got) == {name for name, _ in oracle}
    for name, t in got.items():
        pairs = sorted((us, c) for (n, us), c in oracle.items() if n == name)
        assert t.times_us.tolist() == [us for us, _ in pairs]
        assert t.counts.tolist() == [c for _, c in pairs]
        assert t.total == sum(c for _, c in pairs)


def test_count_sum_reaching_2_63_is_rejected_at_one_time():
    mentions = [Mention("B", D1, 5), Mention("Ada Lovelace", D1, 2**62), Mention("Ada Lovelace", D1, 2**62)]
    with pytest.raises(DataError, match="Ada Lovelace"):
        build_timelines(mentions)


def test_count_sum_reaching_2_63_is_rejected_across_times():
    mentions = [Mention("Ada Lovelace", D1, 2**62), Mention("Ada Lovelace", D2, 2**62), Mention("B", D1, 5)]
    with pytest.raises(DataError, match="Ada Lovelace"):
        build_timelines(mentions)


def test_count_sums_just_below_2_63_are_exact():
    # every name below 2**63 though the sum over all names is not
    tls = build_timelines([Mention("A", D1, 2**62), Mention("A", D2, 2**62 - 1),
                           Mention("B", D1, 2**62), Mention("B", D1, 2**62 - 1)])
    assert tls["A"].counts.tolist() == [2**62, 2**62 - 1]
    assert tls["A"].total == tls["B"].total == 2**63 - 1


def test_yearly_counts_are_exact_integers():
    # a float64 sum reads both totals as 2**53 and picks Amy
    tls = build_timelines(
        [Mention("Bob", date(2001, 1, 5), 2**53), Mention("Bob", date(2001, 9, 1), 1),
         Mention("Amy", date(2001, 3, 3), 2**53)]
    )
    assert sorted(yearly_counts(tls)) == [YearlyCount("Amy", 2001, 2**53),
                                          YearlyCount("Bob", 2001, 2**53 + 1)]
    assert top_k_by_year(yearly_counts(tls), 1) == {"Bob"}


def test_merge_holds_at_most_three_words_per_mention():
    # about 1M mentions shaped like a pre-tagged news corpus: 200,000
    # documents of 5 mentions over four years, each name active on a
    # 60-day stretch, and the sampler dropping about 5% of the documents
    rng = np.random.default_rng(8)
    n_docs, per_doc, n_names = 200_000, 5, 2_000
    start = np.sort(rng.integers(0, 1461, n_names))
    day = start[rng.integers(0, n_names, n_docs)] + rng.integers(0, 60, n_docs)
    lo, hi = np.searchsorted(start, day - 59), np.searchsorted(start, day, side="right")
    code = (lo[:, None] + rng.random((n_docs, per_doc)) * (hi - lo)[:, None]).astype(np.int32)
    cols = MentionColumns()
    for i in range(n_names):
        cols.codes[f"n{i}"]
    cols.name_code.frombytes(code.tobytes())
    cols.count.frombytes(rng.integers(1, 4, code.size).tobytes())
    cols.doc_us.frombytes((BASES_US[1] + day * DAY_US).tobytes())
    cols.doc_size.frombytes(np.full(n_docs, per_doc, dtype=np.int32).tobytes())
    keep = rng.random(n_docs) < 0.95
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tls = build_timelines(cols, keep)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept_counts = np.frombuffer(cols.count, np.int64).reshape(n_docs, per_doc)[keep]
    assert sum(t.total for t in tls.values()) == int(kept_counts.sum())
    assert peak <= 3 * 8 * code.size
