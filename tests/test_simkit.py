"""Similarity metrics and level discretization."""

import pytest
from hypothesis import example, given, strategies as st

from conftest import reference_qgrams, reference_word_tokens
from mdd import LevelDomain, MetricKind, ValidationError, discretize, similarity
from mdd.simkit import _WORD, _char_masks, _myers, profile

WORD = MetricKind.cosine_word_tokens()
QGRAM2 = MetricKind.cosine_qgrams(2)
EDIT = MetricKind.normalized_edit_distance()
ALL_METRICS = [WORD, QGRAM2, EDIT]

texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=24
)
# Few distinct characters, so strings share long runs; sizes past 64 need
# more than one machine word of bit-vector.
edit_texts = st.one_of(
    st.text(alphabet="aAbB\u00e9\u00c9\u00df\u0130 ", max_size=150),
    st.text(max_size=80),
)


def bit_parallel(pattern: str, text: str) -> int:
    return _myers(_char_masks(pattern), len(pattern), text)


def levenshtein_dp(a: str, b: str) -> int:
    """Reference: the O(|a|*|b|) dynamic program, one row at a time."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


class TestSimilarity:
    def test_identical_strings(self):
        assert similarity("Chicago", "Chicago", WORD) == 1.0

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_both_empty_is_one(self, metric):
        assert similarity("", "", metric) == 1.0

    def test_edit_distance_example(self):
        assert similarity("abc", "abd", EDIT) == pytest.approx(1 - 1 / 3)

    def test_edit_one_empty(self):
        assert similarity("abc", "", EDIT) == 0.0

    def test_word_cosine_half(self):
        # one shared token of two on each side
        assert similarity("claire green", "claire greem", WORD) == pytest.approx(0.5)

    def test_disjoint_tokens_zero(self):
        assert similarity("alpha beta", "gamma delta", WORD) == 0.0

    def test_scalar_multiple_multisets_are_one(self):
        assert similarity("go go", "go go go go", WORD) == pytest.approx(1.0)

    def test_qgram_short_strings(self):
        # below the gram size both sides have no grams; identical by convention
        assert similarity("a", "b", QGRAM2) == 1.0
        assert similarity("ab", "xy", QGRAM2) == 0.0

    @given(a=edit_texts, b=edit_texts)
    def test_bit_parallel_levenshtein_equals_dp(self, a, b):
        assert bit_parallel(a, b) == levenshtein_dp(a, b) == bit_parallel(b, a)
        lo_a, lo_b = a.lower(), b.lower()
        longest = max(len(lo_a), len(lo_b))
        expected = 1.0 - levenshtein_dp(lo_a, lo_b) / longest if longest else 1.0
        assert similarity(a, b, EDIT) == expected

    @pytest.mark.parametrize(
        "a, b, distance",
        [("", "", 0), ("", "abc", 3), ("kitten", "sitting", 3), ("a" * 70, "a" * 69 + "b", 1),
         ("ab" * 40, "ba" * 40, 2)],
    )
    def test_levenshtein_known_values(self, a, b, distance):
        assert bit_parallel(a, b) == distance == bit_parallel(b, a)

    def test_case_folding(self):
        assert similarity("CHICAGO", "chicago", EDIT) == 1.0
        assert similarity("Central Rd", "central rd", WORD) == 1.0

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @given(a=texts, b=texts)
    def test_symmetric_and_bounded(self, metric, a, b):
        left = similarity(a, b, metric)
        assert left == similarity(b, a, metric)
        assert 0.0 <= left <= 1.0

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @given(a=texts)
    def test_self_similarity_is_one(self, metric, a):
        assert similarity(a, a, metric) == 1.0


class TestTokenizer:
    def test_word_pattern_matches_exactly_the_isalnum_code_points(self):
        # Every code point occurs once and in order, so the two strings are
        # equal only if the pattern matches a character exactly where
        # str.isalnum() holds.
        everything = "".join(map(chr, range(0x110000)))
        assert "".join(_WORD.findall(everything)) == "".join(filter(str.isalnum, everything))

    # "\u0130".lower() is two code points; "\u0661\u0662\u0663" are digits;
    # "\u0301" and "\u0308" are combining marks, which are not alphanumeric.
    @example(value="\u0130", q=2)
    @example(value="\u00df", q=1)
    @example(value="_a_", q=2)
    @example(value="\u0661\u0662\u0663", q=3)
    @example(value="e\u0301 a\u0308b", q=2)
    @example(value="", q=1)
    @example(value="abcd", q=5)
    @given(value=st.text(), q=st.integers(1, 5))
    def test_profile_counts_the_reference_tokens(self, value, q):
        lowered = value.lower()
        for metric, reference in [
            (WORD, reference_word_tokens(lowered)),
            (MetricKind.cosine_qgrams(q), reference_qgrams(lowered, q)),
        ]:
            counts, sq = profile(value, metric)
            assert counts == reference
            assert sq == sum(c * c for c in reference.values())


class TestDiscretize:
    def test_extremes(self):
        d10 = LevelDomain(10)
        assert discretize(1.0, d10) == 9
        assert discretize(0.0, d10) == 0

    def test_round_half_up(self):
        d10 = LevelDomain(10)
        assert discretize(0.65, d10) == 6  # 5.85 rounds up
        assert discretize(0.05, LevelDomain(11)) == 1  # exactly 0.5 rounds up

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            discretize(1.5, LevelDomain(10))
        with pytest.raises(ValidationError):
            discretize(-0.1, LevelDomain(10))

    @given(
        sims=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        d=st.integers(2, 30),
    )
    def test_monotone(self, sims, d):
        lo, hi = sorted(sims)
        domain = LevelDomain(d)
        assert discretize(lo, domain) <= discretize(hi, domain)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @given(a=texts, b=texts)
    def test_composed_with_similarity_stays_in_domain(self, metric, a, b):
        domain = LevelDomain(7)
        assert 0 <= discretize(similarity(a, b, metric), domain) <= 6


class TestMetricKind:
    def test_parse_round_trip(self):
        for spec in ("cosine-word", "cosine-qgram:3", "edit"):
            assert MetricKind.parse(spec).spec() == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            MetricKind.parse("jaccard")
        with pytest.raises(ValidationError):
            MetricKind.parse("cosine-qgram")
        with pytest.raises(ValidationError):
            MetricKind.parse("cosine-qgram:zero")

    def test_q_validation(self):
        with pytest.raises(ValidationError):
            MetricKind.cosine_qgrams(0)

    @pytest.mark.parametrize("spec", ["cosine-qgram:0", "cosine-qgram:-2"])
    def test_parsed_q_below_one_names_the_q_limit(self, spec):
        # an integer q is parsed, so the q >= 1 check reports, not "bad q"
        with pytest.raises(ValidationError, match=r"needs an integer q >= 1"):
            MetricKind.parse(spec)
