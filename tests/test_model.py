"""Domain type behavior: satisfaction (as pattern_mask defines it),
zero-level stripping, validation."""

import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdd import (
    Algorithm,
    AttributeId,
    DiscoveredMd,
    DiscoveryRequest,
    EvalCounters,
    EvaluationMode,
    LevelDomain,
    Relation,
    ThresholdPattern,
    ValidationError,
    pattern_mask,
    strip_zero_levels,
    to_fraction,
)
from mdd.errors import SchemaMismatchError

from conftest import make_distribution

A = tuple(AttributeId(i, f"A{i+1}") for i in range(6))


def _records(*level_vectors):
    """A distribution over A[:m] holding the given level vectors, d = 10."""
    m = len(level_vectors[0])
    return make_distribution(
        {tuple(v): 1 for v in level_vectors}, d=10, names=[a.name for a in A[:m]]
    )


def _satisfies(levels, pattern) -> bool:
    return bool(pattern_mask(_records(levels), pattern)[0])


class TestSatisfies:
    def test_partial_pattern_met(self):
        lam = ThresholdPattern.of({A[0]: 1, A[2]: 3})
        assert _satisfies((1, 0, 3, 5, 8, 4), lam)

    def test_all_zero_pattern_always_satisfied(self):
        lam = ThresholdPattern.of({A[0]: 0, A[1]: 0})
        assert _satisfies((0, 0, 0, 0, 0, 0), lam)

    def test_single_miss_fails(self):
        assert not _satisfies((1, 0, 3, 5, 8, 4), ThresholdPattern.of({A[1]: 1}))

    def test_unknown_attribute_raises(self):
        stranger = AttributeId(9, "Z")
        with pytest.raises(SchemaMismatchError):
            _satisfies((1, 2), ThresholdPattern.of({stranger: 1}))

    @given(
        levels=st.lists(st.integers(0, 9), min_size=3, max_size=3),
        low=st.lists(st.integers(0, 9), min_size=3, max_size=3),
        bump=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    def test_monotonicity(self, levels, low, bump):
        # if lam1 <= lam2 componentwise, satisfying lam2 implies satisfying lam1
        lam1 = ThresholdPattern.over(A[:3], low)
        lam2 = ThresholdPattern.over(A[:3], [min(9, l + b) for l, b in zip(low, bump)])
        if _satisfies(tuple(levels), lam2):
            assert _satisfies(tuple(levels), lam1)


class TestStripZeroLevels:
    def test_drops_only_zero_entries(self):
        lam = ThresholdPattern.of({A[0]: 6, A[1]: 0, A[2]: 8})
        stripped = strip_zero_levels(lam)
        assert stripped.as_dict() == {A[0]: 6, A[2]: 8}

    def test_all_zero_becomes_empty(self):
        lam = ThresholdPattern.of({A[0]: 0, A[1]: 0})
        assert len(strip_zero_levels(lam)) == 0

    def test_identity_without_zeros(self):
        lam = ThresholdPattern.of({A[0]: 3})
        assert strip_zero_levels(lam) == lam

    @given(st.dictionaries(st.integers(0, 5), st.integers(0, 9), min_size=1, max_size=6))
    def test_idempotent_and_semantics_preserving(self, raw):
        lam = ThresholdPattern.of({A[i]: l for i, l in raw.items()})
        once = strip_zero_levels(lam)
        assert strip_zero_levels(once) == once
        # satisfaction must be unchanged on arbitrary records
        rng = random.Random(0)
        dist = _records(*(tuple(rng.randint(0, 9) for _ in range(6)) for _ in range(20)))
        assert np.array_equal(pattern_mask(dist, lam), pattern_mask(dist, once))


class TestThresholdPattern:
    def test_entry_order_does_not_matter(self):
        assert ThresholdPattern.of({A[0]: 1, A[1]: 2}) == ThresholdPattern(
            ((A[1], 2), (A[0], 1))
        )

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            ThresholdPattern.of({A[0]: -1})

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValidationError):
            ThresholdPattern(((A[0], 1), (A[0], 2)))


class TestDiscoveredMd:
    def _md(self, counters, support=Fraction(1, 4)):
        return DiscoveredMd(
            ThresholdPattern.of({A[0]: 2, A[1]: 1}),
            ThresholdPattern.of({A[2]: 3}),
            support,
            Fraction(1, 2),
            EvaluationMode.approximate(7, Fraction(1, 3)),
            counters,
        )

    def test_equal_rules_hash_equal(self):
        md = self._md(EvalCounters(records_evaluated=5))
        twin = self._md(EvalCounters(records_evaluated=5))
        assert md == twin and hash(md) == hash(twin)
        assert len({md, twin}) == 1
        assert self._md(EvalCounters(records_evaluated=5), Fraction(1, 5)) != md

    def test_counters_compared_but_not_hashed(self):
        # the rules of one run share one mutable counters object, so a change
        # to it must not change their hash
        shared = EvalCounters(records_evaluated=5)
        md = self._md(shared)
        before = hash(md)
        shared.records_evaluated += 1
        assert hash(md) == before
        assert md != self._md(EvalCounters(records_evaluated=5))


class TestRelation:
    def test_ragged_row_rejected(self):
        with pytest.raises(ValidationError):
            Relation.from_rows(["a", "b"], [("1", "2"), ("3",)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            Relation.from_rows(["a", "a"], [("1", "2")])

    def test_column_lookup(self, contacts):
        assert contacts.column(contacts.attribute("City"))[:2] == ("Chicago", "Chicago")
        assert contacts.tuple_count == 6


class TestLevelDomain:
    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            LevelDomain(1)

    def test_level_check(self):
        d = LevelDomain(4)
        assert d.check_level(3) == 3
        with pytest.raises(ValidationError):
            d.check_level(4)


class TestToFraction:
    def test_float_reads_shortest_decimal(self):
        assert to_fraction(0.15) == Fraction(3, 20)
        assert to_fraction(0.1) == Fraction(1, 10)

    def test_string_forms(self):
        assert to_fraction("0.25") == Fraction(1, 4)
        assert to_fraction("3/20") == Fraction(3, 20)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            to_fraction(float("nan"))

    def test_digits_within_the_int_string_limit(self):
        limit = sys.get_int_max_str_digits()
        assert to_fraction(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
        assert to_fraction(f"1E+{limit - 1}") == 10 ** (limit - 1)
        # a result with more digits could not be printed back
        for text in (f"1e-{limit}", f"1e{limit}", f"3.1e-{limit - 1}", "1" * (limit + 1)):
            with pytest.raises(ValidationError):
                to_fraction(text, "x")

    @pytest.mark.parametrize("text", ["1e-9999999", "1e+9999999", "2E-99999999999999999999"])
    def test_huge_exponent_rejected_before_expanding_it(self, text):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="digits"):
            to_fraction(text, "x")
        assert time.perf_counter() - start < 0.1


class TestDiscoveryRequest:
    def _request(self, **overrides):
        kwargs = dict(
            lhs=A[:2],
            rhs=A[2:3],
            rhs_pattern=ThresholdPattern.of({A[2]: 5}),
            min_support="0.05",
            min_confidence="0.6",
            algorithm="ea",
            epsilon=None,
        )
        kwargs.update(overrides)
        return DiscoveryRequest.build(**kwargs)

    def test_valid_request(self):
        req = self._request()
        assert req.algorithm is Algorithm.EA
        assert req.min_support == Fraction(1, 20)

    def test_zero_support_rejected(self):
        with pytest.raises(ValidationError):
            self._request(min_support=0)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValidationError):
            self._request(rhs=A[1:2], rhs_pattern=ThresholdPattern.of({A[1]: 5}))

    def test_rhs_pattern_must_cover_rhs(self):
        with pytest.raises(SchemaMismatchError):
            self._request(rhs_pattern=ThresholdPattern.of({A[3]: 5}))

    def test_epsilon_required_for_approximate(self):
        with pytest.raises(ValidationError):
            self._request(algorithm="ap")

    @pytest.mark.parametrize("algorithm", ["ea", "eps", "epsc"])
    def test_epsilon_rejected_for_exact(self, algorithm):
        # an exact run would ignore the bound, so a request carrying one is
        # refused rather than echoed beside an exact mode
        with pytest.raises(ValidationError, match="exact and takes no epsilon"):
            self._request(algorithm=algorithm, epsilon="0.3")

    def test_epsilon_range(self):
        # 0 < eps < 1 - min_confidence
        self._request(algorithm="ap", epsilon="0.3")
        with pytest.raises(ValidationError):
            self._request(algorithm="ap", epsilon="0.4")  # 1 - 0.6 = 0.4 not allowed
        with pytest.raises(ValidationError):
            self._request(algorithm="ap", epsilon=0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            Algorithm.parse("quantum")
