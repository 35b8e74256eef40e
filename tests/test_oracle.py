"""Brute-force reference measures and ground-truth discovery.

The contact-table expectations below were worked out by hand over all 15
pairs (word-token cosine, d=10) before the engine existed; they freeze the
oracle itself.
"""

import random
from fractions import Fraction

import pytest

from mdd import (
    CandidateBudgetError,
    InsufficientDataError,
    LevelDomain,
    Relation,
    ThresholdPattern,
    oracle_discover,
    oracle_measures,
)

from conftest import CONTACT_COLUMNS, CONTACT_ROWS, random_relation


class TestOracleMeasures:
    def test_zero_patterns_give_unit_measures(self, contacts, domain10, cosine_word):
        street, city = contacts.attribute("Street"), contacts.attribute("City")
        sup, conf = oracle_measures(
            contacts,
            [street],
            [city],
            ThresholdPattern.of({street: 0}),
            ThresholdPattern.of({city: 0}),
            cosine_word,
            domain10,
        )
        assert (sup, conf) == (1, 1)

    def test_street_to_city_hand_count(self, contacts, domain10, cosine_word):
        # Street >= 7 holds on 8 of 15 pairs; City >= 6 on 4 of those.
        street, city = contacts.attribute("Street"), contacts.attribute("City")
        sup, conf = oracle_measures(
            contacts,
            [street],
            [city],
            ThresholdPattern.of({street: 7}),
            ThresholdPattern.of({city: 6}),
            cosine_word,
            domain10,
        )
        assert sup == Fraction(4, 15)
        assert conf == Fraction(1, 2)

    def test_name_street_to_sin_hand_count(self, contacts, domain10, cosine_word):
        # No pair reaches Name >= 8 under word-token cosine (best is 7),
        # so the lhs never fires: zero support, confidence 0 by convention.
        name = contacts.attribute("Name")
        street = contacts.attribute("Street")
        sin = contacts.attribute("SIN")
        sup, conf = oracle_measures(
            contacts,
            [name, street],
            [sin],
            ThresholdPattern.of({name: 8, street: 8}),
            ThresholdPattern.of({sin: 9}),
            cosine_word,
            domain10,
        )
        assert (sup, conf) == (0, 0)

    def test_stripped_pattern_measures_match_full(self, contacts, domain10, cosine_word):
        name, street = contacts.attribute("Name"), contacts.attribute("Street")
        city = contacts.attribute("City")
        full = ThresholdPattern.of({name: 0, street: 7})
        stripped = ThresholdPattern.of({street: 7})
        rhs = ThresholdPattern.of({city: 6})
        args = (contacts, [name, street], [city])
        assert oracle_measures(*args, full, rhs, cosine_word, domain10) == oracle_measures(
            *args, stripped, rhs, cosine_word, domain10
        )


class TestOracleDiscover:
    def test_candidate_count_tiny_domain(self, contacts, cosine_word):
        street, city = contacts.attribute("Street"), contacts.attribute("City")
        domain = LevelDomain(2)
        found = oracle_discover(
            contacts, [street], [city],
            ThresholdPattern.of({city: 0}),
            "0.000001", "0.000001", cosine_word, domain,
        )
        # both candidates of dom(X) qualify under vanishing minimums
        assert len(found) == 2

    def test_full_confidence_means_no_counterexample(self, contacts, domain10, cosine_word):
        street, city = contacts.attribute("Street"), contacts.attribute("City")
        rhs = ThresholdPattern.of({city: 6})
        found = oracle_discover(
            contacts, [street], [city], rhs, Fraction(1, 15), 1, cosine_word, domain10
        )
        for pattern in found:
            sup, conf = oracle_measures(
                contacts, [street], [city], pattern, rhs, cosine_word, domain10
            )
            assert conf == 1

    def test_discover_agrees_with_per_pattern_measures(self, domain10, cosine_word):
        # the one-pass shortcut must match calling oracle_measures per pattern
        rng = random.Random(17)
        rel = random_relation(rng, n_rows=12, n_attrs=3)
        lhs = [rel.attribute("A0"), rel.attribute("A1")]
        rhs = [rel.attribute("A2")]
        domain = LevelDomain(3)
        rhs_pattern = ThresholdPattern.of({rhs[0]: 1})
        eta_s, eta_c = Fraction(1, 20), Fraction(1, 2)
        found = oracle_discover(
            rel, lhs, rhs, rhs_pattern, eta_s, eta_c, cosine_word, domain
        )
        import itertools

        expected = []
        for cand in itertools.product(range(3), repeat=2):
            pattern = ThresholdPattern.over(lhs, cand)
            sup, conf = oracle_measures(
                rel, lhs, rhs, pattern, rhs_pattern, cosine_word, domain
            )
            if sup >= eta_s and conf >= eta_c:
                from mdd import strip_zero_levels

                expected.append(strip_zero_levels(pattern))
        assert found == expected

    def test_budget_cap(self, contacts, cosine_word):
        attrs = [contacts.attribute(n) for n in ("Name", "Street", "City")]
        sin = contacts.attribute("SIN")
        with pytest.raises(CandidateBudgetError):
            oracle_discover(
                contacts, attrs, [sin],
                ThresholdPattern.of({sin: 1}),
                "0.1", "0.5", cosine_word, LevelDomain(30),
                candidate_cap=10_000,
            )

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_cannot_form_pairs(self, contacts, domain10, cosine_word, rows):
        # both references refuse the input with the same error, before any pair
        rel = Relation.from_rows(CONTACT_COLUMNS, CONTACT_ROWS[:rows])
        street, city = rel.attribute("Street"), rel.attribute("City")
        rhs = ThresholdPattern.of({city: 1})
        message = f"need at least 2 tuples to form pairs, got {rows}"
        with pytest.raises(InsufficientDataError) as discovered:
            oracle_discover(rel, [street], [city], rhs, "0.1", "0.5", cosine_word, domain10)
        with pytest.raises(InsufficientDataError) as measured:
            oracle_measures(rel, [street], [city], ThresholdPattern.of({street: 1}), rhs,
                            cosine_word, domain10)
        assert str(discovered.value) == str(measured.value) == message
