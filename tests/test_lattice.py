"""Candidate enumeration order, dominance, and pruning bookkeeping."""

import itertools
import random

import pytest

from mdd import (
    AttributeId,
    CandidateBudgetError,
    CandidateLattice,
    ContractViolationError,
    LevelDomain,
)

X2 = (AttributeId(0, "A"), AttributeId(1, "B"))
X1 = X2[:1]


def _pruned(lat, d):
    return {c for c in itertools.product(range(d), repeat=2) if lat.is_pruned(c)}


class TestDominates:
    """A recorded failure prunes exactly the patterns it dominates
    (componentwise lower or equal)."""

    def _prunes(self, failed, other):
        lat = CandidateLattice(X2, LevelDomain(6))
        lat.record_failure(failed)
        return lat.is_pruned(other)

    def test_componentwise(self):
        assert self._prunes((2, 3), (2, 5))

    def test_reflexive(self):
        assert self._prunes((1, 4), (1, 4))

    def test_incomparable(self):
        assert not self._prunes((3, 1), (2, 5))
        assert not self._prunes((2, 5), (3, 1))


class TestEnumerationOrder:
    def test_single_attribute_chain(self):
        order = list(CandidateLattice(X1, LevelDomain(3)).iter_levels())
        assert order == [(0,), (1,), (2,)]

    def test_two_by_two(self):
        order = list(CandidateLattice(X2, LevelDomain(2)).iter_levels())
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_first_is_all_zero(self):
        first = next(CandidateLattice(X2, LevelDomain(5)).iter_levels())
        assert first == (0, 0)

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2), (4, 3), (3, 3)])
    def test_exhaustive_order_respects_dominance(self, d, m):
        attrs = tuple(AttributeId(i, f"X{i}") for i in range(m))
        seq = list(CandidateLattice(attrs, LevelDomain(d)).iter_levels())
        assert len(seq) == d**m
        assert len(set(seq)) == d**m
        position = {cand: i for i, cand in enumerate(seq)}
        for c1, c2 in itertools.combinations(seq, 2):
            if all(a <= b for a, b in zip(c1, c2)) and c1 != c2:
                assert position[c1] < position[c2], (c1, c2)


class TestPruning:
    def test_all_zero_prunes_everything_else(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        lat.record_failure((0, 0))
        assert len(_pruned(lat, 3)) == lat.candidate_count

    def test_top_prunes_nothing(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        lat.record_failure((2, 2))
        assert _pruned(lat, 3) == {(2, 2)}

    def test_interior_upper_set(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        lat.record_failure((1, 1))
        assert _pruned(lat, 3) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_counts_only_newly_marked(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        lat.record_failure((2, 1))
        before = _pruned(lat, 3)
        assert before == {(2, 1), (2, 2)}
        # upper set of (1,1) is (1,1),(1,2),(2,1),(2,2); only two are new
        lat.record_failure((1, 1))
        assert _pruned(lat, 3) - before == {(1, 1), (1, 2)}

    def test_iteration_skips_pruned(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        seen = []
        for cand in lat.iter_levels(skip_pruned=True):
            seen.append(cand)
            if cand == (1, 0):
                lat.record_failure(cand)
        assert (1, 0) in seen
        for skipped in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
            assert skipped not in seen
        assert (0, 1) in seen and (0, 2) in seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d,m", [(4, 2), (3, 3), (6, 1)])
    def test_random_failures_skip_exactly_the_strict_upper_sets(self, d, m, seed):
        rng = random.Random(seed)
        attrs = tuple(AttributeId(i, f"X{i}") for i in range(m))
        lat = CandidateLattice(attrs, LevelDomain(d))
        yielded, failed = [], []
        for cand in lat.iter_levels(skip_pruned=True):
            yielded.append(cand)
            # a failing bottom would prune everything and test nothing
            if any(cand) and rng.random() < 0.3:
                lat.record_failure(cand)
                failed.append(cand)
        assert failed, "seed should produce at least one failure"
        grid = set(itertools.product(range(d), repeat=m))
        expected_skipped = {
            c
            for c in grid
            for f in failed
            if c != f and all(fl <= cl for fl, cl in zip(f, c))
        }
        # every yielded candidate was un-pruned at its turn, and everything
        # else was skipped precisely because some failure dominates it
        assert expected_skipped.isdisjoint(yielded)
        assert set(yielded) | expected_skipped == grid

    def test_redundant_failures_change_nothing(self):
        lat = CandidateLattice(X2, LevelDomain(4))
        lat.record_failure((1, 1))
        grid = list(itertools.product(range(4), repeat=2))
        before = [lat.is_pruned(c) for c in grid]
        lat.record_failure((2, 2))  # dominated by (1, 1), redundant
        assert [lat.is_pruned(c) for c in grid] == before


class TestBudget:
    def test_budget_exceeded(self):
        attrs = tuple(AttributeId(i, f"X{i}") for i in range(4))
        with pytest.raises(CandidateBudgetError, match="reduce"):
            CandidateLattice(attrs, LevelDomain(10), candidate_budget=9999)

    def test_budget_boundary_ok(self):
        CandidateLattice(X2, LevelDomain(10), candidate_budget=100)


class TestSingleUse:
    def test_second_scan_rejected(self):
        lat = CandidateLattice(X1, LevelDomain(3))
        list(lat.iter_levels())
        with pytest.raises(ContractViolationError):
            list(lat.iter_levels())
