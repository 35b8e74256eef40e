"""Candidate enumeration order, dominance, and the pruning rule the engines
compute in closed form over the lattice."""

import itertools
import random

import numpy as np
import pytest

from mdd import (
    AttributeId,
    CandidateBudgetError,
    CandidateLattice,
    LevelDomain,
    ValidationError,
)
from mdd.discovery import _evaluated

from conftest import holds

X2 = (AttributeId(0, "A"), AttributeId(1, "B"))
X1 = X2[:1]


def _scan(d, m, fails):
    """The sequential pruned scan: walk the lattice in its dominance order,
    skip every candidate in the strict upper set of an earlier failure, and
    fail the candidates ``fails`` picks. Returns the candidates it evaluated
    and the ones that failed."""
    attrs = tuple(AttributeId(i, f"X{i}") for i in range(m))
    evaluated, failed = [], []
    for cand in CandidateLattice(attrs, LevelDomain(d)).iter_levels():
        if any(all(f <= c for f, c in zip(fail, cand)) for fail in failed):
            continue
        evaluated.append(cand)
        if fails(cand):
            failed.append(cand)
    return evaluated, failed


def _closed_form(d, m, failed):
    """The candidates the engines evaluate when ``failed`` miss support, and
    with them their whole upper sets."""
    cells = np.array(list(itertools.product(range(d), repeat=m))).T
    misses = holds(cells, np.array(failed).reshape(-1, m).T).any(axis=0)
    evaluated = _evaluated(~misses.reshape((d,) * m))
    return {tuple(map(int, c)) for c in zip(*np.nonzero(evaluated))}


def _pruned(failed, d=3):
    """The candidates a scan of the 2-attribute lattice skips when exactly
    ``failed`` fail among those it evaluates."""
    evaluated, _ = _scan(d, 2, lambda cand: cand in failed)
    assert _closed_form(d, 2, [f for f in failed if f in evaluated]) == set(evaluated)
    return set(itertools.product(range(d), repeat=2)) - set(evaluated)


class TestDominates:
    """A pattern holds for exactly the level vectors it dominates
    (componentwise lower or equal), so a failure's upper set misses support
    with it."""

    def _prunes(self, failed, other):
        held = holds(np.array(other)[:, None], np.array(failed)[:, None])
        return bool(held[0, 0])

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

    def test_every_scan_yields_the_same_order(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        assert list(lat.iter_levels()) == list(lat.iter_levels())

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
    """The engines' closed form, a candidate is evaluated iff no immediate
    predecessor misses support, skips exactly what a sequential scan in
    ``iter_levels`` order skips."""

    def test_all_zero_prunes_everything_else(self):
        assert len(_pruned({(0, 0)})) == 3 * 3 - 1

    def test_top_prunes_nothing(self):
        assert _pruned({(2, 2)}) == set()

    def test_interior_upper_set(self):
        assert _pruned({(1, 1)}) == {(1, 2), (2, 1), (2, 2)}

    def test_iteration_skips_pruned(self):
        skipped = _pruned({(1, 0)})
        for cand in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
            assert cand in skipped
        assert {(1, 0), (0, 1), (0, 2)}.isdisjoint(skipped)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d,m", [(4, 2), (3, 3), (6, 1)])
    def test_random_failures_skip_exactly_the_strict_upper_sets(self, d, m, seed):
        rng = random.Random(seed)
        # a failing bottom would prune everything and test nothing
        yielded, failed = _scan(d, m, lambda cand: any(cand) and rng.random() < 0.3)
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
        assert _closed_form(d, m, failed) == set(yielded)

    def test_redundant_failures_change_nothing(self):
        # (2, 2) lies above (1, 1), so adding it fails nothing new
        assert _closed_form(4, 2, [(1, 1), (2, 2)]) == _closed_form(4, 2, [(1, 1)])


class TestBudget:
    def test_budget_exceeded(self):
        attrs = tuple(AttributeId(i, f"X{i}") for i in range(4))
        with pytest.raises(CandidateBudgetError, match="reduce"):
            CandidateLattice(attrs, LevelDomain(10), candidate_budget=9999)

    def test_budget_boundary_ok(self):
        CandidateLattice(X2, LevelDomain(10), candidate_budget=100)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # even a one-candidate lattice (d^m >= 1) needs a budget of 1
        with pytest.raises(ValidationError, match="at least 1"):
            CandidateLattice(X1, LevelDomain(2), candidate_budget=budget)
