"""Candidate threshold patterns in dominance-respecting order.

A pattern dominates another when it is componentwise lower or equal; lower
patterns are satisfied by at least the records of higher ones, so they are
enumerated first (layers of nondecreasing level sum, lexicographic within a
layer). Pruning keeps one boolean mask over the d^m grid: recording a failed
pattern marks its whole upper set with a single slice assignment, so checking
a candidate is one lookup.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import CandidateBudgetError, ContractViolationError, SchemaMismatchError, ValidationError
from .model import AttributeId, LevelDomain, ThresholdPattern

DEFAULT_CANDIDATE_BUDGET = 10_000_000


def dominates(first: ThresholdPattern, second: ThresholdPattern) -> bool:
    """Componentwise <= over the shared attribute set."""
    if first.attributes != second.attributes:
        raise SchemaMismatchError("dominance needs patterns over the same attribute set")
    return all(l1 <= second.level_of(a) for a, l1 in first.items())


def _layer(m: int, max_level: int, total: int) -> Iterator[tuple[int, ...]]:
    """All m-tuples with entries in 0..max_level summing to total, lexicographic."""
    if m == 1:
        if 0 <= total <= max_level:
            yield (total,)
        return
    lo = max(0, total - (m - 1) * max_level)
    hi = min(max_level, total)
    for first in range(lo, hi + 1):
        for rest in _layer(m - 1, max_level, total - first):
            yield (first,) + rest


def _upper_set(levels: Sequence[int]) -> tuple[slice, ...]:
    """Index of every cell componentwise >= ``levels`` in a d^m grid."""
    return tuple(slice(l, None) for l in levels)


def _level_tuples(m: int, max_level: int) -> Iterator[tuple[int, ...]]:
    for total in range(m * max_level + 1):
        yield from _layer(m, max_level, total)


class CandidateLattice:
    """The candidate set dom(X) for one discovery run.

    Iteration yields every one of the d^m patterns unless dominance pruning
    removed it first. Instances are single-use: pruning state accumulates, so
    a second scan would silently skip candidates. Create a fresh lattice per
    run. The pruning mask holds one byte per candidate, so the candidate
    budget bounds it as well.
    """

    def __init__(
        self,
        attributes: Sequence[AttributeId],
        domain: LevelDomain,
        candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
    ) -> None:
        attributes = tuple(attributes)
        if not attributes:
            raise ValidationError("candidate lattice needs at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise ValidationError("duplicate attributes in lattice")
        count = domain.d ** len(attributes)
        if count > candidate_budget:
            raise CandidateBudgetError(
                f"candidate space d^m = {domain.d}^{len(attributes)} = {count} exceeds "
                f"the budget of {candidate_budget}; reduce the level count d or the "
                "number of lhs attributes, or raise --candidate-budget"
            )
        self.attributes = attributes
        self.domain = domain
        self.candidate_count = count
        self._pruned = np.zeros((domain.d,) * len(attributes), dtype=bool)
        self._scanning = False

    def pattern(self, levels: Sequence[int]) -> ThresholdPattern:
        return ThresholdPattern.over(self.attributes, tuple(levels))

    def is_pruned(self, levels: tuple[int, ...]) -> bool:
        return bool(self._pruned[levels])

    def record_failure(self, levels: tuple[int, ...]) -> None:
        """Register a fully evaluated pattern that missed the support minimum:
        it and every pattern it dominates count as pruned from now on."""
        self._pruned[_upper_set(levels)] = True

    def iter_levels(self, *, skip_pruned: bool = False) -> Iterator[tuple[int, ...]]:
        """Raw level tuples in dominance order (the fast path for algorithms)."""
        if self._scanning:
            raise ContractViolationError(
                "lattice already scanned once; create a fresh CandidateLattice per run"
            )
        self._scanning = True
        for levels in _level_tuples(len(self.attributes), self.domain.max_level):
            if skip_pruned and self.is_pruned(levels):
                continue
            yield levels

    def __iter__(self) -> Iterator[ThresholdPattern]:
        return (self.pattern(levels) for levels in self.iter_levels())

    def prune_dominated_by(self, pattern: ThresholdPattern) -> int:
        """Mark every candidate strictly dominated by ``pattern`` as pruned and
        return how many were newly marked.

        Strict dominatees have a larger level sum, so none of them can have
        been yielded yet. The discovery algorithms use ``record_failure`` and
        derive pruned totals arithmetically instead.
        """
        if pattern.attributes != self.attributes:
            raise SchemaMismatchError("pattern is not over this lattice's attributes")
        levels = tuple(pattern.level_of(a) for a in self.attributes)
        for level in levels:
            self.domain.check_level(level)
        upper = self._pruned[_upper_set(levels)]
        # the pattern's own cell is the first of its upper set
        newly = upper.size - int(np.count_nonzero(upper)) - (not upper.flat[0])
        self.record_failure(levels)
        return newly


def enumerate_in_dominance_order(
    attributes: Sequence[AttributeId],
    domain: LevelDomain,
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> Iterator[ThresholdPattern]:
    """All of dom(X) in the lattice's dominance-respecting order."""
    lattice = CandidateLattice(attributes, domain, candidate_budget)
    return iter(lattice)
