"""Candidate threshold patterns in dominance-respecting order.

A pattern dominates another when it is componentwise lower or equal; lower
patterns are satisfied by at least the records of higher ones, so they are
enumerated first (layers of nondecreasing level sum, lexicographic within a
layer). Pruning keeps one boolean mask over the d^m grid, made on first use:
recording a failed pattern marks its whole upper set with a single slice
assignment, so checking a candidate is one lookup.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import CandidateBudgetError, ContractViolationError, ValidationError
from .model import AttributeId, LevelDomain

DEFAULT_CANDIDATE_BUDGET = 10_000_000


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


def _level_tuples(m: int, max_level: int) -> Iterator[tuple[int, ...]]:
    for total in range(m * max_level + 1):
        yield from _layer(m, max_level, total)


class CandidateLattice:
    """The candidate set dom(X) for one discovery run.

    Iteration yields every one of the d^m patterns unless dominance pruning
    removed it first. Instances are single-use: pruning state accumulates, so
    a second scan would silently skip candidates. Create a fresh lattice per
    run. The engines read just its attributes, domain and size: they count
    every candidate at once from upper-set cubes. Only the benchmark harness
    and the tests walk and prune it, so the pruning mask, one byte per
    candidate and bounded by the candidate budget as well, is allocated on
    first use.
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
        self._scanning = False

    @cached_property
    def _pruned(self) -> np.ndarray:
        return np.zeros((self.domain.d,) * len(self.attributes), dtype=bool)

    def is_pruned(self, levels: tuple[int, ...]) -> bool:
        return bool(self._pruned[levels])

    def record_failure(self, levels: tuple[int, ...]) -> None:
        """Register a fully evaluated pattern that missed the support minimum:
        it and every pattern it dominates count as pruned from now on."""
        # the upper set: every cell componentwise >= levels
        self._pruned[tuple(slice(l, None) for l in levels)] = True

    def iter_levels(self, *, skip_pruned: bool = False) -> Iterator[tuple[int, ...]]:
        """Level tuples in dominance order, pruned ones skipped on request."""
        if self._scanning:
            raise ContractViolationError(
                "lattice already scanned once; create a fresh CandidateLattice per run"
            )
        self._scanning = True
        for levels in _level_tuples(len(self.attributes), self.domain.max_level):
            if skip_pruned and self.is_pruned(levels):
                continue
            yield levels
