"""The candidate threshold patterns of one discovery run.

A pattern dominates another when it is componentwise lower or equal; lower
patterns are satisfied by at least the records of higher ones. A lattice
names the lhs attributes, level domain and candidate budget of an engine
run, which checks the grid's size d^m against the budget. ``iter_levels``
lists the candidates in a dominance-respecting order (layers of
nondecreasing level sum, lexicographic within a layer).
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
    """The candidate set dom(X) for one discovery run: its attributes, level
    domain and the budget that an engine run checks its size d^m against."""

    def __init__(
        self,
        attributes: Sequence[AttributeId],
        domain: LevelDomain,
        candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
    ) -> None:
        self.attributes = tuple(attributes)
        self.domain = domain
        self.candidate_budget = candidate_budget

    def iter_levels(self) -> Iterator[tuple[int, ...]]:
        """Every candidate's level tuple, in dominance-respecting order."""
        return _level_tuples(len(self.attributes), self.domain.max_level)
