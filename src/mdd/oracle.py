"""Independent brute-force reference for support and confidence.

Everything here recomputes pair similarities straight from the relation and
shares nothing with the distribution, lattice, or discovery machinery beyond
the similarity primitives, so an agreement check between the two paths is a
meaningful test. Quadratic in the relation size by design; callers cap inputs
at desk scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import CandidateBudgetError, InsufficientDataError, SchemaMismatchError
from .model import (
    AttributeId,
    LevelDomain,
    RationalLike,
    Relation,
    ThresholdPattern,
    strip_zero_levels,
    to_fraction,
)
from .simkit import MetricMap, discretize, resolve_metrics, similarity

ORACLE_CANDIDATE_CAP = 10_000


def _tuple_count(relation: Relation) -> int:
    """The relation's tuple count, which must be at least 2 to form a pair."""
    n = relation.tuple_count
    if n < 2:
        raise InsufficientDataError(f"need at least 2 tuples to form pairs, got {n}")
    return n


def _pair_levels(
    relation: Relation,
    attrs: Sequence[AttributeId],
    metrics: MetricMap,
    domain: LevelDomain,
) -> list[tuple[int, ...]]:
    per_attr = resolve_metrics(attrs, metrics)
    columns = [relation.column(a) for a in attrs]
    n = relation.tuple_count
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(
                tuple(
                    discretize(similarity(col[i], col[j], metric), domain)
                    for col, metric in zip(columns, per_attr)
                )
            )
    return out


def oracle_measures(
    relation: Relation,
    lhs: Sequence[AttributeId],
    rhs: Sequence[AttributeId],
    lhs_pattern: ThresholdPattern,
    rhs_pattern: ThresholdPattern,
    metrics: MetricMap,
    domain: LevelDomain,
) -> tuple[Fraction, Fraction]:
    """Support and confidence of one rule, counted pair by pair.

    Confidence is 0 when no pair satisfies the lhs pattern.
    """
    n = _tuple_count(relation)
    lhs, rhs = tuple(lhs), tuple(rhs)
    if not set(lhs_pattern.attributes) <= set(lhs):
        raise SchemaMismatchError("lhs_pattern mentions attributes outside lhs")
    if not set(rhs_pattern.attributes) <= set(rhs):
        raise SchemaMismatchError("rhs_pattern mentions attributes outside rhs")

    per_attr = {a: m for a, m in zip(lhs + rhs, resolve_metrics(lhs + rhs, metrics))}
    pair_total = n * (n - 1) // 2
    lhs_hits = 0
    both_hits = 0
    for i in range(n):
        row_i = relation.rows[i]
        for j in range(i + 1, n):
            row_j = relation.rows[j]
            ok_lhs = all(
                discretize(
                    similarity(row_i[a.index], row_j[a.index], per_attr[a]), domain
                )
                >= level
                for a, level in lhs_pattern.items()
            )
            if not ok_lhs:
                continue
            lhs_hits += 1
            ok_rhs = all(
                discretize(
                    similarity(row_i[a.index], row_j[a.index], per_attr[a]), domain
                )
                >= level
                for a, level in rhs_pattern.items()
            )
            if ok_rhs:
                both_hits += 1
    support = Fraction(both_hits, pair_total)
    confidence = Fraction(both_hits, lhs_hits) if lhs_hits else Fraction(0)
    return support, confidence


def oracle_discover(
    relation: Relation,
    lhs: Sequence[AttributeId],
    rhs: Sequence[AttributeId],
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    metrics: MetricMap,
    domain: LevelDomain,
    candidate_cap: int = ORACLE_CANDIDATE_CAP,
) -> list[ThresholdPattern]:
    """Ground truth for the exact algorithms: every lhs pattern in dom(X) whose
    support and confidence meet the minimums, zero levels stripped.

    One pairwise pass computes the level vectors, then each candidate is
    checked against them; this is evaluation-order equivalent to calling
    ``oracle_measures`` per candidate, just without recomputing similarities
    d^m times.
    """
    rules = _oracle_rules(
        relation, lhs, rhs, rhs_pattern, min_support, min_confidence, metrics, domain, candidate_cap
    )
    return [pattern for pattern, _, _ in rules]


def _oracle_rules(
    relation: Relation,
    lhs: Sequence[AttributeId],
    rhs: Sequence[AttributeId],
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    metrics: MetricMap,
    domain: LevelDomain,
    candidate_cap: int = ORACLE_CANDIDATE_CAP,
) -> list[tuple[ThresholdPattern, Fraction, Fraction]]:
    """``oracle_discover``'s patterns with the measures its one pass counted."""
    lhs, rhs = tuple(lhs), tuple(rhs)
    eta_s = to_fraction(min_support, "min_support")
    eta_c = to_fraction(min_confidence, "min_confidence")
    count = domain.d ** len(lhs)
    if count > candidate_cap:
        raise CandidateBudgetError(
            f"oracle candidate space {count} exceeds the desk-scale cap {candidate_cap}"
        )
    _tuple_count(relation)

    pairs = _pair_levels(relation, lhs + rhs, metrics, domain)
    pair_total = len(pairs)
    m = len(lhs)
    rhs_levels = tuple(rhs_pattern.get(a, 0) for a in rhs)

    accepted = []
    for candidate in itertools.product(range(domain.d), repeat=m):
        lhs_hits = 0
        both_hits = 0
        for vec in pairs:
            if all(vec[c] >= candidate[c] for c in range(m)):
                lhs_hits += 1
                if all(vec[m + c] >= rhs_levels[c] for c in range(len(rhs))):
                    both_hits += 1
        support = Fraction(both_hits, pair_total)
        confidence = Fraction(both_hits, lhs_hits) if lhs_hits else Fraction(0)
        if support >= eta_s and confidence >= eta_c:
            accepted.append((candidate, support, confidence))

    return [
        (strip_zero_levels(ThresholdPattern.over(lhs, c)), support, confidence)
        for c, support, confidence in accepted
    ]
