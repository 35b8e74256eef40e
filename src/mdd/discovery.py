"""The discovery algorithms: exact scans (ea), dominance pruning by support
(eps), combined support/confidence pruning over a grouped distribution (epsc),
and the prefix approximations with a relative error bound (ap, api) plus their
support-pruned combinations (aps, apsi).

Decision arithmetic is exact: support thresholds become integer count minimums
(count >= ceil(min_support * pair_total)) and confidence checks cross-multiply
integer counts against the exact rational threshold, so no candidate flips on
floating-point noise at a boundary. The per-candidate record scans are
evaluated with vectorized cumulative sums, but every early-termination index
and every reported counter equals what the sequential formulation would do,
record by record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .distribution import group_by_rhs, pattern_mask, sort_by_probability_desc
from .errors import ContractViolationError, ValidationError
from .lattice import DEFAULT_CANDIDATE_BUDGET, CandidateLattice
from .model import (
    Algorithm,
    DiscoveredMd,
    DiscoveryRequest,
    EvalCounters,
    EvaluationMode,
    RationalLike,
    StatDistribution,
    ThresholdPattern,
    satisfies,
    strip_zero_levels,
    to_fraction,
    validate_thresholds,
)

# ---------------------------------------------------------------------------
# Accumulators (the sequential reference semantics)
# ---------------------------------------------------------------------------


@dataclass
class CandidateAccumulator:
    """Running masses of one candidate while records stream past.

    ``joint_count`` accumulates records satisfying both the candidate and the
    rhs pattern, ``lhs_count`` those satisfying the candidate alone. Both are
    nondecreasing and joint_count <= lhs_count always.
    """

    pair_total: int
    joint_count: int = 0
    lhs_count: int = 0
    records_seen: int = 0

    def absorb(self, count: int, sat_lhs: bool, sat_rhs: bool) -> None:
        self.records_seen += 1
        if sat_lhs:
            self.lhs_count += count
            if sat_rhs:
                self.joint_count += count

    @property
    def joint_mass(self) -> Fraction:
        return Fraction(self.joint_count, self.pair_total)

    @property
    def lhs_mass(self) -> Fraction:
        return Fraction(self.lhs_count, self.pair_total)


def support_of(acc: CandidateAccumulator) -> Fraction:
    return acc.joint_mass


def confidence_of(acc: CandidateAccumulator) -> Fraction:
    """Joint over lhs mass; 0 when nothing satisfies the candidate (such a
    candidate has zero support and can never qualify anyway)."""
    if acc.lhs_count == 0:
        return Fraction(0)
    return Fraction(acc.joint_count, acc.lhs_count)


def fold_candidate(
    dist: StatDistribution,
    lhs_pattern: ThresholdPattern,
    rhs_pattern: ThresholdPattern,
    upto: int | None = None,
) -> CandidateAccumulator:
    """Plain record-by-record fold. The vectorized paths must agree with this
    on every prefix; tests hold them to it."""
    acc = CandidateAccumulator(pair_total=dist.pair_total)
    stop = dist.n if upto is None else upto
    for i in range(stop):
        rec = dist.record_at(i)
        acc.absorb(rec.count, satisfies(rec, lhs_pattern), satisfies(rec, rhs_pattern))
    return acc


# ---------------------------------------------------------------------------
# Shared run setup
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    dist: StatDistribution
    lattice: CandidateLattice
    rhs_pattern: ThresholdPattern
    min_support: Fraction
    min_confidence: Fraction
    counters: EvalCounters
    x_cols: tuple[int, ...] = field(init=False)
    rhs_mask: np.ndarray = field(init=False)
    min_support_count: int = field(init=False)

    def __post_init__(self) -> None:
        if set(self.lattice.attributes) & set(self.rhs_pattern.attributes):
            raise ValidationError("lhs and rhs attribute sets must be disjoint")
        validate_thresholds(self.min_support, self.min_confidence)
        self.x_cols = tuple(self.dist.column_index(a) for a in self.lattice.attributes)
        self.rhs_mask = pattern_mask(self.dist, self.rhs_pattern)
        num, den = self.min_support.numerator, self.min_support.denominator
        self.min_support_count = -((-num * self.dist.pair_total) // den)
        self.counters.candidates_total = self.lattice.candidate_count

    def candidate_mask(self, levels: np.ndarray, cand: tuple[int, ...]) -> np.ndarray:
        mask: np.ndarray | None = None
        for col, threshold in zip(self.x_cols, cand):
            if threshold:
                hit = levels[:, col] >= threshold
                mask = hit if mask is None else (mask & hit)
        if mask is None:
            return np.ones(levels.shape[0], dtype=bool)
        return mask

    def meets_confidence(self, joint: int, lhs: int) -> bool:
        if lhs == 0:
            return False
        eta = self.min_confidence
        return joint * eta.denominator >= eta.numerator * lhs

    def accepts(self, joint: int, lhs: int) -> bool:
        return joint >= self.min_support_count and self.meets_confidence(joint, lhs)

    def finish(
        self,
        accepted: list[tuple[tuple[int, ...], int, int]],
        mode: EvaluationMode,
    ) -> list[DiscoveredMd]:
        self.counters.candidates_pruned_support = (
            self.counters.candidates_total - self.counters.candidates_evaluated
        )
        results = []
        for cand, joint, lhs in sorted(accepted):
            pattern = strip_zero_levels(
                ThresholdPattern.over(self.lattice.attributes, cand)
            )
            results.append(
                DiscoveredMd(
                    lhs_pattern=pattern,
                    rhs_pattern=self.rhs_pattern,
                    support=Fraction(joint, self.dist.pair_total),
                    confidence=Fraction(joint, lhs),
                    mode=mode,
                    counters=self.counters,
                )
            )
        return results


def _new_run(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    counters: EvalCounters | None,
) -> _Run:
    return _Run(
        dist,
        lattice,
        rhs_pattern,
        to_fraction(min_support, "min_support"),
        to_fraction(min_confidence, "min_confidence"),
        counters if counters is not None else EvalCounters(),
    )


# ---------------------------------------------------------------------------
# Exact algorithms
# ---------------------------------------------------------------------------


def _exact_scan(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    counters: EvalCounters | None,
    *,
    prune: bool,
    early_confidence: bool,
) -> list[DiscoveredMd]:
    if early_confidence:
        marker = dist.rhs_group
        if marker is None:
            raise ContractViolationError(
                "epsc needs a distribution prepared by group_by_rhs for this rhs pattern"
            )
        if marker[0] != rhs_pattern:
            raise ContractViolationError(
                "distribution was grouped for a different rhs pattern; regroup it"
            )
        pivot = marker[1]
    run = _new_run(dist, lattice, rhs_pattern, min_support, min_confidence, counters)
    counts = dist.counts
    n = dist.n
    joint_counts = np.where(run.rhs_mask, counts, 0)
    eta_num = run.min_confidence.numerator
    eta_den = run.min_confidence.denominator
    accepted = []
    for cand in lattice.iter_levels(skip_pruned=prune):
        run.counters.candidates_evaluated += 1
        mask = run.candidate_mask(dist.levels, cand)
        if early_confidence:
            cum_lhs = np.cumsum(np.where(mask, counts, 0))
            lhs = int(cum_lhs[-1])
            # Past the pivot no record satisfies the rhs pattern, so the joint
            # mass is already final there.
            joint = int(cum_lhs[pivot - 1]) if pivot > 0 else 0
            # Running confidence drops below the minimum at the first record
            # where lhs mass exceeds joint/eta_c; positions with zero lhs mass
            # have undefined confidence and never trigger.
            reject_at = joint * eta_den // eta_num + 1
            drop = n if reject_at > lhs else int(np.searchsorted(cum_lhs, reject_at))
        else:
            joint = int(joint_counts[mask].sum())
            lhs = int(counts[mask].sum())
            drop = n
        supported = joint >= run.min_support_count
        if drop < n:
            run.counters.candidates_pruned_confidence += 1
        # A confidence-rejected candidate stops at the drop if its support is
        # already met; otherwise it keeps counting so its failure can prune.
        run.counters.records_evaluated += (drop + 1) if drop < n and supported else n
        if not supported:
            if prune:
                lattice.record_failure(cand)
        elif drop == n and run.meets_confidence(joint, lhs):
            accepted.append((cand, joint, lhs))
    return run.finish(accepted, EvaluationMode.exact())


def ea(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """Evaluate every candidate against every record. The baseline the pruned
    and approximate variants are measured against."""
    return _exact_scan(
        dist, lattice, rhs_pattern, min_support, min_confidence,
        counters, prune=False, early_confidence=False,
    )


def eps(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """ea plus dominance pruning: once a candidate's support falls short, every
    candidate it dominates is skipped. Support only shrinks going up the
    lattice, so the returned set is identical to ea's."""
    return _exact_scan(
        dist, lattice, rhs_pattern, min_support, min_confidence,
        counters, prune=True, early_confidence=False,
    )


def epsc(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """Support pruning plus early confidence termination.

    Requires a distribution grouped for this rhs pattern (rhs-satisfying
    records first). Over that order the running confidence of any candidate is
    nonincreasing, so the moment it drops below the minimum the candidate is
    rejected for good. The scan then stops immediately if the support
    accumulated so far already meets the minimum; otherwise it keeps counting
    (joint mass no longer grows past the pivot) so the final support is known
    and dominated candidates can be pruned soundly.
    """
    return _exact_scan(
        dist, lattice, rhs_pattern, min_support, min_confidence,
        counters, prune=True, early_confidence=True,
    )


# ---------------------------------------------------------------------------
# Prefix approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxBound:
    """The global prefix cutoff for one approximate run.

    ``bound`` is min(eps*eta_s, eps*eta_s*eta_c/(1-eps-eta_c)); ``prefix_k``
    is the smallest prefix length whose suffix mass does not exceed it, and
    ``suffix_mass`` is that remaining mass.
    """

    epsilon: Fraction
    min_support: Fraction
    min_confidence: Fraction
    bound: Fraction
    suffix_mass: Fraction
    prefix_k: int


def _bound_factor(epsilon: Fraction, min_confidence: Fraction) -> Fraction:
    """eps * min(1, eta_c / (1 - eps - eta_c)); multiplying by a mass floor
    turns it into the full suffix bound."""
    remainder = 1 - epsilon - min_confidence
    return epsilon * min(Fraction(1), min_confidence / remainder)


def _require_sorted(dist: StatDistribution) -> None:
    if dist.n > 1 and not bool(np.all(np.diff(dist.counts) <= 0)):
        raise ContractViolationError(
            "distribution must be sorted by nonincreasing probability; "
            "use sort_by_probability_desc first"
        )


def compute_prefix_k(
    dist_sorted: StatDistribution,
    epsilon: RationalLike,
    min_support: RationalLike,
    min_confidence: RationalLike,
) -> ApproxBound:
    """Smallest k such that the probability mass beyond the first k records is
    within the approximation bound. Always exists: the suffix past record n is
    empty."""
    eps = to_fraction(epsilon, "epsilon")
    eta_s = to_fraction(min_support, "min_support")
    eta_c = to_fraction(min_confidence, "min_confidence")
    validate_thresholds(eta_s, eta_c, eps)
    _require_sorted(dist_sorted)

    bound = eta_s * _bound_factor(eps, eta_c)
    pair_total = dist_sorted.pair_total
    # suffix_count(k) <= bound * pair_total, compared in exact integers
    limit = bound.numerator * pair_total // bound.denominator
    cum = np.cumsum(dist_sorted.counts)
    suffix = int(cum[-1]) - cum
    k0 = int(np.argmax(suffix <= limit))  # suffix is nonincreasing
    return ApproxBound(
        epsilon=eps,
        min_support=eta_s,
        min_confidence=eta_c,
        bound=bound,
        suffix_mass=Fraction(int(suffix[k0]), pair_total),
        prefix_k=k0 + 1,
    )


def _approx_scan(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike,
    counters: EvalCounters | None,
    *,
    individual: bool,
    prune: bool,
) -> list[DiscoveredMd]:
    run = _new_run(dist, lattice, rhs_pattern, min_support, min_confidence, counters)
    bound = compute_prefix_k(dist, epsilon, run.min_support, run.min_confidence)
    k = bound.prefix_k
    mode = EvaluationMode.approximate(k, bound.epsilon)

    levels_k = dist.levels[:k]
    counts_k = dist.counts[:k]
    rhs_mask_k = run.rhs_mask[:k]
    joint_counts_k = np.where(rhs_mask_k, counts_k, 0)

    if individual:
        cum_all = np.cumsum(dist.counts)
        suffix_k = (int(cum_all[-1]) - cum_all)[:k]
        factor = _bound_factor(bound.epsilon, run.min_confidence)
        f_num, f_den = factor.numerator, factor.denominator

    accepted = []
    for cand in lattice.iter_levels(skip_pruned=prune):
        run.counters.candidates_evaluated += 1
        mask = run.candidate_mask(levels_k, cand)
        if individual:
            cum_lhs = np.cumsum(np.where(mask, counts_k, 0))
            cum_joint = np.cumsum(np.where(mask, joint_counts_k, 0))
            stop = _individual_stop(suffix_k, cum_lhs, f_num, f_den, k)
            joint = int(cum_joint[stop])
            lhs = int(cum_lhs[stop])
            run.counters.records_evaluated += stop + 1
            full_prefix = stop == k - 1
            full_joint = int(cum_joint[-1])
        else:
            joint = int(joint_counts_k[mask].sum())
            lhs = int(counts_k[mask].sum())
            run.counters.records_evaluated += k
            full_prefix = True
            full_joint = joint
        if run.accepts(joint, lhs):
            accepted.append((cand, joint, lhs))
        if prune and full_prefix and full_joint < run.min_support_count:
            # Prefix joint mass only shrinks up the lattice, so every
            # dominated candidate fails the support minimum under any stop
            # index as well. Candidates that broke off early never observe
            # the full-prefix mass and must not prune.
            lattice.record_failure(cand)
    return run.finish(accepted, mode)


def _individual_stop(
    suffix: np.ndarray, cum_lhs: np.ndarray, f_num: int, f_den: int, k: int
) -> int:
    """First index where the remaining mass is within the candidate's own
    bound (suffix <= factor * lhs mass), or k-1 if that never happens.

    The left side only falls and the right side only grows, so the predicate
    is monotone and a binary search with exact integer probes suffices.
    """

    def holds(i: int) -> bool:
        return int(suffix[i]) * f_den <= f_num * int(cum_lhs[i])

    if not holds(k - 1):
        return k - 1
    lo, hi = 0, k - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def ap(
    dist_sorted: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """Evaluate candidates on the first k records only (k from
    compute_prefix_k); reported measures are the prefix approximations."""
    return _approx_scan(
        dist_sorted, lattice, rhs_pattern, min_support, min_confidence, epsilon,
        counters, individual=False, prune=False,
    )


def api(
    dist_sorted: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """ap with per-candidate early termination: a candidate's scan stops as
    soon as the unseen mass is within its own dynamically shrinking bound.
    Never scans past record k."""
    return _approx_scan(
        dist_sorted, lattice, rhs_pattern, min_support, min_confidence, epsilon,
        counters, individual=True, prune=False,
    )


def aps(
    dist_sorted: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """ap plus dominance pruning on the approximate support."""
    return _approx_scan(
        dist_sorted, lattice, rhs_pattern, min_support, min_confidence, epsilon,
        counters, individual=False, prune=True,
    )


def apsi(
    dist_sorted: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """api plus dominance pruning on the approximate support of candidates
    that scanned the whole prefix."""
    return _approx_scan(
        dist_sorted, lattice, rhs_pattern, min_support, min_confidence, epsilon,
        counters, individual=True, prune=True,
    )


# ---------------------------------------------------------------------------
# Request dispatch
# ---------------------------------------------------------------------------


_ENGINES: dict[Algorithm, Callable[..., list[DiscoveredMd]]] = {
    Algorithm.EA: ea,
    Algorithm.EPS: eps,
    Algorithm.EPSC: epsc,
    Algorithm.AP: ap,
    Algorithm.API: api,
    Algorithm.APS: aps,
    Algorithm.APSI: apsi,
}


def prepare_distribution(
    dist: StatDistribution, request: DiscoveryRequest
) -> StatDistribution:
    """Reorder the distribution the way the requested algorithm needs it."""
    algo = request.algorithm
    if algo == Algorithm.EPSC:
        marker = dist.rhs_group
        if marker is not None and marker[0] == request.rhs_pattern:
            return dist
        grouped, _ = group_by_rhs(dist, request.rhs_pattern)
        return grouped
    if algo.is_approximate:
        if dist.probability_sorted:
            return dist
        return sort_by_probability_desc(dist)
    return dist


def run_request(
    dist: StatDistribution,
    request: DiscoveryRequest,
    *,
    candidate_budget: int | None = None,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """Validate the request, prepare the distribution, and run the selected
    algorithm over a fresh candidate lattice."""
    request.validate()
    prepared = prepare_distribution(dist, request)
    lattice = CandidateLattice(
        request.lhs,
        dist.domain,
        DEFAULT_CANDIDATE_BUDGET if candidate_budget is None else candidate_budget,
    )
    args = [prepared, lattice, request.rhs_pattern, request.min_support, request.min_confidence]
    if request.algorithm.is_approximate:
        args.append(request.epsilon)
    return _ENGINES[request.algorithm](*args, counters=counters)
