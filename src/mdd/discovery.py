"""The discovery algorithms, all one prefix scan over the candidate lattice.

The approximate engines evaluate each candidate over the first k records of
the probability-sorted distribution and bound the mass of the rest; the exact
engines are the same scan with k = n. Each engine sets up the scan and picks
where a candidate stops. ea reads every record for every candidate; eps adds
dominance pruning by support; epsc, over a distribution grouped by the rhs
pattern, also stops a candidate where its running confidence drops below the
minimum. ap and aps are ea and eps over the first k records (k from
compute_prefix_k); api and apsi add a per-candidate stop once the unseen mass
is within the candidate's own bound.

Decision arithmetic is exact: support thresholds become integer count minimums
(count >= ceil(min_support * pair_total)) and confidence checks cross-multiply
integer counts against the exact rational threshold, so no candidate flips on
floating-point noise at a boundary. The per-candidate record scans are
evaluated with vectorized cumulative sums, but every early-termination index
and every reported counter equals what the sequential formulation would do,
record by record.
"""

from __future__ import annotations

from bisect import bisect_left
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
    strip_zero_levels,
    to_fraction,
    validate_thresholds,
)

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

    def accepts(self, joint: int, lhs: int) -> bool:
        # min_support_count >= 1, so an accepted candidate has lhs >= joint > 0
        eta = self.min_confidence
        return joint >= self.min_support_count and joint * eta.denominator >= eta.numerator * lhs

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
# The prefix scan
# ---------------------------------------------------------------------------

# A stop rule reads one candidate's record mask over the scanned prefix and
# returns (records scanned, joint count, lhs count, rejected by confidence).
_StopRule = Callable[[np.ndarray], tuple[int, int, int, bool]]


def _scan(
    run: _Run,
    *,
    prune: bool,
    bound: ApproxBound | None = None,
    stop: _StopRule | None = None,
) -> list[DiscoveredMd]:
    """Evaluate the candidates over the first k records: k from the
    approximation ``bound``, or k = n for the exact engines, which pass none.
    Without a stop rule every candidate reads the whole prefix. Only a
    candidate that read the whole prefix and missed the support minimum
    prunes: prefix joint mass only shrinks up the lattice, so every candidate
    it dominates misses as well, under any stop."""
    if bound is None:
        k, mode = run.dist.n, EvaluationMode.exact()
    else:
        k, mode = bound.prefix_k, EvaluationMode.approximate(bound.prefix_k, bound.epsilon)
    counts = run.dist.counts[:k]
    levels = run.dist.levels[:k]
    joint_counts = np.where(run.rhs_mask[:k], counts, 0)
    accepted = []
    for cand in run.lattice.iter_levels(skip_pruned=prune):
        run.counters.candidates_evaluated += 1
        mask = run.candidate_mask(levels, cand)
        if stop is None:
            scanned, rejected = k, False
            joint, lhs = int(joint_counts[mask].sum()), int(counts[mask].sum())
        else:
            scanned, joint, lhs, rejected = stop(mask)
        run.counters.records_evaluated += scanned
        if rejected:
            run.counters.candidates_pruned_confidence += 1
        elif run.accepts(joint, lhs):
            accepted.append((cand, joint, lhs))
        if prune and scanned == k and joint < run.min_support_count:
            run.lattice.record_failure(cand)
    return run.finish(accepted, mode)


def _confidence_drop(run: _Run, pivot: int) -> _StopRule:
    """epsc's stop over a distribution grouped for the rhs pattern, whose
    first ``pivot`` records satisfy it. Over that order the running
    confidence never rises, so the candidate is rejected at the first record
    where it drops below the minimum. The scan stops at that record if the
    support minimum is met; otherwise it keeps counting so that the failure
    can prune."""
    counts = run.dist.counts
    n = run.dist.n
    eta_num = run.min_confidence.numerator
    eta_den = run.min_confidence.denominator

    def stop(mask: np.ndarray) -> tuple[int, int, int, bool]:
        cum_lhs = np.cumsum(np.where(mask, counts, 0))
        lhs = int(cum_lhs[-1])
        # Past the pivot no record satisfies the rhs pattern, so the joint
        # mass is already final there.
        joint = int(cum_lhs[pivot - 1]) if pivot > 0 else 0
        # The first record where lhs mass exceeds joint/eta_c; positions with
        # zero lhs mass have undefined confidence and never trigger.
        reject_at = joint * eta_den // eta_num + 1
        if reject_at > lhs:
            return n, joint, lhs, False
        drop = int(np.searchsorted(cum_lhs, reject_at))
        return (drop + 1 if joint >= run.min_support_count else n), joint, lhs, True

    return stop


def _individual_bound(run: _Run, bound: ApproxBound) -> _StopRule:
    """api's stop: the first record where the unseen mass is within the
    candidate's own bound (suffix <= factor * lhs mass so far), else the end
    of the prefix. The left side only falls and the right side only grows, so
    a binary search with exact integer probes finds it."""
    k = bound.prefix_k
    counts = run.dist.counts[:k]
    joint_counts = np.where(run.rhs_mask[:k], counts, 0)
    cum_all = np.cumsum(run.dist.counts)
    suffix = (int(cum_all[-1]) - cum_all)[:k]
    factor = _bound_factor(bound.epsilon, run.min_confidence)
    f_num, f_den = factor.numerator, factor.denominator

    def stop(mask: np.ndarray) -> tuple[int, int, int, bool]:
        cum_lhs = np.cumsum(np.where(mask, counts, 0))
        last = bisect_left(
            range(k - 1), True, key=lambda i: int(suffix[i]) * f_den <= f_num * int(cum_lhs[i])
        )
        joint = int(joint_counts[: last + 1][mask[: last + 1]].sum())
        return last + 1, joint, int(cum_lhs[last]), False

    return stop


# ---------------------------------------------------------------------------
# Prefix bound
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


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


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
    run = _new_run(dist, lattice, rhs_pattern, min_support, min_confidence, counters)
    return _scan(run, prune=False)


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
    run = _new_run(dist, lattice, rhs_pattern, min_support, min_confidence, counters)
    return _scan(run, prune=True)


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
    marker = dist.rhs_group
    if marker is None:
        raise ContractViolationError(
            "epsc needs a distribution prepared by group_by_rhs for this rhs pattern"
        )
    if marker[0] != rhs_pattern:
        raise ContractViolationError(
            "distribution was grouped for a different rhs pattern; regroup it"
        )
    run = _new_run(dist, lattice, rhs_pattern, min_support, min_confidence, counters)
    return _scan(run, prune=True, stop=_confidence_drop(run, marker[1]))


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
    run = _new_run(dist_sorted, lattice, rhs_pattern, min_support, min_confidence, counters)
    bound = compute_prefix_k(dist_sorted, epsilon, run.min_support, run.min_confidence)
    return _scan(run, prune=False, bound=bound)


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
    run = _new_run(dist_sorted, lattice, rhs_pattern, min_support, min_confidence, counters)
    bound = compute_prefix_k(dist_sorted, epsilon, run.min_support, run.min_confidence)
    return _scan(run, prune=False, bound=bound, stop=_individual_bound(run, bound))


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
    run = _new_run(dist_sorted, lattice, rhs_pattern, min_support, min_confidence, counters)
    bound = compute_prefix_k(dist_sorted, epsilon, run.min_support, run.min_confidence)
    return _scan(run, prune=True, bound=bound)


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
    run = _new_run(dist_sorted, lattice, rhs_pattern, min_support, min_confidence, counters)
    bound = compute_prefix_k(dist_sorted, epsilon, run.min_support, run.min_confidence)
    return _scan(run, prune=True, bound=bound, stop=_individual_bound(run, bound))


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
