"""The discovery algorithms: prefix scans over the candidate lattice.

The approximate engines evaluate each candidate over the first k records of
the probability-sorted distribution and bound the mass of the rest; the exact
engines are the same scans with k = n. ea reads every record for every
candidate; eps adds dominance pruning by support; epsc, over a distribution
grouped by the rhs pattern, also stops a candidate where its running
confidence drops below the minimum. ap and aps are ea and eps over the first k
records (k from compute_prefix_k); api and apsi add a per-candidate stop once
the unseen mass is within the candidate's own bound.

A scan without a per-candidate stop rule (ea, eps, ap, aps, and epsc's base
pass) is one pass over an upper-set count cube: two int64 histograms of the
prefix over the lhs level grid, each turned by a reversed cumulative sum along
every axis into the joint and lhs count of every candidate, in
O(k + m * d^m) time and 16 bytes per candidate (the superset sum behind the
data cube; Gray et al., ICDE 1996). The pruned engines' work counters follow
in closed form: a candidate is evaluated iff each immediate predecessor meets
the support minimum. The stop rules stay per candidate: epsc's confidence drop
for the rejected candidates that meet support, and api/apsi's individual
bound, whose stop depends on the prefix, in a loop over the lattice.

Decision arithmetic is exact: support thresholds become integer count minimums
(count >= ceil(min_support * pair_total)) and confidence checks cross-multiply
integer counts against the exact rational threshold, so no candidate flips on
floating-point noise at a boundary. Every early-termination index and every
reported counter equals what the sequential formulation would do, record by
record.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

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
        accepted: Iterable[tuple[tuple[int, ...], int, int]],
        mode: EvaluationMode,
    ) -> list[DiscoveredMd]:
        self.counters.candidates_pruned_support = (
            self.counters.candidates_total - self.counters.candidates_evaluated
        )
        attrs = self.lattice.attributes
        # the nonzero levels in attribute-index order, as the pattern keeps them
        by_index = sorted(range(len(attrs)), key=lambda i: attrs[i].index)
        results = []
        for cand, joint, lhs in sorted(accepted):
            pattern = ThresholdPattern(tuple((attrs[i], cand[i]) for i in by_index if cand[i]))
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
# The prefix scans
# ---------------------------------------------------------------------------

# Candidates whose confidence is compared a block at a time, so the exact
# integer products never need a temporary the size of the cube.
_BLOCK = 1 << 16


def _prefix(run: _Run, bound: ApproxBound | None) -> tuple[int, EvaluationMode]:
    """The scanned prefix: k from the approximation ``bound``, or k = n for
    the exact engines, which pass none."""
    if bound is None:
        return run.dist.n, EvaluationMode.exact()
    return bound.prefix_k, EvaluationMode.approximate(bound.prefix_k, bound.epsilon)


def _upper_set_counts(run: _Run, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The joint and lhs count of every candidate over the first k records:
    two int64 cubes of shape (d,)*m indexed by the candidate's levels. Each
    record's count lands on its own level vector; a reversed cumulative sum
    along every axis then turns each cell into the total over its upper set,
    which is exactly the records that satisfy that candidate."""
    d = run.lattice.domain.d
    shape = (d,) * len(run.x_cols)
    # a level above the lattice's top satisfies every threshold the top does
    levels = np.minimum(run.dist.levels[:k][:, run.x_cols], d - 1)
    cells = np.ravel_multi_index(levels.T, shape)
    counts = run.dist.counts[:k]
    rhs = run.rhs_mask[:k]
    joint = np.zeros(shape, dtype=np.int64)
    lhs = np.zeros(shape, dtype=np.int64)
    np.add.at(joint.reshape(-1), cells[rhs], counts[rhs])
    np.add.at(lhs.reshape(-1), cells, counts)
    for cube in (joint, lhs):
        for axis in range(cube.ndim):
            upward = np.flip(cube, axis)
            np.cumsum(upward, axis=axis, out=upward)
    return joint, lhs


def _evaluated(meets: np.ndarray) -> np.ndarray:
    """The candidates a pruned scan evaluates: those whose every immediate
    predecessor (one level lower on one axis) meets the support minimum. A
    predecessor that misses it was either evaluated and pruned its upper set,
    or skipped under an evaluated failure below it; both upper sets hold the
    candidate. Conversely a failure below a candidate lies below one of its
    predecessors, whose support is then no larger and misses too."""
    evaluated = np.ones_like(meets)
    for axis in range(meets.ndim):
        above = [slice(None)] * meets.ndim
        below = [slice(None)] * meets.ndim
        above[axis], below[axis] = slice(1, None), slice(None, -1)
        evaluated[tuple(above)] &= meets[tuple(below)]
    return evaluated


def _confident(run: _Run, joint: np.ndarray, lhs: np.ndarray) -> np.ndarray:
    """Where joint / lhs >= min_confidence, tested as joint * den >= num * lhs
    in exact integers (true where lhs = 0). Products that could overflow
    int64 are formed in Python ints."""
    num, den = run.min_confidence.numerator, run.min_confidence.denominator
    exact = object if run.dist.pair_total * max(num, den) >= 2**63 else np.int64
    confident = np.empty(joint.shape, dtype=bool)
    flat_joint, flat_lhs = joint.reshape(-1), lhs.reshape(-1)
    flat_confident = confident.reshape(-1)
    for lo in range(0, flat_confident.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        j = flat_joint[block].astype(exact, copy=False)
        l = flat_lhs[block].astype(exact, copy=False)
        flat_confident[block] = j * den >= num * l
    return confident


def _cube_scan(
    run: _Run,
    *,
    prune: bool,
    bound: ApproxBound | None = None,
    confidence_stop: bool = False,
) -> list[DiscoveredMd]:
    """Evaluate every candidate over the first k records at once, from the
    upper-set count cubes, with the counters the sequential scan would
    report: every evaluated candidate reads the whole prefix, and with
    ``prune`` only the closed-form evaluated set counts.

    ``confidence_stop`` makes this epsc, over a distribution grouped by the
    rhs pattern. It prunes iff a candidate misses support, as eps does, so it
    evaluates the same set. It rejects the evaluated candidates whose
    confidence is below the minimum; the ones that also meet support stop
    reading at the confidence drop, so only those are scanned one by one."""
    k, mode = _prefix(run, bound)
    joint, lhs = _upper_set_counts(run, k)
    meets = joint >= run.min_support_count
    evaluated = _evaluated(meets) if prune else None
    count = joint.size if evaluated is None else int(np.count_nonzero(evaluated))
    run.counters.candidates_evaluated += count
    run.counters.records_evaluated += k * count
    confident = _confident(run, joint, lhs)
    if confidence_stop:
        rejected = np.logical_not(confident)
        rejected &= evaluated
        run.counters.candidates_pruned_confidence += int(np.count_nonzero(rejected))
        # the ones that meet support stop at the drop; the rest read all k
        rejected &= meets
        for cand in zip(*(axis.tolist() for axis in np.nonzero(rejected))):
            run.counters.records_evaluated -= k - _confidence_drop(run, cand, int(joint[cand]))
    # every candidate that meets support is evaluated: its predecessors do too
    confident &= meets
    accepted = np.nonzero(confident)
    return run.finish(
        zip(
            zip(*(axis.tolist() for axis in accepted)),
            joint[accepted].tolist(),
            lhs[accepted].tolist(),
        ),
        mode,
    )


def _confidence_drop(run: _Run, cand: tuple[int, ...], joint: int) -> int:
    """epsc's stop for a candidate it rejects while meeting support: the
    records read up to the first one where the running confidence drops
    below the minimum. Over the grouped order the rhs-satisfying records come
    first and keep it at 1, and past them the joint mass is final, so that is
    the first record where the running lhs mass exceeds joint / eta_c."""
    eta = run.min_confidence
    mask = run.candidate_mask(run.dist.levels, cand)
    cum_lhs = np.cumsum(np.where(mask, run.dist.counts, 0))
    return int(np.searchsorted(cum_lhs, joint * eta.denominator // eta.numerator + 1)) + 1


def _individual_scan(run: _Run, bound: ApproxBound, *, prune: bool) -> list[DiscoveredMd]:
    """api's scan: candidate by candidate in dominance order, each stopping
    at the first record where the unseen mass is within its own bound
    (suffix <= factor * lhs mass so far), else at the end of the prefix. The
    left side only falls and the right side only grows, so a binary search
    with exact integer probes finds the stop. Only a candidate that read the
    whole prefix and missed the support minimum prunes: prefix joint mass
    only shrinks up the lattice, so every candidate it dominates misses as
    well, under any stop."""
    k, mode = _prefix(run, bound)
    counts = run.dist.counts[:k]
    levels = run.dist.levels[:k]
    joint_counts = np.where(run.rhs_mask[:k], counts, 0)
    cum_all = np.cumsum(run.dist.counts)
    suffix = (int(cum_all[-1]) - cum_all)[:k]
    factor = _bound_factor(bound.epsilon, run.min_confidence)
    f_num, f_den = factor.numerator, factor.denominator
    accepted = []
    for cand in run.lattice.iter_levels(skip_pruned=prune):
        run.counters.candidates_evaluated += 1
        mask = run.candidate_mask(levels, cand)
        cum_lhs = np.cumsum(np.where(mask, counts, 0))
        last = bisect_left(
            range(k - 1), True, key=lambda i: int(suffix[i]) * f_den <= f_num * int(cum_lhs[i])
        )
        joint = int(joint_counts[: last + 1][mask[: last + 1]].sum())
        lhs = int(cum_lhs[last])
        run.counters.records_evaluated += last + 1
        if run.accepts(joint, lhs):
            accepted.append((cand, joint, lhs))
        if prune and last + 1 == k and joint < run.min_support_count:
            run.lattice.record_failure(cand)
    return run.finish(accepted, mode)


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
    return _cube_scan(run, prune=False)


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
    return _cube_scan(run, prune=True)


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
    return _cube_scan(run, prune=True, confidence_stop=True)


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
    return _cube_scan(run, prune=False, bound=bound)


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
    return _individual_scan(run, bound, prune=False)


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
    return _cube_scan(run, prune=True, bound=bound)


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
    return _individual_scan(run, bound, prune=True)


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
