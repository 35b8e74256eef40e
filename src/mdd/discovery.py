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
the support minimum. epsc's confidence drop is found per candidate, for the
rejected candidates that meet support.

api's stop. A candidate stops after the first record i < k - 1 where the
unseen mass R is within its bound on the joint mass read so far,
R <= f * J_i with f = eps * min(1, eta_c / (1 - eps - eta_c)) <= eps, and
otherwise reads all k records, past which R <= f * eta_s <= f * J for every
reported rule by the choice of k. So every reported rule has R <= eps * J,
and that bounds its error. Let J and L be the joint and lhs mass (as
probabilities) read at the stop, s = J and c = J / L, and J_n, L_n the exact
ones. The unseen records add at most R to each, so J <= J_n <= J + R and
L <= L_n <= L + R, and R <= eps * J gives

- support: (s_n - s) / s_n = (J_n - J) / J_n <= R / J_n <= eps;
- confidence from below: c_n - c <= (J_n - J) / L_n <= R / L_n, as L <= L_n,
  so (c_n - c) / c_n <= R / J_n <= eps;
- confidence from above: c - c_n <= J / L - J / L_n <= J * R / (L * L_n),
  as J <= J_n, so (c - c_n) / c_n <= (J / J_n) * (R / L) <= R / L <= eps,
  as J <= L.

A stop on the lhs mass (R <= f * L) bounds none of these when J is much
smaller than L. The stop test is monotone in i (R falls, J_i grows), and a
dominated candidate never has more joint mass, so stops only rise up the
lattice. apsi prunes the strict upper set of its failures, the candidates
that read the whole prefix and miss support. A candidate reads the whole
prefix iff the test fails at the last probe, record k - 2, so the failures
are an upper set computed from the joint cubes at k - 1 and k records, and
apsi evaluates the same closed form as eps: the candidates with no failure
among their immediate predecessors.

Each evaluated candidate's stop is found in two steps. Its bracket, a run of
about 4 * sqrt(k) records in which the test first holds, comes from a
record-by-cell dominance test over every probed record: |cells| * k * m
comparisons, taken in fixed-size blocks so the temporaries stay bounded. A
dominance test over the bracket's own records then finds the stop, and the
joint and lhs mass there. apsi resolves a few hundred cells on a 10^5 grid;
api resolves every cell, so its cost grows with k * m * d^m.

Decision arithmetic is exact: support thresholds become integer count minimums
(count >= ceil(min_support * pair_total)) and confidence and stop checks
cross-multiply integer counts against exact rationals, in Python ints where
an int64 product could overflow, so no candidate flips on floating-point
noise at a boundary. Every early-termination index and every reported
counter equals what the sequential formulation would do, record by record.
"""

from __future__ import annotations

import math
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
        # the engines build every pattern valid, so the checks are skipped
        for cand, joint, lhs in sorted(accepted):
            pattern = ThresholdPattern._trusted(
                tuple((attrs[i], cand[i]) for i in by_index if cand[i])
            )
            results.append(
                DiscoveredMd._trusted(
                    pattern,
                    self.rhs_pattern,
                    Fraction(joint, self.dist.pair_total),
                    Fraction(joint, lhs),
                    mode,
                    self.counters,
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


def _grid(run: _Run) -> tuple[int, ...]:
    """The shape of the candidate grid, (d,)*m, indexed by levels."""
    return (run.lattice.domain.d,) * len(run.x_cols)


def _record_cells(run: _Run, lo: int, hi: int) -> np.ndarray:
    """The flat grid cell of each of the records lo..hi-1, at its lhs levels."""
    d = run.lattice.domain.d
    # a level above the lattice's top satisfies every threshold the top does
    levels = np.minimum(run.dist.levels[lo:hi][:, run.x_cols], d - 1)
    return np.ravel_multi_index(levels.T, _grid(run))


def _upper_set_cube(shape: tuple[int, ...], cells: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """An int64 cube of the given grid shape in which every cell holds the
    total count of the ``cells`` in its upper set. Each count lands on its
    own cell; a reversed cumulative sum along every axis then sums each cell
    over its upper set, which is exactly the records that satisfy that
    candidate."""
    cube = np.zeros(shape, dtype=np.int64)
    np.add.at(cube.reshape(-1), cells, counts)
    d = shape[0]
    # along the outer axes, d - 1 whole-slice additions stream through memory
    # where a cumulative sum would stride across it
    for axis in range(len(shape) - 1):
        slices = cube.reshape(d**axis, d, -1)
        for level in range(d - 2, -1, -1):
            np.add(slices[:, level], slices[:, level + 1], out=slices[:, level])
    upward = np.flip(cube, -1)
    np.cumsum(upward, axis=-1, out=upward)
    return cube


def _upper_set_counts(run: _Run, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The joint and lhs count of every candidate over the first k records:
    two int64 cubes of shape (d,)*m indexed by the candidate's levels."""
    shape = _grid(run)
    cells = _record_cells(run, 0, k)
    counts = run.dist.counts[:k]
    rhs = run.rhs_mask[:k]
    return _upper_set_cube(shape, cells[rhs], counts[rhs]), _upper_set_cube(shape, cells, counts)


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


def _exact_dtype(run: _Run, ratio: Fraction) -> type:
    """The dtype in which counts times ``ratio``'s numerator or denominator
    stay exact: int64 while they fit, else Python ints."""
    return object if run.dist.pair_total * max(ratio.numerator, ratio.denominator) >= 2**63 else np.int64


def _confident(run: _Run, joint: np.ndarray, lhs: np.ndarray) -> np.ndarray:
    """Where joint / lhs >= min_confidence, tested as joint * den >= num * lhs
    in exact integers (true where lhs = 0)."""
    num, den = run.min_confidence.numerator, run.min_confidence.denominator
    exact = _exact_dtype(run, run.min_confidence)
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


# ---------------------------------------------------------------------------
# The individual stops of api and apsi
# ---------------------------------------------------------------------------

# Record-by-cell dominance tests take this many (cell, record) pairs at a
# time, so their temporaries never grow with |cells| * k.
_DOMINANCE_BLOCK = 1 << 18


class _StopRule:
    """api's stop over the first k records of the sorted distribution. A
    candidate stops after the first record i < k - 1 where the unseen mass is
    within its bound on the joint mass J_i read so far,
    suffix[i] * den <= num * J_i, and otherwise reads all k records. The test
    is monotone in i (the suffix falls, J_i grows), so cutting the records
    into brackets and probing the last record of each finds the bracket a
    candidate stops in. ``bounds`` holds the brackets' prefix lengths; the
    final bracket is record k - 1 alone, which ends every scan."""

    def __init__(self, run: _Run, bound: ApproxBound, k: int) -> None:
        self.k = k
        self.counts = run.dist.counts[:k]
        self.joint_counts = np.where(run.rhs_mask[:k], self.counts, 0)
        # the lhs levels of the prefix, one contiguous row per attribute
        self.levels = np.ascontiguousarray(run.dist.levels[:k][:, run.x_cols].T)
        cum = np.cumsum(run.dist.counts)
        self.suffix = int(cum[-1]) - cum[:k]
        factor = _bound_factor(bound.epsilon, run.min_confidence)
        self.num, self.den = factor.numerator, factor.denominator
        self.exact = _exact_dtype(run, factor)
        # about 4 * sqrt(k) wide, so a cell's bracket masses and its
        # in-bracket test both stay small next to the test over all k
        step = max(1, math.isqrt(16 * k))
        probes = [*range(step, k - 1, step), k - 1] if k > 1 else []
        self.bounds = np.array([0, *probes, k])

    def stopped(self, record, joint: np.ndarray) -> np.ndarray:
        """Whether a candidate with joint mass ``joint`` over the records up
        to ``record`` stops there, in exact integers."""
        suffix = np.asarray(self.suffix[record]).astype(self.exact)
        return suffix * self.den <= self.num * joint.astype(self.exact, copy=False)

    def failures(self, run: _Run) -> np.ndarray:
        """apsi's failures, the candidates that read the whole prefix and miss
        the support minimum: an upper set, from the joint cube at the last
        probe, k - 1 records, and at all k."""
        k, shape = self.k, _grid(run)
        rhs = run.rhs_mask[: k - 1]
        joint = _upper_set_cube(shape, _record_cells(run, 0, k - 1)[rhs], self.counts[: k - 1][rhs])
        failed = ~self.stopped(k - 2, joint) if k > 1 else np.ones(shape, dtype=bool)
        if run.rhs_mask[k - 1]:
            # the last record adds to every candidate it satisfies, its lower set
            last = np.unravel_index(_record_cells(run, k - 1, k)[0], shape)
            joint[tuple(slice(level + 1) for level in last)] += self.counts[k - 1]
        failed &= joint < run.min_support_count
        return failed


def _holds(records, cells: tuple[np.ndarray, ...]) -> np.ndarray:
    """held[c, r]: record r meets every threshold of cell c. ``records``
    gives one array of record levels per attribute, of shape (r,) or
    (|cells|, r), and ``cells`` one array of cell levels per attribute."""
    held = None
    for levels, thresholds in zip(records, cells):
        hit = levels >= thresholds[:, None]
        held = hit if held is None else np.logical_and(held, hit, out=held)
    return held


def _masses_at(held: np.ndarray, counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The mass of the held records up to the end of each bracket, after a
    column of zeros for the empty prefix. ``starts`` are the brackets' first
    records, and the brackets cover all of ``held``'s records."""
    masses = np.zeros((held.shape[0], starts.size + 1), dtype=np.int64)
    np.cumsum(np.add.reduceat(held * counts, starts, axis=1), axis=1, out=masses[:, 1:])
    return masses


def _brackets(run: _Run, rule: _StopRule, cells: np.ndarray):
    """Each cell's bracket, and its joint and lhs mass where the bracket
    starts, from a record-by-cell dominance test over every probed record, a
    block of cells at a time: |cells| * k * m comparisons."""
    ends = rule.bounds[1:-1]
    probed = int(rule.bounds[-2])
    block = max(1, _DOMINANCE_BLOCK // max(1, probed))
    for lo in range(0, cells.size, block):
        group = cells[lo : lo + block]
        held = _holds(rule.levels[:, :probed], np.unravel_index(group, _grid(run)))
        joint = _masses_at(held, rule.joint_counts[:probed], rule.bounds[:-2])
        lhs = _masses_at(held, rule.counts[:probed], rule.bounds[:-2])
        # the brackets before a cell's own are the probes it does not stop at
        bracket = np.count_nonzero(~rule.stopped(ends - 1, joint[:, 1:]), axis=1)
        rows = np.arange(group.size)
        yield group, bracket, joint[rows, bracket], lhs[rows, bracket]


def _resolve(
    run: _Run,
    rule: _StopRule,
    cells: np.ndarray,
    bracket: np.ndarray,
    base_joint: np.ndarray,
    base_lhs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's stop inside its bracket (the records it reads), and its
    joint and lhs mass there: the masses where the bracket starts plus a
    record-by-cell dominance test over the bracket's records."""
    lo, hi = rule.bounds[bracket], rule.bounds[bracket + 1]
    record = lo[:, None] + np.arange(int((hi - lo).max()))
    inside = record < hi[:, None]
    # past its bracket a row repeats the bracket's last record, held by none
    np.minimum(record, hi[:, None] - 1, out=record)
    held = _holds((levels[record] for levels in rule.levels), np.unravel_index(cells, _grid(run)))
    held &= inside
    joint = np.cumsum(held * rule.joint_counts[record], axis=1)
    joint += base_joint[:, None]
    stopped = rule.stopped(record, joint)
    stopped |= record == rule.k - 1
    first = np.argmax(stopped, axis=1)
    rows = np.arange(cells.size)
    lhs = np.cumsum(held * rule.counts[record], axis=1)[rows, first]
    return record[rows, first] + 1, joint[rows, first], lhs + base_lhs


def _stop_scan(run: _Run, bound: ApproxBound, *, prune: bool) -> list[DiscoveredMd]:
    """api's scan: each candidate reads the prefix up to its stop (see
    _StopRule). With ``prune`` (apsi) only the closed-form evaluated set is
    resolved: the candidates with no immediate predecessor among the
    failures. Each resolved cell's bracket comes from a dominance test over
    the probed records (|cells| * k * m comparisons, a fixed block at a
    time); its stop is then resolved inside the bracket."""
    k, mode = _prefix(run, bound)
    rule = _StopRule(run, bound, k)
    if prune:
        cells = np.flatnonzero(_evaluated(~rule.failures(run)))
    else:
        cells = np.arange(run.lattice.candidate_count)
    run.counters.candidates_evaluated += cells.size
    block = max(1, _DOMINANCE_BLOCK // int(np.diff(rule.bounds).max()))
    accepted = []
    for group, bracket, base_joint, base_lhs in _brackets(run, rule, cells):
        for lo in range(0, group.size, block):
            part = slice(lo, lo + block)
            stop, joint, lhs = _resolve(
                run, rule, group[part], bracket[part], base_joint[part], base_lhs[part]
            )
            run.counters.records_evaluated += int(stop.sum())
            keep = joint >= run.min_support_count
            keep &= _confident(run, joint, lhs)
            levels = np.unravel_index(group[part][keep], _grid(run))
            accepted.extend(
                zip(
                    zip(*(axis.tolist() for axis in levels)),
                    joint[keep].tolist(),
                    lhs[keep].tolist(),
                )
            )
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
    return _stop_scan(run, bound, prune=False)


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
    return _stop_scan(run, bound, prune=True)


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
