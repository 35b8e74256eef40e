"""The discovery algorithms: every candidate of the lattice counted at once
over a prefix of the distribution.

Each engine takes the records in any order and puts them in the order it
needs. The approximate engines read k from the sorted counts alone, hold only
the first k records of the nonincreasing-probability order (only the records
whose count is at least the k-th largest are ordered), evaluate each
candidate over them and bound the mass of the rest; the exact engines are
the same scans with k = n. ea reads every record for every candidate; eps
adds dominance pruning by support; epsc groups the records by the rhs
pattern and also stops a candidate where its running confidence drops below
the minimum. ap and aps are ea and eps over the first k records (the k of
compute_prefix_k); api and apsi add a per-candidate stop once the unseen
mass is within the candidate's own bound. Every scan ends in one
_Rules record, the accepted rules' grid cells and joint and lhs counts as
arrays: the engines and run_request turn it into DiscoveredMd objects, and
the CLI writes its document from the arrays.

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
prefix iff the test fails at record k - 2, so the failures are an upper set
computed from the joint cubes at k - 1 and k records, and apsi evaluates the
same closed form as eps: the candidates with no failure among their immediate
predecessors.

In counts, with f = f_num / f_den, the stop test at record i is the integer
comparison J_i >= t_i, where t_i = ceil(R_i * f_den / f_num) is computed once
per record (in Python ints where the product could overflow int64) and
t_{k-1} = 0 ends every scan. The stops are found in one pass over blocks of
cells, on the prefix packed eight records to a byte: the AND of a cell's
range-encoded bit rows, level >= t per attribute (Chan and Ioannidis, SIGMOD
1998), is the records it holds; half-byte mass tables give its joint and lhs
mass at every byte's end; the test is monotone, so the stop lies in the first
byte whose last record passes it. Temporaries are bounded by the block.

Lower bounds. The joint mass J_i read so far never exceeds the candidate's
joint total J over the prefix, and the thresholds do not increase, so no
candidate stops before the first record whose threshold is at most J: one
binary search gives that bound. A candidate bounded at k - 1, as every one
with J = 0 is, stops at the last record with its totals and reads nothing.
Every other cell reads its bit rows only from its bound's byte on, and the
masses read before a byte are its joint and lhs totals over the prefix, from
the upper-set cubes, minus the masses of that byte and the later ones. The
cells go through the pass in bound order, each block reading from its first
cell's byte, so a pass costs about the sum over cells of (k - bound) * m / 8
byte ANDs instead of |cells| * k * m / 8. apsi's failures cube already holds
the joint totals; the lhs totals take one more cube, m * d^m cell passes.
apsi resolves a few hundred cells on a 10^5 grid; api resolves every cell,
but most have a small joint total and so a bound at the last record.

Decision arithmetic is exact: support minimums and stops become integer count
thresholds (count >= ceil(min_support * pair_total), J_i >= t_i), and
confidence checks cross-multiply integer counts against the exact rational,
in Python ints where an int64 product could overflow, so no candidate flips
on floating-point noise at a boundary. Every early-termination index and
every reported counter equals what the sequential formulation would do,
record by record.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distribution import group_by_rhs, pattern_mask, probability_prefix
from .errors import ContractViolationError, ValidationError
from .lattice import DEFAULT_CANDIDATE_BUDGET, CandidateLattice
from .model import (
    Algorithm,
    AttributeId,
    DiscoveredMd,
    DiscoveryRequest,
    EvalCounters,
    EvaluationMode,
    LevelDomain,
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
    # the scanned prefix, the mode the rules report and api's bound factor
    # (see _StopRule): k = n and no factor when exact
    k: int = field(init=False)
    mode: EvaluationMode = field(init=False)
    factor: Fraction | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.x_cols = tuple(self.dist.column_index(a) for a in self.lattice.attributes)
        self.rhs_mask = pattern_mask(self.dist, self.rhs_pattern)
        num, den = self.min_support.numerator, self.min_support.denominator
        self.min_support_count = -((-num * self.dist.pair_total) // den)
        self.counters.candidates_total = self.lattice.candidate_count
        self.k, self.mode = self.dist.n, EvaluationMode.exact()

    def finish(self, cells: np.ndarray, joint: np.ndarray, lhs: np.ndarray) -> _Rules:
        """The accepted rules from their flat grid cells and joint and lhs
        counts, in level-tuple order: ascending C-order cells are ascending
        level tuples."""
        self.counters.candidates_pruned_support = (
            self.counters.candidates_total - self.counters.candidates_evaluated
        )
        order = np.argsort(cells)
        return _Rules(
            self.lattice.attributes,
            self.lattice.domain,
            cells[order],
            joint[order],
            lhs[order],
            self.rhs_pattern,
            self.dist.pair_total,
            self.mode,
            self.counters,
        )


def _fraction(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for coprime Python ints with a
    positive denominator, without the gcd: its two slots written directly,
    as CPython 3.12's Fraction._from_coprime_ints does."""
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


@dataclass(frozen=True)
class _Rules:
    """One run's accepted rules as arrays, in level-tuple order: each rule's
    flat grid cell over the lattice attributes and its int64 joint and lhs
    counts, with what every rule of the run shares. Support is
    joint / pair_total, confidence joint / lhs."""

    attributes: tuple[AttributeId, ...]
    domain: LevelDomain
    cells: np.ndarray
    joint: np.ndarray
    lhs: np.ndarray
    rhs_pattern: ThresholdPattern
    pair_total: int
    mode: EvaluationMode
    counters: EvalCounters

    def levels(self) -> tuple[np.ndarray, ...]:
        """Each rule's level on each lattice attribute, one array per attribute."""
        return np.unravel_index(self.cells, (self.domain.d,) * len(self.attributes))

    def measures(self) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]]:
        """Each rule's support joint / pair_total and confidence joint / lhs
        in lowest terms, as ((numerators, denominators), (numerators,
        denominators)) of Python ints. One np.gcd per measure reduces them
        all; it is exact because a distribution's pair_total, and so every
        count, is below 2^63."""
        joint = self.joint
        reduced = []
        for den in (np.int64(self.pair_total), self.lhs):
            g = np.gcd(joint, den)
            reduced.append(((joint // g).tolist(), (den // g).tolist()))
        return tuple(reduced)

    def mds(self) -> list[DiscoveredMd]:
        """The rules as DiscoveredMd objects, built eagerly from the arrays.
        The measures come reduced from measures(), so each Fraction is made
        without a second gcd. Rules share their (attribute, level) entries:
        each attribute maps the levels present to one tuple each and level 0
        to None, so a rule's entries are its row with the Nones filtered
        out, in attribute-index order as the pattern keeps them."""
        attrs = self.attributes
        levels = self.levels()
        columns = []
        for i in sorted(range(len(attrs)), key=lambda i: attrs[i].index):
            axis = levels[i].tolist()
            entry = {level: (attrs[i], level) for level in set(axis)}
            entry[0] = None
            columns.append(map(entry.__getitem__, axis))
        (support_num, support_den), (confidence_num, confidence_den) = self.measures()
        rhs_pattern, mode, counters = self.rhs_pattern, self.mode, self.counters
        new_pattern, new_md = ThresholdPattern._trusted, DiscoveredMd._trusted
        results = []
        # Every object made here stays alive, so the cyclic collector's
        # passes over the growing list would find nothing to free.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # the engines build every pattern valid, so the checks are skipped
            for row, sn, sd, cn, cd in zip(
                zip(*columns), support_num, support_den, confidence_num, confidence_den
            ):
                results.append(
                    new_md(
                        new_pattern(tuple(filter(None, row))),
                        rhs_pattern,
                        _fraction(sn, sd),
                        _fraction(cn, cd),
                        mode,
                        counters,
                    )
                )
        finally:
            if collecting:
                gc.enable()
        return results


def _new_run(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: Fraction,
    min_confidence: Fraction,
    counters: EvalCounters | None,
    epsilon: Fraction | None = None,
) -> _Run:
    """One engine run, over thresholds already checked. With ``epsilon`` it
    is approximate: it holds only the first k records of the probability
    order, k from the prefix bound, which the counts alone decide."""
    run_dist, factor = dist, None
    if epsilon is not None:
        factor = _bound_factor(epsilon, min_confidence)
        k, _ = _prefix_cut(np.sort(dist.counts), dist.pair_total, min_support * factor)
        run_dist = probability_prefix(dist, k)
    run = _Run(
        run_dist,
        lattice,
        rhs_pattern,
        min_support,
        min_confidence,
        counters if counters is not None else EvalCounters(),
    )
    if epsilon is not None:
        run.k, run.mode, run.factor = k, EvaluationMode.approximate(k, epsilon), factor
    return run


# ---------------------------------------------------------------------------
# The prefix scans
# ---------------------------------------------------------------------------

# Candidates whose confidence is compared a block at a time, so the exact
# integer products never need a temporary the size of the cube.
_BLOCK = 1 << 16


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
    confidence_stop: bool = False,
) -> _Rules:
    """Evaluate every candidate over the first k records at once, from the
    upper-set count cubes, with the counters the sequential scan would
    report: every evaluated candidate reads the whole prefix, and with
    ``prune`` only the closed-form evaluated set counts.

    ``confidence_stop`` makes this epsc, over the records grouped by the rhs
    pattern. It prunes iff a candidate misses support, as eps does, so it
    evaluates the same set. It rejects the evaluated candidates whose
    confidence is below the minimum; the ones that also meet support stop
    reading at the confidence drop, so only those are scanned one by one."""
    k = run.k
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
        for cell in np.flatnonzero(rejected).tolist():
            run.counters.records_evaluated -= k - _confidence_drop(run, cell, int(joint.flat[cell]))
    # every candidate that meets support is evaluated: its predecessors do too
    confident &= meets
    cells = np.flatnonzero(confident)
    return run.finish(cells, joint.reshape(-1)[cells], lhs.reshape(-1)[cells])


def _confidence_drop(run: _Run, cell: int, joint: int) -> int:
    """epsc's stop for a candidate it rejects while meeting support: the
    records read up to the first one where the running confidence drops
    below the minimum. Over the grouped order the rhs-satisfying records come
    first and keep it at 1, and past them the joint mass is final, so that is
    the first record where the running lhs mass exceeds joint / eta_c."""
    eta = run.min_confidence
    records = (run.dist.levels[:, col] for col in run.x_cols)
    held = _holds(records, np.unravel_index([cell], _grid(run)))[0]
    cum_lhs = np.cumsum(np.where(held, run.dist.counts, 0))
    return int(np.searchsorted(cum_lhs, joint * eta.denominator // eta.numerator + 1)) + 1


# ---------------------------------------------------------------------------
# The individual stops of api and apsi
# ---------------------------------------------------------------------------

# The stop pass takes this many (cell, record byte) pairs at a time, so its
# temporaries never grow with |cells| * k.
_STOP_BLOCK = 1 << 15
# _HALF_BYTE_BITS[v, j]: bit j of the half byte v
_HALF_BYTE_BITS = (np.arange(16)[:, None] >> np.arange(4)) & 1


class _StopRule:
    """api's stop over the run's first k records, sorted. A candidate stops
    after the first record i < k - 1 where the unseen mass is within its bound
    on the joint mass J_i read so far, suffix[i] * den <= num * J_i for the
    bound factor num / den, and otherwise reads all k records. In integers
    that is J_i >= thresholds[i] = ceil(suffix[i] * den / num), computed once
    per record and exact, with thresholds[k - 1] = 0 ending every scan. The
    arrays are padded to whole bytes of records with level -1, count 0 and
    threshold 0, which no cell holds."""

    def __init__(self, run: _Run) -> None:
        k = run.k
        size = -(-k // 8) * 8
        # each record's joint and lhs count
        masses = np.zeros((size, 2), dtype=np.int64)
        masses[:k, 1] = run.dist.counts[:k]
        np.multiply(masses[:k, 1], run.rhs_mask[:k], out=masses[:k, 0])
        self.joint_counts, self.counts = masses.T
        # the lhs levels of the prefix, one contiguous row per attribute
        self.levels = np.full((len(run.x_cols), size), -1, dtype=run.dist.levels.dtype)
        self.levels[:, :k] = run.dist.levels[:k][:, run.x_cols].T
        # each record's flat grid cell, for the cubes
        self.cells = _record_cells(run, 0, k)
        factor = run.factor
        suffix = (run.dist.pair_total - np.cumsum(self.counts[:k])).astype(_exact_dtype(run, factor))
        thresholds = -((-suffix * factor.denominator) // factor.numerator)
        # while unseen mass is left, the joint mass read is below pair_total;
        # with none left the threshold is 0. So a cap at pair_total changes no
        # decision and brings every threshold into int64.
        self.thresholds = np.zeros(size, dtype=np.int64)
        self.thresholds[: k - 1] = np.minimum(thresholds[: k - 1], run.dist.pair_total)
        # tables[16 * h + v]: the joint and lhs mass of the records of half
        # byte h whose bits v sets, at most pair_total
        self.tables = np.matmul(_HALF_BYTE_BITS, masses.reshape(-1, 4, 2)).reshape(-1, 2)

    def failures(self, run: _Run) -> tuple[np.ndarray, np.ndarray]:
        """apsi's failures, the candidates that read the whole prefix and miss
        the support minimum, and the joint cube at all k records they come
        from. They are an upper set, from the joint cube at k - 1 records, the
        last test before the end, and at all k."""
        k, shape = run.k, _grid(run)
        rhs = run.rhs_mask[: k - 1]
        joint = _upper_set_cube(shape, self.cells[: k - 1][rhs], self.counts[: k - 1][rhs])
        failed = joint < self.thresholds[k - 2] if k > 1 else np.ones(shape, dtype=bool)
        if run.rhs_mask[k - 1]:
            # the last record adds to every candidate it satisfies, its lower set
            last = np.unravel_index(self.cells[k - 1], shape)
            joint[tuple(slice(level + 1) for level in last)] += self.counts[k - 1]
        failed &= joint < run.min_support_count
        return failed, joint

    def lower_bounds(self, run: _Run, joint: np.ndarray) -> np.ndarray:
        """For each cell's joint total over the prefix, the first record it
        can stop at: the joint mass read never exceeds the total, so the stop
        test fails while the threshold is above it. The thresholds do not
        increase, and thresholds[k - 1] = 0 bounds every cell."""
        k = run.k
        bounds = np.searchsorted(self.thresholds[k - 1 :: -1], joint, side="right")
        return np.subtract(k, bounds, out=bounds)


def _holds(records, cells: tuple[np.ndarray, ...]) -> np.ndarray:
    """held[c, r]: record r meets every threshold of cell c. ``records``
    gives one array of record levels per attribute, of shape (r,) or
    (|cells|, r), and ``cells`` one array of cell levels per attribute."""
    held = None
    for levels, thresholds in zip(records, cells):
        hit = levels >= thresholds[:, None]
        held = hit if held is None else np.logical_and(held, hit, out=held)
    return held


def _stops(
    run: _Run, rule: _StopRule, cells: np.ndarray, first: int, totals: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Each cell's stop (the records it reads), and its joint and lhs mass
    there, reading the bit rows from record byte ``first`` on; no cell may
    stop before it. Bit j of byte b is record 8b + j; the rows are built for
    the levels these cells use. The masses read before a byte are the cell's
    joint and lhs ``totals`` over the prefix, one row per cell, minus the
    masses of that byte and the later ones: nothing before byte 0, where
    ``totals`` is not read."""
    held = None
    for row, levels in zip(rule.levels, np.unravel_index(cells, _grid(run))):
        used = np.flatnonzero(np.bincount(levels)).astype(row.dtype)
        packed = np.packbits(row[8 * first :] >= used[:, None], axis=1, bitorder="little")
        bits = packed[np.searchsorted(used, levels)]
        held = bits if held is None else np.bitwise_and(held, bits, out=held)
    # byte b's low and high half bytes are rows 2b and 2b + 1 of the tables
    offsets = np.arange(32 * first, rule.tables.shape[0], 16).reshape(-1, 2)
    masses = np.take(rule.tables, (held & 15) + offsets[:, 0], axis=0)
    masses += np.take(rule.tables, (held >> 4) + offsets[:, 1], axis=0)
    np.cumsum(masses, axis=1, out=masses)
    if first:
        masses += (totals - masses[:, -1])[:, None]
    byte = np.argmax(masses[..., 0] >= rule.thresholds[8 * first + 7 :: 8], axis=1)
    rows = np.arange(cells.size)
    # the running masses inside the stop byte, from the masses at its end
    end = masses[rows, byte]
    record = 8 * (first + byte[:, None]) + np.arange(8)
    bits = np.unpackbits(held[rows, byte, None], axis=1, bitorder="little")
    joint = np.cumsum(bits * rule.joint_counts[record], axis=1)
    joint += (end[:, 0] - joint[:, -1])[:, None]
    stop = np.argmax(joint >= rule.thresholds[record], axis=1)
    lhs = np.cumsum(bits * rule.counts[record], axis=1)
    return record[rows, stop] + 1, joint[rows, stop], lhs[rows, stop] + end[:, 1] - lhs[:, -1]


def _blocks(bounds: np.ndarray, size: int) -> list[tuple[int, int, int]]:
    """Cut cells, given in nondecreasing order of their lower bounds, into
    blocks (lo, hi, first byte) that each read at most _STOP_BLOCK (cell,
    record byte) pairs of a prefix of ``size`` bytes, or one cell. A block
    reads from its first cell's bound's byte on. A cell counts as at least 8
    pairs: its stop byte is resolved in int64 arrays of its 8 records."""
    blocks, lo = [], 0
    while lo < bounds.size:
        first = int(bounds[lo]) // 8
        hi = min(bounds.size, lo + max(1, _STOP_BLOCK // max(8, size - first)))
        blocks.append((lo, hi, first))
        lo = hi
    return blocks


def _read_stops(
    run: _Run, rule: _StopRule, cells: np.ndarray, joint: np.ndarray, lhs: np.ndarray
) -> None:
    """Turn each cell's joint and lhs totals over the prefix, in ``joint``
    and ``lhs``, into its masses at its stop, and count the records it
    reads. A cell bounded at the last record stops there, at its totals,
    without reading. The others go through _stops in lower-bound order, a
    block at a time; only they are ordered."""
    k = run.k
    # a joint total below the threshold at record k - 2 bounds a cell at k - 1
    reading = np.flatnonzero(joint >= rule.thresholds[k - 2]) if k > 1 else cells[:0]
    run.counters.records_evaluated += k * (cells.size - reading.size)
    bounds = rule.lower_bounds(run, joint[reading])
    reading = reading[np.argsort(bounds, kind="stable")]
    bounds.sort()
    for lo, hi, first in _blocks(bounds, rule.thresholds.size // 8):
        part = reading[lo:hi]
        totals = np.column_stack((joint[part], lhs[part]))
        stop, joint[part], lhs[part] = _stops(run, rule, cells[part], first, totals)
        run.counters.records_evaluated += int(stop.sum())


def _stop_scan(run: _Run, *, prune: bool) -> _Rules:
    """api's scan: each candidate reads the prefix up to its stop (see
    _StopRule). With ``prune`` (apsi) only the closed-form evaluated set is
    resolved: the candidates with no immediate predecessor among the
    failures. No cell stops before its lower bound (_StopRule.lower_bounds),
    which its joint total over the prefix gives; each cell's masses live in
    one joint and one lhs array from the cubes to the end (_read_stops)."""
    rule = _StopRule(run)
    failed, joint = rule.failures(run)
    joint = joint.reshape(-1)
    if prune:
        cells = np.flatnonzero(_evaluated(~failed))
        joint = joint[cells]
    else:
        cells = np.arange(joint.size)
    del failed
    run.counters.candidates_evaluated += cells.size
    lhs = _upper_set_cube(_grid(run), rule.cells, rule.counts[: run.k]).reshape(-1)
    if prune:
        lhs = lhs[cells]
    _read_stops(run, rule, cells, joint, lhs)
    keep = joint >= run.min_support_count
    keep &= _confident(run, joint, lhs)
    return run.finish(cells[keep], joint[keep], lhs[keep])


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


def _prefix_cut(ascending: np.ndarray, pair_total: int, bound: Fraction) -> tuple[int, int]:
    """The prefix bound from the record counts alone, given in ascending
    order: the smallest k such that the records past the first k of the
    probability order hold at most bound * pair_total, compared in exact
    integers, and the count they hold. Those records are the n - k smallest,
    and at least one record is read."""
    limit = bound.numerator * pair_total // bound.denominator
    smallest = np.cumsum(ascending)
    skip = min(int(np.searchsorted(smallest, limit, side="right")), ascending.size - 1)
    return ascending.size - skip, int(smallest[skip - 1]) if skip else 0


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
    k, suffix = _prefix_cut(dist_sorted.counts[::-1], pair_total, bound)
    return ApproxBound(
        epsilon=eps,
        min_support=eta_s,
        min_confidence=eta_c,
        bound=bound,
        suffix_mass=Fraction(suffix, pair_total),
        prefix_k=k,
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
    return _engine(Algorithm.EA, dist, lattice, rhs_pattern, min_support, min_confidence,
                   counters=counters)


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
    return _engine(Algorithm.EPS, dist, lattice, rhs_pattern, min_support, min_confidence,
                   counters=counters)


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

    Reads the records grouped by the rhs pattern (rhs-satisfying records
    first, each group in its given order; see group_by_rhs). Over that order
    the running confidence of any candidate is nonincreasing, so the moment it
    drops below the minimum the candidate is rejected for good. The scan then
    stops immediately if the support accumulated so far already meets the
    minimum; otherwise it keeps counting (joint mass no longer grows past the
    pivot) so the final support is known and dominated candidates can be
    pruned soundly.
    """
    return _engine(Algorithm.EPSC, dist, lattice, rhs_pattern, min_support, min_confidence,
                   counters=counters)


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
    compute_prefix_k); reported measures are the prefix approximations.
    ``dist_sorted`` may come in any order; this and the other approximate
    engines read its first k records in sort_by_probability_desc's order."""
    return _engine(Algorithm.AP, dist_sorted, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


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
    return _engine(Algorithm.API, dist_sorted, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


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
    return _engine(Algorithm.APS, dist_sorted, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


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
    return _engine(Algorithm.APSI, dist_sorted, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


# ---------------------------------------------------------------------------
# Request dispatch
# ---------------------------------------------------------------------------


def _engine(
    algorithm: Algorithm,
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike | None = None,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """A public engine's rules, after the checks a request makes on its
    construction."""
    min_support = to_fraction(min_support, "min_support")
    min_confidence = to_fraction(min_confidence, "min_confidence")
    if epsilon is not None:
        epsilon = to_fraction(epsilon, "epsilon")
    if set(lattice.attributes) & set(rhs_pattern.attributes):
        raise ValidationError("lhs and rhs attribute sets must be disjoint")
    validate_thresholds(min_support, min_confidence, epsilon)
    return _rules(algorithm, dist, lattice, rhs_pattern, min_support, min_confidence, epsilon,
                  counters=counters).mds()


def _rules(
    algorithm: Algorithm,
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: Fraction,
    min_confidence: Fraction,
    epsilon: Fraction | None = None,
    *,
    counters: EvalCounters | None = None,
) -> _Rules:
    """Run one algorithm over checked thresholds; its accepted rules as
    arrays. ``epsilon`` makes the run approximate, as the approximate
    algorithms need."""
    if algorithm is Algorithm.EPSC:
        dist, _ = group_by_rhs(dist, rhs_pattern)
    run = _new_run(dist, lattice, rhs_pattern, min_support, min_confidence, counters, epsilon)
    if algorithm in (Algorithm.API, Algorithm.APSI):
        return _stop_scan(run, prune=algorithm is Algorithm.APSI)
    return _cube_scan(
        run,
        prune=algorithm not in (Algorithm.EA, Algorithm.AP),
        confidence_stop=algorithm is Algorithm.EPSC,
    )


def _request_rules(
    dist: StatDistribution,
    request: DiscoveryRequest,
    *,
    candidate_budget: int | None = None,
    counters: EvalCounters | None = None,
) -> _Rules:
    """run_request's rules as arrays. A request is checked when it is made."""
    lattice = CandidateLattice(
        request.lhs,
        dist.domain,
        DEFAULT_CANDIDATE_BUDGET if candidate_budget is None else candidate_budget,
    )
    return _rules(
        request.algorithm,
        dist,
        lattice,
        request.rhs_pattern,
        request.min_support,
        request.min_confidence,
        request.epsilon if request.algorithm.is_approximate else None,
        counters=counters,
    )


def run_request(
    dist: StatDistribution,
    request: DiscoveryRequest,
    *,
    candidate_budget: int | None = None,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """Run the request's algorithm over a fresh candidate lattice."""
    return _request_rules(
        dist, request, candidate_budget=candidate_budget, counters=counters
    ).mds()
