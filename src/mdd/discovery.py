"""The discovery algorithms: every candidate of the lattice counted at once
over a prefix of the distribution.

Each engine takes the records in any order and reads them in place. The
approximate engines take k from compute_prefix_k, which the counts alone
decide, index the first k records of the nonincreasing-probability order
(only the records whose count is at least the k-th largest are ordered),
evaluate each candidate over them and bound the mass of the rest; the exact
engines are the same scans with k = n over the records as given. ea reads
every record for every candidate; eps adds dominance pruning by support;
epsc counts as a scan of the records grouped by the rhs pattern that also
stops a candidate where its running confidence drops below the minimum. ap
and aps are ea and eps over the first k records; api and apsi add a
per-candidate stop once the unseen mass is within the candidate's own
bound. Every run enters through _rules with a DiscoveryRequest, which
checked its arguments when it was made: the public engines build one from
theirs, run_request and the CLI pass their own. Every scan ends in one
_Rules record, the accepted rules' grid cells and joint and lhs counts as
arrays: the engines and run_request turn it into DiscoveredMd objects, and
the CLI writes its document from the arrays.

A scan without a per-candidate stop (ea, eps, ap, aps, and epsc's base pass)
is one pass over an upper-set count cube: two int64 histograms of the prefix
over the lhs level grid, each turned by a reversed cumulative sum along every
axis into the joint and lhs count of every candidate, in O(k + m * d^m) time
and 16 bytes per candidate (the superset sum behind the data cube; Gray et
al., ICDE 1996). The pruned engines' work counters follow in closed form: a
candidate is evaluated iff each immediate predecessor meets the support
minimum.

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

epsc's drop. epsc counts as the sequential scan over the records grouped by
the rhs pattern, the rhs-satisfying ones first, each group in its given
order; only its drops depend on that order, so no grouped copy is made. The
rhs-satisfying records keep a candidate's running confidence at 1, and past
them its joint mass J is final. So a candidate rejected on confidence that
meets support reads them all, then the others as given up to the first where
its running lhs mass reaches its limit J * eta_den // eta_num + 1; one that
misses support reads all n records, so that its upper set is pruned soundly.

The stop pass finds both kinds of stop over the run's records it is given,
the first record i where a cell's running mass in one column reaches
thresholds[i] plus the cell's limit: for api and apsi over the k prefix
records, the joint mass against t_i = ceil(R_i * f_den / f_num), for
f = f_num / f_den, computed once per record (in Python ints where the
product could overflow int64) with t_{k-1} = 0 ending every scan; for epsc
over the records that miss the rhs pattern, the lhs mass against its limit.
It runs over blocks of cells, on the records packed eight to a byte: the AND
of a cell's range-encoded bit rows, level >= t per attribute (Chan and
Ioannidis, SIGMOD 1998), is the records it holds; half-byte mass tables give
its joint and lhs mass at every byte's end; the test is monotone, so the
stop lies in the first byte whose last record passes it. Temporaries are
bounded by the block.

Lower bounds. A cell's totals over the prefix, from the cubes, bound its
stop from below. api's joint mass read never exceeds the joint total J and
the thresholds do not increase, so no stop comes before the first record
whose threshold is at most J; a cell bounded so at k - 1, as every one with
J = 0 is, stops there with its totals and reads nothing. epsc's lhs mass read
by the r-th record that misses the rhs pattern is at most J plus the mass of
those records up to r.
A cell reads its bit rows only from its bound's byte on, and the masses read
before a byte are its totals minus those of that byte and the later ones.
The cells go in bound order, each block from its first cell's byte, so a
pass costs about the sum over cells of (k - bound) * m / 8 byte ANDs instead
of |cells| * k * m / 8.

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
from collections import deque
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import repeat

import numpy as np

from .distribution import pattern_mask, probability_order
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
    """One engine run of a checked request over its lattice, holding the
    records its scans read, in the order they read them: each record's flat
    grid cell at its lhs levels, its count and whether it satisfies the rhs
    pattern. An exact run reads all k = n records as given; epsc's drop pass
    reads those that miss the rhs pattern (see _confidence_drops). An
    approximate run holds only the first k records of the probability order,
    k from compute_prefix_k, and carries api's bound factor, the bound over
    min_support (see _stop_pass); an exact run has no factor."""

    dist: InitVar[StatDistribution]
    request: DiscoveryRequest
    lattice: CandidateLattice
    counters: EvalCounters
    cells: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)
    rhs: np.ndarray = field(init=False)
    pair_total: int = field(init=False)
    min_support_count: int = field(init=False)
    k: int = field(init=False)
    mode: EvaluationMode = field(init=False)
    factor: Fraction | None = field(init=False, default=None)

    def __post_init__(self, dist: StatDistribution) -> None:
        request, rows = self.request, slice(None)
        self.counts, self.rhs = dist.counts, pattern_mask(dist, request.rhs_pattern)
        self.k, self.mode, self.pair_total = dist.n, EvaluationMode.exact(), dist.pair_total
        if request.algorithm.is_approximate:
            bound = compute_prefix_k(dist, request.epsilon, request.min_support,
                                     request.min_confidence)
            self.k, self.factor = bound.prefix_k, bound.bound / request.min_support
            self.mode = EvaluationMode.approximate(self.k, request.epsilon)
            rows = probability_order(dist, self.k)
            self.counts, self.rhs = self.counts[rows], self.rhs[rows]
        levels = dist.levels[rows][:, [dist.column_index(a) for a in self.lattice.attributes]]
        # a level above the lattice's top satisfies every threshold the top does
        np.minimum(levels, self.lattice.domain.d - 1, out=levels)
        self.cells = np.ravel_multi_index(levels.T, _grid(self))
        num, den = request.min_support.numerator, request.min_support.denominator
        self.min_support_count = -((-num * self.pair_total) // den)
        self.counters.candidates_total = self.lattice.candidate_count

    def finish(self, cells: np.ndarray, joint: np.ndarray, lhs: np.ndarray) -> _Rules:
        """The accepted rules from their flat grid cells, in ascending order,
        and their joint and lhs counts: ascending C-order cells are ascending
        level tuples."""
        self.counters.candidates_pruned_support = (
            self.counters.candidates_total - self.counters.candidates_evaluated
        )
        return _Rules(
            self.lattice.attributes,
            self.lattice.domain,
            cells,
            joint,
            lhs,
            self.request.rhs_pattern,
            self.pair_total,
            self.mode,
            self.counters,
        )


def _build(cls: type, n: int, **fields) -> list:
    """n instances of the slotted class ``cls``, made by object.__new__
    without the class's own ``__new__`` or ``__init__``: each slot is
    written for every instance from its iterable of values through the
    slot's member descriptor, in C loops. The values must be what the
    constructor would have stored."""
    objs = list(map(object.__new__, repeat(cls, n)))
    for name, values in fields.items():
        deque(map(getattr(cls, name).__set__, objs, values), maxlen=0)
    return objs


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
        """The rules as DiscoveredMd objects (see _objects), made with the
        cyclic collector paused: every object made here stays alive, so the
        collector's passes over them would find nothing to free."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._objects()
        finally:
            if collecting:
                gc.enable()

    def _objects(self) -> list[DiscoveredMd]:
        """The rules built eagerly from the arrays by _build, so no Python
        frame runs per rule; the engines build every pattern valid, so the
        constructors' checks are skipped. The measures come reduced from
        measures(), so each Fraction's two slots take its lowest terms
        directly. Rules share their (attribute, level) entries: each
        attribute maps the levels present to one tuple each and level 0 to
        None, so a rule's entries are its row with the Nones filtered out,
        in attribute-index order as the pattern keeps them."""
        attrs, n = self.attributes, len(self.cells)
        levels = self.levels()
        columns = []
        for i in sorted(range(len(attrs)), key=lambda i: attrs[i].index):
            axis = levels[i].tolist()
            entry = {level: (attrs[i], level) for level in set(axis)}
            entry[0] = None
            columns.append(map(entry.__getitem__, axis))
        (support_num, support_den), (confidence_num, confidence_den) = self.measures()
        return _build(
            DiscoveredMd,
            n,
            lhs_pattern=_build(
                ThresholdPattern,
                n,
                entries=map(tuple, map(filter, repeat(None), zip(*columns))),
            ),
            rhs_pattern=repeat(self.rhs_pattern),
            support=_build(Fraction, n, _numerator=support_num, _denominator=support_den),
            confidence=_build(Fraction, n, _numerator=confidence_num, _denominator=confidence_den),
            mode=repeat(self.mode),
            counters=repeat(self.counters),
        )


# ---------------------------------------------------------------------------
# The prefix scans
# ---------------------------------------------------------------------------

# Candidates whose confidence is compared a block at a time, so the exact
# integer products never need a temporary the size of the cube.
_BLOCK = 1 << 16


def _grid(run: _Run) -> tuple[int, ...]:
    """The shape of the candidate grid, (d,)*m, indexed by levels."""
    return (run.lattice.domain.d,) * len(run.lattice.attributes)


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
    return object if run.pair_total * max(ratio.numerator, ratio.denominator) >= 2**63 else np.int64


def _confident(run: _Run, joint: np.ndarray, lhs: np.ndarray) -> np.ndarray:
    """Where joint / lhs >= min_confidence, tested as joint * den >= num * lhs
    in exact integers (true where lhs = 0)."""
    eta = run.request.min_confidence
    num, den = eta.numerator, eta.denominator
    exact = _exact_dtype(run, eta)
    confident = np.empty(joint.shape, dtype=bool)
    flat_joint, flat_lhs = joint.reshape(-1), lhs.reshape(-1)
    flat_confident = confident.reshape(-1)
    for lo in range(0, flat_confident.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        j = flat_joint[block].astype(exact, copy=False)
        l = flat_lhs[block].astype(exact, copy=False)
        flat_confident[block] = j * den >= num * l
    return confident


def _cube_scan(run: _Run, *, prune: bool, confidence_stop: bool = False) -> _Rules:
    """Evaluate every candidate over the first k records at once, from the
    upper-set count cubes, with the counters the sequential scan would
    report: every evaluated candidate reads the whole prefix, and with
    ``prune`` only the closed-form evaluated set counts.

    ``confidence_stop`` makes this epsc. It prunes iff a candidate misses
    support, as eps does, so it evaluates the same set. It rejects the
    evaluated candidates whose confidence is below the minimum; the ones that
    also meet support stop reading at the drop (_confidence_drops)."""
    k, rhs = run.k, run.rhs
    joint = _upper_set_cube(_grid(run), run.cells[rhs], run.counts[rhs])
    lhs = _upper_set_cube(_grid(run), run.cells, run.counts)
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
        cells = np.flatnonzero(rejected)
        if cells.size:  # with no drop, nothing is built
            read = _confidence_drops(run, cells, joint.reshape(-1)[cells], lhs.reshape(-1)[cells])
            run.counters.records_evaluated -= k * cells.size - read
    # every candidate that meets support is evaluated: its predecessors do too
    confident &= meets
    cells = np.flatnonzero(confident)
    return run.finish(cells, joint.reshape(-1)[cells], lhs.reshape(-1)[cells])


def _confidence_drops(run: _Run, cells: np.ndarray, joint: np.ndarray, lhs: np.ndarray) -> int:
    """The records that the cells, rejected by epsc while they meet support,
    read up to their drops in the grouped order, from their joint and lhs
    totals: every rhs record, then the others up to the drop, which the stop
    pass finds. Each cell's limit is joint * eta_den // eta_num + 1, at most
    its lhs total, and its lower bound the first other record r where the
    joint total and the mass of the other records up to r reach it."""
    eta = run.request.min_confidence
    limits = joint.astype(_exact_dtype(run, eta)) * eta.denominator // eta.numerator + 1
    limits = limits.astype(np.int64)
    others = np.flatnonzero(~run.rhs)
    bounds = np.searchsorted(np.cumsum(run.counts[others]), limits - joint)
    # thresholds of 0 for every record, as a read-only view that takes no memory
    thresholds = np.broadcast_to(np.int64(0), (-(-others.size // 8) * 8,))
    read = _stop_pass(run, others, 1, thresholds, cells, joint, lhs, np.arange(cells.size), bounds,
                      limits)
    return read + (run.k - others.size) * cells.size


# ---------------------------------------------------------------------------
# The stop pass: the individual stops of api and apsi, epsc's drops
# ---------------------------------------------------------------------------

# The stop pass takes this many (cell, record byte) pairs at a time, so its
# temporaries never grow with |cells| * k.
_STOP_BLOCK = 1 << 15


def _thresholds(run: _Run) -> np.ndarray:
    """api's stop thresholds over the run's k records, sorted, with the
    bound factor num / den: the unseen mass after record i is within the
    bound on the joint mass J_i read so far, suffix[i] * den <= num * J_i,
    iff J_i >= thresholds[i] = ceil(suffix[i] * den / num), exact; the last
    record's is 0, and so is the padding to whole bytes of records."""
    k, pair_total, factor = run.k, run.pair_total, run.factor
    suffix = (pair_total - np.cumsum(run.counts)).astype(_exact_dtype(run, factor))
    thresholds = -((-suffix * factor.denominator) // factor.numerator)
    # while unseen mass is left, the joint mass read is below pair_total;
    # with none left the threshold is 0. So a cap at pair_total changes no
    # decision and brings every threshold into int64.
    padded = np.zeros(-(-k // 8) * 8, dtype=np.int64)
    padded[: k - 1] = np.minimum(thresholds[: k - 1], pair_total)
    return padded


def _failures(run: _Run, thresholds: np.ndarray) -> tuple[np.ndarray, ...]:
    """apsi's failures, the candidates that read the whole prefix and miss
    the support minimum, and the joint cube at all k records they come from.
    They are an upper set, from the joint cube at k - 1 records, the last
    test before the end, and at all k."""
    k, shape, cells, counts = run.k, _grid(run), run.cells, run.counts
    rhs = run.rhs[: k - 1]
    joint = _upper_set_cube(shape, cells[: k - 1][rhs], counts[: k - 1][rhs])
    failed = joint < thresholds[k - 2] if k > 1 else np.ones(shape, dtype=bool)
    if run.rhs[k - 1]:
        # the last record adds to every candidate it satisfies, its lower set
        last = np.unravel_index(cells[k - 1], shape)
        joint[tuple(slice(level + 1) for level in last)] += counts[k - 1]
    failed &= joint < run.min_support_count
    return failed, joint


def _lower_bounds(thresholds: np.ndarray, k: int, joint: np.ndarray) -> np.ndarray:
    """For each cell's joint total over the prefix, the first record where
    api's threshold is at most it: no stop comes earlier."""
    bounds = np.searchsorted(thresholds[k - 1 :: -1], joint, side="right")
    return np.subtract(k, bounds, out=bounds)


def _stop_pass(
    run: _Run, records: np.ndarray, column: int, thresholds: np.ndarray, cells: np.ndarray,
    joint: np.ndarray, lhs: np.ndarray, reading: np.ndarray, bounds: np.ndarray,
    limits: np.ndarray | None = None,
) -> int:
    """The records read by the cells at the indices ``reading`` over the
    run's ``records`` in their order: a cell stops after the first record i
    where its running mass in ``column`` (0 joint, 1 lhs) reaches
    thresholds[i] plus its limit, from ``limits``, 0 without it. The cells'
    joint and lhs totals turn into their masses at their stops in place;
    ``bounds`` bounds their stops from below and is sorted in place.

    The records are packed from the first bound's byte on, padded to whole
    bytes with level -1, count 0 and threshold 0, which no cell holds. The
    cells go in order of their bounds, and each block of cells reads at most
    _STOP_BLOCK (cell, record byte) pairs, or one cell, a cell counting as
    at least the 8 records of its stop byte. Bit j of byte b is record
    8b + j; a block's bit rows are built for the levels its cells use."""
    if not reading.size:
        return 0
    reading = reading[np.argsort(bounds, kind="stable")]
    bounds.sort()
    start = int(bounds[0]) // 8
    records, thresholds = records[8 * start :], thresholds[8 * start :]
    size, count = thresholds.size, records.size
    # each record's joint and lhs count; every mass is at most pair_total
    dtype = np.int32 if run.pair_total < 2**31 else np.int64  # int32 halves the tables
    masses = np.zeros((size, 2), dtype=dtype)
    np.copyto(masses[:count, 1], run.counts[records])
    np.multiply(masses[:count, 1], run.rhs[records], out=masses[:count, 0])
    # the lhs levels, one contiguous row per attribute, unravelled from the cells
    d = run.lattice.domain.d
    levels = np.full((len(run.lattice.attributes), size), -1, dtype=np.int16)
    rest = run.cells[records]
    for row in levels[::-1]:
        row[:count] = rest % d
        rest //= d
    # tables[v, h]: the joint and lhs mass of the records of half byte h
    # whose bits v sets, at most pair_total; bit j adds record j's masses,
    # quads[j], one contiguous row over all half bytes
    quads = np.ascontiguousarray(masses.reshape(-1, 4, 2).transpose(1, 0, 2))
    tables = np.zeros((16, size // 4, 2), dtype=dtype)
    for j in range(4):
        np.add(tables[: 1 << j], quads[j], out=tables[1 << j : 2 << j])
    # byte b's low and high half bytes are half bytes 2b and 2b + 1
    halves = np.intp(tables.shape[1])
    tables = tables.reshape(-1, 2)
    read, lo = 0, 0
    while lo < reading.size:
        first = int(bounds[lo]) // 8 - start
        hi = min(reading.size, lo + max(1, _STOP_BLOCK // max(8, size // 8 - first)))
        part = reading[lo:hi]
        limit = 0 if limits is None else limits[part, None]
        held = None
        for row, cell_levels in zip(levels, np.unravel_index(cells[part], _grid(run))):
            used = np.flatnonzero(np.bincount(cell_levels)).astype(row.dtype)
            packed = np.packbits(row[8 * first :] >= used[:, None], axis=1, bitorder="little")
            bits = packed[np.searchsorted(used, cell_levels)]
            held = bits if held is None else np.bitwise_and(held, bits, out=held)
        low = np.arange(2 * first, halves, 2)
        block = np.take(tables, (held & 15) * halves + low, axis=0)
        block += np.take(tables, (held >> 4) * halves + (low + 1), axis=0)
        np.cumsum(block, axis=1, out=block)
        block += (np.column_stack((joint[part], lhs[part])) - block[:, -1])[:, None]
        byte = np.argmax(block[..., column] >= thresholds[8 * first + 7 :: 8] + limit, axis=1)
        rows = np.arange(part.size)
        # the running masses inside the stop byte, from the masses at its end
        end = block[rows, byte]
        record = 8 * (first + byte[:, None]) + np.arange(8)
        running = masses[record]
        running *= np.unpackbits(held[rows, byte, None], axis=1, bitorder="little")[..., None]
        np.cumsum(running, axis=1, out=running)
        running += (end - running[:, -1])[:, None]
        stop = np.argmax(running[..., column] >= thresholds[record] + limit, axis=1)
        joint[part], lhs[part] = running[rows, stop].T
        read += int((record[rows, stop] + 8 * start + 1).sum())
        lo = hi
    return read


def _stop_scan(run: _Run, *, prune: bool) -> _Rules:
    """api's scan: each candidate reads the prefix up to its stop. With
    ``prune`` (apsi) only the closed-form evaluated set is resolved: the
    candidates with no immediate predecessor among the failures. Each cell's
    masses live in one joint and one lhs array from the cubes to the end."""
    k, thresholds = run.k, _thresholds(run)
    failed, joint = _failures(run, thresholds)
    joint = joint.reshape(-1)
    if prune:
        cells = np.flatnonzero(_evaluated(~failed))
        joint = joint[cells]
    else:
        cells = np.arange(joint.size)
    del failed
    run.counters.candidates_evaluated += cells.size
    lhs = _upper_set_cube(_grid(run), run.cells, run.counts).reshape(-1)
    if prune:
        lhs = lhs[cells]
    # a joint total below the threshold at record k - 2 bounds a cell at
    # k - 1: it stops there, at its totals, without reading
    reading = np.flatnonzero(joint >= thresholds[k - 2]) if k > 1 else cells[:0]
    run.counters.records_evaluated += k * (cells.size - reading.size)
    bounds = _lower_bounds(thresholds, k, joint[reading])
    read = _stop_pass(run, np.arange(k), 0, thresholds, cells, joint, lhs, reading, bounds)
    run.counters.records_evaluated += read
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


def compute_prefix_k(
    dist: StatDistribution,
    epsilon: RationalLike,
    min_support: RationalLike,
    min_confidence: RationalLike,
) -> ApproxBound:
    """The prefix bound from the record counts alone, in any order: the
    smallest k such that the records past the first k of the probability
    order hold at most the bound, compared in exact integers. Those records
    are the n - k smallest, and at least one record is read, so k always
    exists."""
    eps = to_fraction(epsilon, "epsilon")
    eta_s = to_fraction(min_support, "min_support")
    eta_c = to_fraction(min_confidence, "min_confidence")
    validate_thresholds(eta_s, eta_c, eps)

    bound = eta_s * _bound_factor(eps, eta_c)
    pair_total = dist.pair_total
    limit = bound.numerator * pair_total // bound.denominator
    smallest = np.cumsum(np.sort(dist.counts))
    skip = min(int(np.searchsorted(smallest, limit, side="right")), dist.n - 1)
    return ApproxBound(
        epsilon=eps,
        min_support=eta_s,
        min_confidence=eta_c,
        bound=bound,
        suffix_mass=Fraction(int(smallest[skip - 1]) if skip else 0, pair_total),
        prefix_k=dist.n - skip,
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
    dist: StatDistribution,
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
    ``dist`` may come in any order; this and the other approximate engines
    read its first k records in sort_by_probability_desc's order."""
    return _engine(Algorithm.AP, dist, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


def api(
    dist: StatDistribution,
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
    return _engine(Algorithm.API, dist, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


def aps(
    dist: StatDistribution,
    lattice: CandidateLattice,
    rhs_pattern: ThresholdPattern,
    min_support: RationalLike,
    min_confidence: RationalLike,
    epsilon: RationalLike,
    *,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """ap plus dominance pruning on the approximate support."""
    return _engine(Algorithm.APS, dist, lattice, rhs_pattern, min_support, min_confidence,
                   epsilon, counters=counters)


def apsi(
    dist: StatDistribution,
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
    return _engine(Algorithm.APSI, dist, lattice, rhs_pattern, min_support, min_confidence,
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
    """A public engine's rules, from the request its arguments make: the
    request's checks are the engine's."""
    request = DiscoveryRequest.build(
        lattice.attributes, rhs_pattern.attributes, rhs_pattern,
        min_support, min_confidence, algorithm, epsilon,
    )
    return _rules(dist, request, lattice, counters).mds()


def _rules(
    dist: StatDistribution,
    request: DiscoveryRequest,
    lattice: CandidateLattice,
    counters: EvalCounters | None,
) -> _Rules:
    """The one entry point of every engine call, from the public engines,
    run_request and the CLI: the request's algorithm over the lattice of its
    lhs attributes, its accepted rules as arrays. A request is checked when
    it is made."""
    run = _Run(dist, request, lattice, EvalCounters() if counters is None else counters)
    algorithm = request.algorithm
    if algorithm in (Algorithm.API, Algorithm.APSI):
        return _stop_scan(run, prune=algorithm is Algorithm.APSI)
    return _cube_scan(
        run,
        prune=algorithm not in (Algorithm.EA, Algorithm.AP),
        confidence_stop=algorithm is Algorithm.EPSC,
    )


def run_request(
    dist: StatDistribution,
    request: DiscoveryRequest,
    *,
    candidate_budget: int | None = None,
    counters: EvalCounters | None = None,
) -> list[DiscoveredMd]:
    """Run the request's algorithm over a fresh candidate lattice."""
    budget = DEFAULT_CANDIDATE_BUDGET if candidate_budget is None else candidate_budget
    lattice = CandidateLattice(request.lhs, dist.domain, budget)
    return _rules(dist, request, lattice, counters).mds()
