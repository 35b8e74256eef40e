"""Build the pairwise-similarity statistical distribution from a relation,
reorder it for the discovery algorithms, and persist it to a cache file.

Construction covers all N*(N-1)/2 unordered tuple pairs; no blocking or
sampling is applied, so the resulting counts are exact. It works through
distinct values: each column becomes integer codes over its sorted distinct
values, and one ``u x u`` level matrix per attribute holds the discretized
similarity of every pair of distinct values, so the metric runs once per
value pair however often the pair recurs. The pairs themselves are then
counted a block of rows at a time: each pair's levels are looked up in the
matrices and folded into one mixed-radix code, in the narrowest integer type
that holds every code, and the codes are counted in one dense table where
there are few of them, or sorted and tallied per block where there are many.
The records come out sorted by level vector. The matrices are computed in
numpy in one process, many value pairs to an operation, and equal the
per-pair metric's levels bit for bit. A value past its kernel's exact range
is compared with the scalar metric, against every other value of its column,
while the rest of the column stays in numpy.
"""

from __future__ import annotations

import hashlib
import urllib.parse
from array import array
from typing import Sequence

import numpy as np

from .errors import (
    DistributionIOError,
    InsufficientDataError,
    ValidationError,
)
from .model import (
    AttributeId,
    LevelDomain,
    Relation,
    StatDistribution,
    ThresholdPattern,
    sorted_rows,
)
from .simkit import (
    EDIT,
    MetricKind,
    MetricMap,
    discretize,
    profile,
    profile_similarity,
    resolve_metrics,
)

_FORMAT_TAG = "#mdd-dist"
_FORMAT_VERSION = "v1"


def relation_fingerprint(
    relation: Relation,
    attrs: Sequence[AttributeId],
    metrics: Sequence[MetricKind],
    domain: LevelDomain,
) -> str:
    """Hash of the source rows and build parameters, kept in the cache header
    so a stale cache can be told apart from a rebuilt one."""
    h = hashlib.sha256()
    h.update(f"{_FORMAT_VERSION}|d={domain.d}|n={relation.tuple_count}".encode())
    for a, m in zip(attrs, metrics):
        h.update(f"|{a.index}:{urllib.parse.quote(a.name)}:{m.spec()}".encode())
    for row in relation.rows:
        for a in attrs:
            value = row[a.index]
            h.update(len(value).to_bytes(8, "little"))
            h.update(value.encode("utf-8"))
    return h.hexdigest()


# Pair codes are produced and counted 256 KB at a time: this many int64
# codes, or 2 or 4 times as many int32 or int16 ones. This keeps the build's
# temporaries at a few MB whatever the number of rows; larger blocks are no
# faster and only raise the process's peak RSS. Up to this many distinct
# codes (d**m) the pairs are counted into a dense int64 table, as large as a
# block; beyond it a table and each block's bincount would grow with d**m,
# so each block is sorted in place instead. The cosine and edit level
# matrices are computed over blocks of about this many distinct-value pairs
# too.
_BLOCK_PAIRS = 1 << 15


def _cosine_rows(
    values: Sequence[str], metric: MetricKind, domain: LevelDomain
) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangle of the level matrix for a cosine metric, computed over
    posting lists, and the mask of the values it leaves out: those whose
    squared norm ``sq`` has ``sq * sq >= 2**53``, where float64 no longer
    follows the scalar path. They add no entries, so their pairs stay 0.

    Each token's posting list holds the values that contain it, ascending,
    with their counts. Every later entry of a list adds ``c_i * c_j`` to the
    int64 dot product of the pair ``i < j``; pairs that share no token keep
    dot 0, which is level 0. That costs the sum of ``|P_t|**2 / 2`` over the
    tokens. The rows are done a block at a time, each block's dot products
    and similarities over at most about ``_BLOCK_PAIRS`` cells, and the
    posting-list pairs are expanded at most about ``_BLOCK_PAIRS`` at a time.
    """
    u = len(values)
    token_ids: dict = {}
    # array.array keeps the entries as 8-byte integers, not int objects
    owners, tokens, counts = array("q"), array("q"), array("q")
    sq = np.zeros(u, dtype=np.int64)
    marked = np.zeros(u, dtype=bool)
    for k, value in enumerate(values):
        bag, norm = profile(value, metric)
        # Below 2**53 every product the similarity needs (sq_a * sq_b, dot *
        # dot, dot <= sqrt(sq_a * sq_b)) is an exact int64 and converts to
        # float64 exactly, as Python's ints do in simkit._cosine.
        if norm * norm >= 2**53:
            marked[k] = True
            continue
        sq[k] = norm
        for token, count in bag.items():
            owners.append(k)
            tokens.append(token_ids.setdefault(token, len(token_ids)))
            counts.append(count)
    del token_ids
    owners, tokens = np.frombuffer(owners, dtype=np.int64), np.frombuffer(tokens, dtype=np.int64)
    # Entries sorted by (token, value): owners were appended in value order.
    order = np.argsort(tokens, kind="stable")
    owner, count = owners[order], np.frombuffer(counts, dtype=np.int64)[order]
    # How many entries follow each one in its posting list.
    later = np.cumsum(np.bincount(tokens))[tokens[order]] - 1 - np.arange(len(order))
    # Value k's entries, at their sorted positions: rank[first[k]:first[k + 1]].
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    first = np.searchsorted(owners, np.arange(u + 1))

    out = np.zeros((u, u), dtype=np.int16)
    empty = (sq == 0) & ~marked
    step = max(1, _BLOCK_PAIRS // u)
    for lo in range(0, u - 1, step):
        hi = min(u - 1, lo + step)
        dot = np.zeros((hi - lo) * u, dtype=np.int64)
        entries = rank[first[lo] : first[hi]]
        ends = np.cumsum(later[entries])
        a = 0
        while a < len(entries):
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + _BLOCK_PAIRS, side="right")))
            n = later[entries[a:b]]
            src = np.repeat(entries[a:b], n)
            # each entry paired with the n entries after it in its list
            dst = np.arange(1, len(src) + 1)
            dst -= np.repeat(np.cumsum(n) - n, n)
            dst += src
            # in place, so that at most four pair arrays are alive at once
            products = count[src]
            products *= count[dst]
            keys = owner[src]
            del src
            keys -= lo
            keys *= u
            keys += owner[dst]
            del dst
            np.add.at(dot, keys, products)
            a = b
        # simkit._cosine on the pairs with dot > 0, then simkit.discretize,
        # floor(sim * max_level + 0.5). Below 2**53 the sqrt and the divide
        # are correctly rounded from exact operands, so dot <= sqrt(sq_a * sq_b)
        # keeps sim in [0, 1], equal to 1 where dot * dot == sq_a * sq_b: the
        # exact Cauchy-Schwarz test and both clamps would change nothing.
        cell = np.flatnonzero(dot)
        dot = dot[cell]
        prod = sq[lo + cell // u]
        prod *= sq[cell % u]
        sim = np.sqrt(prod)
        np.divide(dot, sim, out=sim)
        sim *= domain.max_level
        sim += 0.5
        block = out[lo:hi]
        block.reshape(-1)[cell] = np.floor(sim, out=sim)
        # Two token-less values are 1; one token-less value, or dot 0, is 0.
        block[np.triu(empty[lo:hi, None] & empty, lo + 1)] = domain.max_level
    return out, marked


_LOW_BITS = np.array([(1 << m) - 1 for m in range(65)], dtype=np.uint64)


def _edit_rows(
    values: Sequence[str], metric: MetricKind, domain: LevelDomain
) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangle of the level matrix for ``edit``, and the mask of the
    values it leaves out: those longer than 64 characters after ``.lower()``,
    whose rows and columns stay 0. ``simkit._myers`` in numpy, one uint64
    lane per pair of values (Myers, JACM 1999; many pairs to an operation as
    in Hyyro, Fredriksson & Navarro, ACM JEA 2005).

    The row's value is the pattern, the later value the text. Blocks of
    ``w = _BLOCK_PAIRS // max(u, sigma)`` rows share a ``w x sigma`` table
    of their patterns' character bits, for the column's ``sigma`` characters, and
    sort their pairs longest text first, so the lanes still reading at text
    position ``t`` are a prefix. No step masks the bits above a pattern's
    length, as they never reach those below: the distance is ``len(text) +
    popcount(pv) - popcount(mv)`` over the pattern's bits, so ``len(text)``
    for an empty pattern.
    """
    u = len(values)
    lowered = [v.lower() for v in values]
    lengths = np.array([len(s) for s in lowered], dtype=np.intp)
    short = lengths <= 64
    points = "".join(s[:64].ljust(64, "\0") for s in lowered).encode("utf-32-le", "surrogatepass")
    _, text = np.unique(np.frombuffer(points, dtype=np.uint32), return_inverse=True)
    text = text.astype(np.int32).reshape(u, 64).T.copy()  # text[t, k]: character t of value k
    sigma = int(text.max()) + 1
    out = np.zeros((u, u), dtype=np.int16)
    step = max(1, _BLOCK_PAIRS // max(u, sigma))
    for lo in range(0, u - 1, step):
        hi = min(u - 1, lo + step)
        rows = np.arange(hi - lo) * sigma
        peq = np.zeros((hi - lo) * sigma, dtype=np.uint64)
        for i in range(64):
            peq[(rows + text[i, lo:hi])[lengths[lo:hi] > i]] |= np.uint64(1 << i)
        cells = np.flatnonzero(np.triu(short[lo:hi, None] & short, lo + 1))
        cells = cells[np.argsort(-lengths[cells % u])]
        row, col = np.divmod(cells, u)
        tlen, base = lengths[col], rows[row]
        pv = np.full(len(cells), ~np.uint64(0))
        mv = np.zeros_like(pv)
        for t, k in enumerate(np.searchsorted(-tlen, -np.arange(tlen.max(initial=0)))):
            p, m = pv[:k], mv[:k]
            eq = peq.take(text[t].take(col[:k]) + base[:k])
            xv = eq | m
            xh = (((eq & p) + p) ^ p) | eq
            ph = m | ~(xh | p)
            mh = p & xh
            ph = (ph << 1) | 1  # row 0 of the DP is 0, 1, 2, ...
            mv[:k] = ph & xv
            pv[:k] = (mh << 1) | ~(xv | ph)
        width = lengths[lo + row]
        dist = np.bitwise_count(pv & _LOW_BITS[width]) + tlen - np.bitwise_count(mv)
        # 1.0 - dist / len(longer), then discretize: simkit's float64 order
        sim = 1.0 - dist / np.maximum(width, tlen)
        out[lo:hi].reshape(-1)[cells] = np.floor(sim * domain.max_level + 0.5)
        del cells, row, col, tlen, base, pv, mv, width, dist, sim  # before the next block allocates
    return out, ~short


def _level_matrix(values: Sequence[str], metric: MetricKind, domain: LevelDomain) -> np.ndarray:
    """The symmetric ``u x u`` int16 level matrix of a column's distinct
    values. The upper triangle comes from ``_edit_rows`` or ``_cosine_rows``;
    the values a kernel marks get their row and column from the scalar
    metric, one value against every other, over profiles made once. The
    upper triangle is then copied onto the lower one a block of rows at a
    time, so no ``u x u`` temporary is made. A pair of two marked values is
    scored once, from the earlier value's row."""
    kernel = _edit_rows if metric.kind == EDIT else _cosine_rows
    matrix, marked = kernel(values, metric, domain)
    profiles = [profile(v, metric) for v in values] if marked.any() else []
    for k in np.flatnonzero(marked):
        # profile_similarity is symmetric, bit for bit, in its two arguments
        before = np.flatnonzero(~marked[:k])
        matrix[before, k] = [
            discretize(profile_similarity(profiles[k], profiles[j], metric), domain)
            for j in before
        ]
        matrix[k, k + 1 :] = [
            discretize(profile_similarity(profiles[k], other, metric), domain)
            for other in profiles[k + 1 :]
        ]
    u = len(matrix)
    step = max(1, _BLOCK_PAIRS // u)
    for lo in range(0, u, step):
        hi = min(u, lo + step)
        matrix[lo:hi, :lo] = matrix[:lo, lo:hi].T
        square = matrix[lo:hi, lo:hi]
        square += square.T
    # Identical strings have similarity 1 under every metric.
    np.fill_diagonal(matrix, domain.max_level)
    return matrix


def _tally(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys, ascending, with their multiplicities; sorts ``keys`` in
    place (``np.unique`` would sort a copy)."""
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.diff(np.append(starts, len(keys)))


def _merge_counts(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Sum counts over equal keys; keys come out sorted ascending."""
    keys, inverse = np.unique(
        np.concatenate([k for k, _ in parts]), return_inverse=True
    )
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in parts]))
    return keys, counts


# Pair-code types, narrowest first; codes past int64 are Python integers.
_KEY_TYPES = (np.int16, np.int32, np.int64)


def _pair_histogram(
    codes: Sequence[np.ndarray], matrices: Sequence[np.ndarray], d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct level vectors over all pairs ``i < j`` of rows, sorted
    ascending, and how many pairs have each.

    Each pair's levels ``L_c[codes_c[i], codes_c[j]]`` are folded into one
    mixed-radix code with base ``d``, so ascending codes are ascending level
    vectors. The codes take the narrowest of int16, int32 and int64 that
    holds ``d**m - 1``, and are Python integers in an object array past
    int64. Levels lie in ``0..d-1``, so no weight ``d**(m-1-c)``, product or
    partial sum exceeds ``d**m - 1``, and numpy's silent wrap-around cannot
    occur.

    The upper triangle is walked ``w`` rows ``s..e`` at a time. A block's
    codes are ``sum_c d**(m-1-c) * L_c[codes_c[s:e]][:, codes_c[s:]]``, kept
    transposed as an ``(n - s) x w`` array, so the pairs are its rows past
    ``w``, one contiguous slice, and the strict lower triangle of its leading
    ``w x w`` square. A block holds ``k`` codes, 256 KB of them (``k =
    _BLOCK_PAIRS`` int64 codes, twice as many int32, four times as many
    int16), and takes ``w = k // max(u, n - s)`` rows, at least one, for the
    ``u`` values of the widest level matrix, so it and each weighted ``u x
    w`` matrix slice hold at most ``k`` codes unless one row alone is
    longer. While ``d**m <= _BLOCK_PAIRS`` (int16 codes, at the default) the
    codes are counted into one dense table; above that each block is sorted
    in place and tallied, and the tallies are merged. The codes are decoded
    into levels in int64, as ``d`` itself need not fit their type (``d =
    2**15``, ``m = 1``).
    """
    n, m = len(codes[0]), len(codes)
    size = d**m
    dtype = next((t for t in _KEY_TYPES if size - 1 <= np.iinfo(t).max), object)
    block = _BLOCK_PAIRS * 8 // np.dtype(dtype).itemsize
    table = np.zeros(size, dtype=np.int64) if size <= _BLOCK_PAIRS else None
    widest = max(len(matrix) for matrix in matrices)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    pending = 0
    limit = block
    s = 0
    while s < n - 1:
        e = min(n - 1, s + max(1, block // max(widest, n - s)))
        w = e - s
        keys = None
        for c, (col, matrix) in enumerate(zip(codes, matrices)):
            # L_c[:, codes_c[s:e]] is L_c[codes_c[s:e]] transposed: L_c is symmetric
            weighted = matrix[:, col[s:e]].astype(dtype, copy=False)
            weighted *= d ** (m - 1 - c)
            # np.take gathers whole rows several times faster than weighted[col[s:]]
            if keys is None:
                keys = weighted.take(col[s:], axis=0)
            else:
                keys += weighted.take(col[s:], axis=0)
        for pairs in (keys[:w][np.tri(w, k=-1, dtype=bool)], keys[w:].reshape(-1)):
            if table is not None:
                table += np.bincount(pairs, minlength=size)
            elif len(pairs):
                parts.append(_tally(pairs))
                pending += len(parts[-1][0])
        # Fold the per-block tallies once they outgrow both a block and twice
        # the running total, so memory and merge work stay linear.
        if pending > limit:
            parts = [_merge_counts(parts)]
            pending = len(parts[0][0])
            limit = max(block, 2 * pending)
        s = e
    if table is not None:
        keys = np.flatnonzero(table)
        counts = table[keys]
    else:
        keys, counts = _merge_counts(parts)
        if dtype is not object:
            keys = keys.astype(np.int64, copy=False)
    levels = np.empty((len(keys), m), dtype=np.int16)
    for c in range(m - 1, -1, -1):
        levels[:, c] = keys % d
        keys = keys // d
    return levels, counts


def build_distribution(
    relation: Relation,
    attrs: Sequence[AttributeId],
    metrics: MetricMap,
    domain: LevelDomain,
    *,
    workers: int = 1,
) -> StatDistribution:
    """Aggregate the discretized similarity vector of every unordered tuple
    pair into a statistical distribution over ``attrs``.

    Attributes outside ``attrs`` never enter the records, which is equivalent
    to marginalizing them away up front. ``workers`` must be at least 1 and
    changes nothing: the build runs in one process.
    """
    attrs = tuple(dict.fromkeys(attrs))
    if not attrs:
        raise ValidationError("need at least one attribute to build a distribution")
    for a in attrs:
        relation.column(a)  # raises SchemaMismatchError on unknown attributes
    n = relation.tuple_count
    if n < 2:
        raise InsufficientDataError(f"need at least 2 tuples to form pairs, got {n}")
    if workers < 1:
        raise ValidationError("workers must be >= 1")

    per_attr = resolve_metrics(attrs, metrics)
    matrices, codes = [], []
    for a, metric in zip(attrs, per_attr):
        column = relation.column(a)
        values = sorted(set(column))
        index = {v: k for k, v in enumerate(values)}
        matrices.append(_level_matrix(values, metric, domain))
        codes.append(np.fromiter((index[v] for v in column), dtype=np.intp, count=n))
    levels, counts = _pair_histogram(codes, matrices, domain.d)
    return StatDistribution(
        attrs,
        domain,
        levels,
        counts,
        n * (n - 1) // 2,
        relation_fingerprint(relation, attrs, per_attr, domain),
        metric_specs=tuple(m.spec() for m in per_attr),
    )


def pattern_mask(dist: StatDistribution, pattern: ThresholdPattern) -> np.ndarray:
    """Boolean vector over records: which satisfy every pattern threshold."""
    mask = np.ones(dist.n, dtype=bool)
    for attr, level in pattern.items():
        # resolve the column even at level 0, so an unknown attribute raises
        col = dist.column_index(attr)
        dist.domain.check_level(level, f"threshold for {attr.name}")
        if level > 0:
            mask &= dist.levels[:, col] >= level
    return mask


def group_by_rhs(
    dist: StatDistribution, rhs_pattern: ThresholdPattern
) -> tuple[StatDistribution, int]:
    """Stable two-bucket partition: records satisfying the rhs pattern first,
    the rest after, pivot = size of the first bucket. Linear time."""
    mask = pattern_mask(dist, rhs_pattern)
    pivot = int(mask.sum())
    idx = np.arange(dist.n)
    order = np.concatenate([idx[mask], idx[~mask]])
    return dist.replace_order(order), pivot


def sort_by_probability_desc(dist: StatDistribution) -> StatDistribution:
    """Records in nonincreasing count order; ties broken by ascending level
    vector for run-to-run determinism."""
    return probability_prefix(dist, dist.n)


def probability_prefix(dist: StatDistribution, k: int) -> StatDistribution:
    """The first k records of sort_by_probability_desc(dist). Only the
    records whose count is at least the k-th largest are ordered: every
    other record lies past them."""
    held, levels, counts = None, dist.levels, dist.counts
    if k < dist.n:
        held = np.flatnonzero(counts >= np.partition(counts, dist.n - k)[dist.n - k])
        levels, counts = levels[held], counts[held]
    keys = [levels[:, c] for c in range(levels.shape[1] - 1, -1, -1)]
    keys.append(-counts)
    order = np.lexsort(keys)[:k]
    return dist.replace_order(order if held is None else held[order])


def project(dist: StatDistribution, attrs: Sequence[AttributeId]) -> StatDistribution:
    """Marginalize the distribution onto a subset of its attributes, merging
    records that collide on the kept columns."""
    attrs = tuple(dict.fromkeys(attrs))
    if not attrs:
        raise ValidationError("distribution needs a nonempty attribute set")
    cols = [dist.column_index(a) for a in attrs]
    sub = dist.levels[:, cols]
    order, starts = sorted_rows(sub)
    uniq = sub[order[starts]]
    counts = np.add.reduceat(dist.counts[order], starts)
    specs = tuple(dist.metric_specs[c] for c in cols) if dist.metric_specs else ()
    h = hashlib.sha256()
    h.update(f"project|{dist.fingerprint}".encode())
    for a in attrs:
        h.update(f"|{a.index}:{urllib.parse.quote(a.name)}".encode())
    return StatDistribution._derived(
        attrs,
        dist.domain,
        uniq,
        counts,
        dist.pair_total,
        h.hexdigest(),
        metric_specs=specs,
    )


# ---------------------------------------------------------------------------
# Cache file format
# ---------------------------------------------------------------------------
#
#   #mdd-dist v1 d=<d> pairs=<pair_total> attrs=<comma-list> metric=<spec> fingerprint=<hex>
#   <level_1>,...,<level_m>,<count>
#   ...
#   #checksum=<sha256 of header+rows>
#
# Attribute names and metric specs are percent-encoded so commas and spaces in
# names cannot break the header. A uniform metric is written once; otherwise
# one spec per attribute, comma separated. The trailing checksum line guards
# the payload against truncation or edits.


def _header_line(dist: StatDistribution) -> str:
    # Source schema positions ride along so a reloaded distribution carries
    # the very same attribute identities it was built with.
    attrs = ",".join(
        f"{a.index}:{urllib.parse.quote(a.name, safe='')}" for a in dist.attribute_set
    )
    specs = dist.metric_specs or ("unspecified",) * len(dist.attribute_set)
    if len(set(specs)) == 1:
        metric = urllib.parse.quote(specs[0], safe=":")
    else:
        metric = ",".join(urllib.parse.quote(s, safe=":") for s in specs)
    return (
        f"{_FORMAT_TAG} {_FORMAT_VERSION} d={dist.domain.d} pairs={dist.pair_total} "
        f"attrs={attrs} metric={metric} fingerprint={dist.fingerprint}"
    )


def save_distribution(dist: StatDistribution, path) -> None:
    rows = np.column_stack((dist.levels, dist.counts)).tolist()
    row_format = ",".join(["%d"] * (len(dist.attribute_set) + 1))
    body = "\n".join([_header_line(dist), *(row_format % tuple(row) for row in rows)]) + "\n"
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
            fh.write(f"#checksum={checksum}\n")
    except OSError as exc:
        raise DistributionIOError(f"cannot write distribution cache {path}: {exc}") from exc


def _parse_payload(path, rows: list[str], width: int) -> np.ndarray:
    """The payload rows as an int64 array of ``width`` columns. One numpy
    conversion parses every cell, calling int() on each as the line loop
    does; where it or a row's width fails, the line loop runs instead, to
    name the line at fault."""
    try:
        if {row.count(",") for row in rows} != {width - 1}:
            raise ValueError("no rows, or a row of another width")
        return np.array(",".join(rows).split(","), dtype=np.int64).reshape(len(rows), width)
    except (ValueError, OverflowError):
        return _parse_rows(path, rows, width)


def _parse_rows(path, rows: list[str], width: int) -> np.ndarray:
    """The payload rows as an int64 array, one line at a time, raising
    DistributionIOError at the first line that is not ``width`` integers."""
    parsed = []
    for lineno, line in enumerate(rows, start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise DistributionIOError(
                f"{path}:{lineno}: expected {width} comma-separated integers"
            )
        try:
            parsed.append([int(c) for c in cells])
        except ValueError:
            raise DistributionIOError(f"{path}:{lineno}: non-integer cell") from None
    if not parsed:
        raise DistributionIOError(f"{path}: no records")
    try:
        return np.array(parsed, dtype=np.int64)
    except OverflowError:
        lineno = next(
            i for i, row in enumerate(parsed, start=2) if not all(-(2**63) <= c < 2**63 for c in row)
        )
        raise DistributionIOError(f"{path}:{lineno}: cell outside the int64 range") from None


def load_distribution(path) -> StatDistribution:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DistributionIOError(f"cannot read distribution cache {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DistributionIOError(f"{path}: not a UTF-8 text file ({exc.reason})") from None

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DistributionIOError(f"{path}: empty distribution cache")

    header = lines[0]
    parts = header.split(" ")
    if len(parts) < 2 or parts[0] != _FORMAT_TAG:
        raise DistributionIOError(f"{path}: not a distribution cache (bad magic)")
    if parts[1] != _FORMAT_VERSION:
        raise DistributionIOError(
            f"{path}: unsupported cache version {parts[1]!r}, expected {_FORMAT_VERSION}"
        )
    fields = {}
    for token in parts[2:]:
        if "=" not in token:
            raise DistributionIOError(f"{path}: malformed header token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    for required in ("d", "pairs", "attrs", "metric", "fingerprint"):
        if required not in fields:
            raise DistributionIOError(f"{path}: header missing {required}=")

    if not lines[-1].startswith("#checksum="):
        raise DistributionIOError(f"{path}: missing trailing checksum line")
    stated = lines[-1][len("#checksum="):]
    body = "\n".join(lines[:-1]) + "\n"
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if stated != actual:
        raise DistributionIOError(f"{path}: checksum mismatch (file corrupted?)")

    try:
        d = int(fields["d"])
        pair_total = int(fields["pairs"])
    except ValueError:
        raise DistributionIOError(f"{path}: non-integer d= or pairs= in header") from None
    attrs = []
    for tok in fields["attrs"].split(","):
        if not tok:
            continue
        idx, sep, name = tok.partition(":")
        if not sep or not (idx.isascii() and idx.isdigit()):
            raise DistributionIOError(f"{path}: malformed attrs= entry {tok!r}")
        try:
            attrs.append(AttributeId(int(idx), urllib.parse.unquote(name)))
        except ValueError as exc:  # also an index past the int digit limit
            raise DistributionIOError(f"{path}: malformed attrs= entry {tok!r}: {exc}") from None
    if not attrs:
        raise DistributionIOError(f"{path}: empty attrs= list")
    # Indices may have gaps and any order (a projection keeps its source
    # positions), but each names one attribute.
    for key in ("index", "name"):
        values = [getattr(a, key) for a in attrs]
        if len(set(values)) != len(values):
            raise DistributionIOError(f"{path}: attrs= lists an attribute {key} twice")
    attrs = tuple(attrs)
    raw_specs = [urllib.parse.unquote(tok) for tok in fields["metric"].split(",")]
    if len(raw_specs) == 1:
        specs = tuple(raw_specs * len(attrs))
    elif len(raw_specs) == len(attrs):
        specs = tuple(raw_specs)
    else:
        raise DistributionIOError(f"{path}: metric= list does not align with attrs=")

    data = _parse_payload(path, lines[1:-1], len(attrs) + 1)
    try:
        return StatDistribution(
            attrs,
            LevelDomain(d),
            data[:, :-1],
            data[:, -1],
            pair_total,
            fields["fingerprint"],
            metric_specs=specs,
        )
    except ValidationError as exc:
        raise DistributionIOError(f"{path}: invalid distribution payload: {exc}") from exc
