"""Core domain types: relations, level domains, statistical distributions,
threshold patterns, and discovery requests/results.

All types are immutable after construction, except EvalCounters: the rules
of one run share that run's mutable EvalCounters object, which takes no part
in their hash.
Probabilities are kept as exact integer counts over a pair-total denominator;
real-valued probabilities are derived on demand, so aggregate arithmetic stays
bit-stable.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    SchemaMismatchError,
    ValidationError,
)

RationalLike = Union[int, float, str, Fraction]


def to_fraction(value: RationalLike, name: str = "value") -> Fraction:
    """Canonical exact rational for a threshold-like quantity.

    Floats are read through their shortest repr, so ``0.15`` means 3/20 and
    not the binary expansion of the double. Strings accept both decimal
    ("0.15") and ratio ("3/20") forms.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValidationError(f"{name} must be finite, got {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        return _parse_fraction(value, name)
    raise ValidationError(f"{name} must be a number, got {type(value).__name__}")


def _parse_fraction(text: str, name: str) -> Fraction:
    """``Fraction(text)``, refused where its numerator or denominator would
    have more digits than ``sys.get_int_max_str_digits()`` allows printing."""
    limit = sys.get_int_max_str_digits()
    _, has_exponent, exponent = text.lower().partition("e")
    try:
        # Fraction raises 10 to the exponent before any digit limit applies
        if limit and has_exponent and abs(int(exponent)) > limit:
            value = None
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{name} is not a valid rational: {text!r}") from exc
    if limit and (value is None or max(abs(value.numerator), value.denominator) >= 10**limit):
        raise ValidationError(f"{name} has more than {limit} digits: {text!r}")
    return value


def validate_thresholds(
    min_support: Fraction, min_confidence: Fraction, epsilon: Fraction | None = None
) -> None:
    """Range checks shared by requests and compute_prefix_k, through which
    every approximate run takes its k. Confidence is undefined with zero
    support mass, and the run's bound factor divides the bound by
    min_support, so zero is rejected outright."""
    if not 0 < min_support <= 1:
        raise ValidationError("min_support must lie in (0, 1]")
    if not 0 < min_confidence <= 1:
        raise ValidationError("min_confidence must lie in (0, 1]")
    if epsilon is not None and not 0 < epsilon < 1 - min_confidence:
        raise ValidationError(
            "epsilon must satisfy 0 < epsilon < 1 - min_confidence "
            f"(got {epsilon} with min_confidence {min_confidence})"
        )


# ---------------------------------------------------------------------------
# Schema and relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AttributeId:
    """A named attribute at a fixed ordinal position within a schema."""

    index: int
    name: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValidationError(f"attribute index must be >= 0, got {self.index}")
        if not self.name:
            raise ValidationError("attribute name must be nonempty")


@dataclass(frozen=True)
class Relation:
    """An in-memory table of string values over a fixed schema."""

    schema: tuple[AttributeId, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.schema:
            raise ValidationError("relation schema must be nonempty")
        indices = [a.index for a in self.schema]
        if indices != list(range(len(self.schema))):
            raise ValidationError("schema indices must be 0..M-1 in order")
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValidationError("schema attribute names must be unique")
        width = len(self.schema)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValidationError(
                    f"row {i} has {len(row)} values, schema has {width} attributes"
                )

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Sequence[str]]) -> "Relation":
        schema = tuple(AttributeId(i, n) for i, n in enumerate(names))
        return cls(schema, tuple(tuple(map(str, row)) for row in rows))

    @property
    def tuple_count(self) -> int:
        return len(self.rows)

    def attribute(self, name: str) -> AttributeId:
        for a in self.schema:
            if a.name == name:
                return a
        raise SchemaMismatchError(f"unknown attribute {name!r}")

    def column(self, attr: AttributeId) -> tuple[str, ...]:
        if attr.index >= len(self.schema) or self.schema[attr.index] != attr:
            raise SchemaMismatchError(f"attribute {attr} not in schema")
        return tuple(map(operator.itemgetter(attr.index), self.rows))


MAX_LEVELS = 2**15  # levels 0..d-1 must fit the int16 level storage


@dataclass(frozen=True)
class LevelDomain:
    """Discrete similarity levels 0..d-1 shared by every attribute."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValidationError(f"level domain needs d >= 2, got {self.d}")
        if self.d > MAX_LEVELS:
            raise ValidationError(
                f"level domain needs d <= {MAX_LEVELS} (levels are stored as int16), got {self.d}"
            )

    @property
    def max_level(self) -> int:
        return self.d - 1

    def check_level(self, level: int, name: str = "level") -> int:
        if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
            raise ValidationError(f"{name} must be an integer, got {level!r}")
        if not 0 <= level <= self.d - 1:
            raise ValidationError(f"{name} must be in 0..{self.d - 1}, got {level}")
        return int(level)


# ---------------------------------------------------------------------------
# Threshold patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ThresholdPattern:
    """Per-attribute minimum similarity levels.

    Entries are kept sorted by attribute index, so equal patterns compare and
    hash equal regardless of construction order.
    """

    entries: tuple[tuple[AttributeId, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for attr, level in self.entries:
            if not isinstance(attr, AttributeId):
                raise ValidationError("pattern keys must be AttributeId")
            if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
                raise ValidationError(f"threshold for {attr.name} must be an integer")
            if level < 0:
                raise ValidationError(f"threshold for {attr.name} must be >= 0")
            if attr in seen:
                raise ValidationError(f"duplicate attribute {attr.name} in pattern")
            seen.add(attr)
        object.__setattr__(
            self,
            "entries",
            tuple(sorted(((a, int(l)) for a, l in self.entries), key=lambda e: e[0].index)),
        )

    @classmethod
    def of(cls, thresholds: Mapping[AttributeId, int]) -> "ThresholdPattern":
        return cls(tuple(thresholds.items()))

    @classmethod
    def over(cls, attrs: Sequence[AttributeId], levels: Sequence[int]) -> "ThresholdPattern":
        if len(attrs) != len(levels):
            raise ValidationError("attribute and level sequences differ in length")
        return cls(tuple(zip(attrs, levels)))

    @property
    def attributes(self) -> tuple[AttributeId, ...]:
        return tuple(a for a, _ in self.entries)

    def get(self, attr: AttributeId, default: int = 0) -> int:
        for a, l in self.entries:
            if a == attr:
                return l
        return default

    def items(self) -> tuple[tuple[AttributeId, int], ...]:
        return self.entries

    def as_dict(self) -> dict[AttributeId, int]:
        return dict(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, attr: AttributeId) -> bool:
        return any(a == attr for a, _ in self.entries)


def strip_zero_levels(pattern: ThresholdPattern) -> ThresholdPattern:
    """Drop zero thresholds; a zero level is satisfied by every record, so the
    satisfaction semantics are unchanged."""
    return ThresholdPattern(tuple((a, l) for a, l in pattern.entries if l > 0))


# ---------------------------------------------------------------------------
# Statistical distributions
# ---------------------------------------------------------------------------


def sorted_rows(rows: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable permutation that sorts the rows of a 2-D array of levels
    in 0..d-1 lexicographically, first column first, and the positions in
    that order where each run of equal rows starts."""
    if d ** rows.shape[1] < 2**63:
        # one int64 key per row, its levels read as base-d digits
        keys = rows[:, 0].astype(np.int64)
        for c in range(1, rows.shape[1]):
            keys *= d
            keys += rows[:, c]
        order = np.argsort(keys, kind="stable")
        ordered = keys[order, None]
    else:
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
    starts = np.ones(order.size, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    return order, np.flatnonzero(starts)


class StatDistribution:
    """Aggregated pairwise similarity levels with exact counts.

    Rows of ``levels`` are unique level vectors over ``attribute_set``;
    ``counts`` gives how many of the ``pair_total`` tuple pairs fell on each.
    Records may come in any order: every engine reads them in place, the
    approximate ones through an index of their probability-order prefix.
    """

    __slots__ = (
        "attribute_set",
        "domain",
        "levels",
        "counts",
        "pair_total",
        "fingerprint",
        "metric_specs",
        "__dict__",
    )

    def __init__(
        self,
        attribute_set: Sequence[AttributeId],
        domain: LevelDomain,
        levels: np.ndarray,
        counts: np.ndarray,
        pair_total: int,
        fingerprint: str,
        metric_specs: Sequence[str] = (),
    ) -> None:
        attribute_set = tuple(attribute_set)
        if not attribute_set:
            raise ValidationError("distribution needs a nonempty attribute set")
        if len(set(attribute_set)) != len(attribute_set):
            raise ValidationError("duplicate attributes in attribute set")
        # the checks read the caller's values, before any cast could change them
        levels, counts = np.asarray(levels), np.asarray(counts)
        for name, values in (("levels", levels), ("counts", counts)):
            if values.dtype.kind not in "iu":
                raise ValidationError(f"{name} must be integers, got dtype {values.dtype}")
        if levels.ndim != 2 or levels.shape[1] != len(attribute_set):
            raise ValidationError("levels must be an (n, m) array over the attribute set")
        if counts.shape != (levels.shape[0],):
            raise ValidationError("counts must align with levels rows")
        if levels.size and (levels.min() < 0 or levels.max() > domain.max_level):
            raise ValidationError(f"levels must lie in 0..{domain.max_level}")
        if counts.size and (counts.min() <= 0 or counts.max() > np.iinfo(np.int64).max):
            raise ValidationError("record counts must be positive int64 values")
        # own private copies: the write-protection below must not leak onto
        # caller-held arrays
        levels = np.array(levels, dtype=np.int16, order="C", copy=True)
        counts = np.array(counts, dtype=np.int64, order="C", copy=True)
        if pair_total <= 0:
            raise ValidationError("pair_total must be positive")
        # every count sum the engines form (cubes, prefixes) then fits int64
        if pair_total > np.iinfo(np.int64).max:
            raise ValidationError("pair_total must be below 2^63")
        # summed in 32-bit halves, so no int64 sum of many large counts wraps
        if (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum()) != pair_total:
            raise ValidationError("record counts must sum to pair_total")
        if sorted_rows(levels, domain.d)[1].size != levels.shape[0]:
            raise ValidationError("level vectors must be unique across records")
        if metric_specs and len(metric_specs) != len(attribute_set):
            raise ValidationError("metric_specs must align with the attribute set")
        self._assign(
            attribute_set, domain, levels, counts, pair_total, fingerprint, metric_specs
        )

    @classmethod
    def _derived(cls, *args, **kwargs) -> "StatDistribution":
        """Skip the checks for records derived from a valid distribution (a
        permutation, or a merge of the equal rows of some of its columns),
        which are valid by construction. Takes ownership of the fresh arrays."""
        dist = cls.__new__(cls)
        dist._assign(*args, **kwargs)
        return dist

    def _assign(self, attribute_set, domain, levels, counts, pair_total, fingerprint,
                metric_specs=()) -> None:
        levels.setflags(write=False)
        counts.setflags(write=False)
        self.attribute_set = attribute_set
        self.domain = domain
        self.levels = levels
        self.counts = counts
        self.pair_total = int(pair_total)
        self.fingerprint = fingerprint
        self.metric_specs = tuple(metric_specs)

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    @cached_property
    def _column_of(self) -> dict[AttributeId, int]:
        return {a: i for i, a in enumerate(self.attribute_set)}

    def column_index(self, attr: AttributeId) -> int:
        try:
            return self._column_of[attr]
        except KeyError:
            raise SchemaMismatchError(
                f"attribute {attr.name} not in this distribution's attribute set"
            ) from None

    def replace_order(self, order: np.ndarray) -> "StatDistribution":
        """New distribution with the records permuted by ``order`` (see _derived)."""
        return StatDistribution._derived(
            self.attribute_set,
            self.domain,
            self.levels[order],
            self.counts[order],
            self.pair_total,
            self.fingerprint,
            self.metric_specs,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatDistribution):
            return NotImplemented
        return (
            self.attribute_set == other.attribute_set
            and self.domain == other.domain
            and self.pair_total == other.pair_total
            and self.fingerprint == other.fingerprint
            and self.metric_specs == other.metric_specs
            and np.array_equal(self.levels, other.levels)
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        names = ",".join(a.name for a in self.attribute_set)
        return (
            f"StatDistribution(n={self.n}, attrs=[{names}], d={self.domain.d}, "
            f"pairs={self.pair_total})"
        )


# ---------------------------------------------------------------------------
# Discovery requests and results
# ---------------------------------------------------------------------------


class Algorithm(str, Enum):
    EA = "ea"
    EPS = "eps"
    EPSC = "epsc"
    AP = "ap"
    API = "api"
    APS = "aps"
    APSI = "apsi"

    @classmethod
    def parse(cls, name: str) -> "Algorithm":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValidationError(f"unknown algorithm {name!r}; expected one of {valid}") from None

    @property
    def is_approximate(self) -> bool:
        return self in (Algorithm.AP, Algorithm.API, Algorithm.APS, Algorithm.APSI)


@dataclass(frozen=True)
class EvaluationMode:
    """Whether reported measures are exact or prefix approximations."""

    kind: str
    prefix_k: int | None = None
    epsilon: Fraction | None = None

    @classmethod
    def exact(cls) -> "EvaluationMode":
        return cls("exact")

    @classmethod
    def approximate(cls, prefix_k: int, epsilon: Fraction) -> "EvaluationMode":
        return cls("approximate", prefix_k, epsilon)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


@dataclass
class EvalCounters:
    """Work counters for one discovery run.

    ``records_evaluated`` counts statistical-tuple evaluations as performed by
    the sequential formulation of each algorithm (the vectorized engine
    reproduces those numbers, not its own op counts).
    ``candidates_pruned_support`` counts candidates skipped via dominance,
    ``candidates_pruned_confidence`` counts candidates rejected by an early
    confidence drop (those were partially evaluated).
    """

    records_evaluated: int = 0
    candidates_evaluated: int = 0
    candidates_pruned_support: int = 0
    candidates_pruned_confidence: int = 0
    candidates_total: int = 0


@dataclass(frozen=True, slots=True)
class DiscoveredMd:
    """A validated rule: LHS pattern (zero levels removed), the fixed RHS
    pattern, and the measures under which it qualified."""

    lhs_pattern: ThresholdPattern
    rhs_pattern: ThresholdPattern
    support: Fraction
    confidence: Fraction
    mode: EvaluationMode
    # shared by every rule of the run and mutable, so it is compared but not
    # hashed
    counters: EvalCounters = field(hash=False)

    def __post_init__(self) -> None:
        if any(l == 0 for _, l in self.lhs_pattern.items()):
            raise ValidationError("lhs_pattern must not carry zero thresholds")


@dataclass(frozen=True)
class DiscoveryRequest:
    """Inputs of one discovery run over a fixed lhs -> rhs attribute split,
    checked when the request is made. Every engine call is checked here:
    the public engines build a request from their arguments, so they raise
    the ValidationError a request would."""

    lhs: tuple[AttributeId, ...]
    rhs: tuple[AttributeId, ...]
    rhs_pattern: ThresholdPattern
    min_support: Fraction
    min_confidence: Fraction
    algorithm: Algorithm
    epsilon: Fraction | None = None

    @classmethod
    def build(
        cls,
        lhs: Sequence[AttributeId],
        rhs: Sequence[AttributeId],
        rhs_pattern: ThresholdPattern,
        min_support: RationalLike,
        min_confidence: RationalLike,
        algorithm: Algorithm | str,
        epsilon: RationalLike | None = None,
    ) -> "DiscoveryRequest":
        algo = algorithm if isinstance(algorithm, Algorithm) else Algorithm.parse(str(algorithm))
        return cls(tuple(lhs), tuple(rhs), rhs_pattern, min_support, min_confidence, algo, epsilon)

    def __post_init__(self) -> None:
        # a request made directly or by dataclasses.replace may carry floats,
        # ints or strings; it holds their exact rationals
        for name in ("min_support", "min_confidence", "epsilon"):
            value = getattr(self, name)
            if value is not None or name != "epsilon":
                object.__setattr__(self, name, to_fraction(value, name))
        self.validate()

    def validate(self) -> None:
        if not self.lhs:
            raise ValidationError("lhs attribute set must be nonempty")
        if not self.rhs:
            raise ValidationError("rhs attribute set must be nonempty")
        if len(set(self.lhs)) != len(self.lhs) or len(set(self.rhs)) != len(self.rhs):
            raise ValidationError("duplicate attributes in lhs or rhs")
        if set(self.lhs) & set(self.rhs):
            raise ValidationError("lhs and rhs attribute sets must be disjoint")
        if set(self.rhs_pattern.attributes) != set(self.rhs):
            raise SchemaMismatchError("rhs_pattern must cover exactly the rhs attributes")
        if self.algorithm.is_approximate != (self.epsilon is not None):
            raise ValidationError(
                f"algorithm {self.algorithm.value} requires an epsilon error bound"
                if self.algorithm.is_approximate
                else f"algorithm {self.algorithm.value} is exact and takes no epsilon"
            )
        validate_thresholds(self.min_support, self.min_confidence, self.epsilon)
