"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mdd import (
    AttributeId,
    DiscoveryRequest,
    EvalCounters,
    LevelDomain,
    MetricKind,
    Relation,
    StatDistribution,
    ThresholdPattern,
)

DATA_DIR = Path(__file__).parent / "data"

CONTACT_COLUMNS = ["SIN", "Name", "CC", "ZIP", "City", "Street"]
CONTACT_ROWS = [
    ("584", "Claire Green", "44", "606", "Chicago", "No.2, Central Rd."),
    ("584", "Claire Greem", "44", "606", "Chicago", "No.2, Central Rd."),
    ("584", "Claire Gree", "44", "606", "Chicago", "#2, Central Rd."),
    ("265", "Jason Smith", "01", "021", "Boston", "No.3, Central Rd."),
    ("265", "J. Smith", "01", "021", "Boston", "#3, Central Rd."),
    ("939", "W. J. Smith", "01", "021", "Chicago", "#3, Central Rd."),
]


@pytest.fixture
def contacts() -> Relation:
    return Relation.from_rows(CONTACT_COLUMNS, CONTACT_ROWS)


@pytest.fixture
def domain10() -> LevelDomain:
    return LevelDomain(10)


@pytest.fixture
def cosine_word() -> MetricKind:
    return MetricKind.cosine_word_tokens()


def array_fingerprint(levels: np.ndarray, counts: np.ndarray, domain: LevelDomain) -> str:
    """Fingerprint for distributions assembled directly from arrays."""
    h = hashlib.sha256()
    h.update(f"arrays|d={domain.d}|".encode())
    h.update(np.ascontiguousarray(levels, dtype=np.int16).tobytes())
    h.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())
    return h.hexdigest()


def make_distribution(
    vectors_counts: dict[tuple[int, ...], int],
    d: int,
    names: list[str] | None = None,
    pair_total: int | None = None,
) -> StatDistribution:
    """Assemble a distribution straight from level-vector counts."""
    m = len(next(iter(vectors_counts)))
    attrs = tuple(
        AttributeId(i, names[i] if names else f"A{i}") for i in range(m)
    )
    vecs = sorted(vectors_counts)
    levels = np.array(vecs, dtype=np.int16).reshape(len(vecs), m)
    counts = np.array([vectors_counts[v] for v in vecs], dtype=np.int64)
    total = int(counts.sum())
    domain = LevelDomain(d)
    return StatDistribution(
        attrs,
        domain,
        levels,
        counts,
        total if pair_total is None else pair_total,
        array_fingerprint(levels, counts, domain),
        metric_specs=("synthetic",) * m,
    )


def random_distribution(
    rng: random.Random,
    *,
    m_x: int,
    m_y: int = 1,
    d: int = 4,
    max_samples: int = 400,
    max_count: int = 20,
    skew: bool = True,
) -> tuple[StatDistribution, tuple[AttributeId, ...], tuple[AttributeId, ...]]:
    """A random aggregated distribution plus its lhs/rhs attribute split.

    Level vectors are biased toward low levels when ``skew`` is set, which is
    the shape real pairwise similarity data takes (most pairs dissimilar).
    """
    m = m_x + m_y
    counter: Counter = Counter()
    for _ in range(rng.randint(max(10, m), max_samples)):
        if skew:
            vec = tuple(min(rng.randint(0, d - 1), rng.randint(0, d - 1)) for _ in range(m))
        else:
            vec = tuple(rng.randint(0, d - 1) for _ in range(m))
        counter[vec] += rng.randint(1, max_count)
    dist = make_distribution(dict(counter), d)
    attrs = dist.attribute_set
    return dist, attrs[:m_x], attrs[m_x:]


def random_relation(
    rng: random.Random,
    *,
    n_rows: int,
    n_attrs: int,
    vocab: list[str] | None = None,
) -> Relation:
    """Small random string relation with repeated and perturbed values so the
    similarity structure is nontrivial."""
    if vocab is None:
        vocab = ["alpha", "beta", "gamma", "delta", "omega", "route 9", "route 66"]
    rows = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_attrs):
            base = rng.choice(vocab)
            if rng.random() < 0.4:
                # small perturbations: drop a char, duplicate a char, add a suffix
                edit = rng.randrange(3)
                if edit == 0 and len(base) > 1:
                    pos = rng.randrange(len(base))
                    base = base[:pos] + base[pos + 1 :]
                elif edit == 1:
                    pos = rng.randrange(len(base))
                    base = base[:pos] + base[pos] + base[pos:]
                else:
                    base = base + rng.choice([" x", "s", " jr"])
            row.append(base)
        rows.append(row)
    return Relation.from_rows([f"A{i}" for i in range(n_attrs)], rows)


def pattern_over(attrs, levels) -> ThresholdPattern:
    return ThresholdPattern.over(tuple(attrs), list(levels))


def satisfied(dist: StatDistribution, i: int, pattern: ThresholdPattern) -> bool:
    """Record ``i`` meets every threshold of ``pattern``, read one cell at a
    time (raises SchemaMismatchError for an attribute outside the
    distribution)."""
    return all(
        int(dist.levels[i, dist.column_index(attr)]) >= level for attr, level in pattern.items()
    )


def fold(
    dist: StatDistribution,
    lhs_pattern: ThresholdPattern,
    rhs_pattern: ThresholdPattern,
    upto: int | None = None,
) -> tuple[int, int]:
    """The record-by-record reference the engines are held to: the (joint,
    lhs) pair counts of a candidate over the first ``upto`` records (all by
    default). Support is joint / pair_total, confidence joint / lhs."""
    joint = lhs = 0
    for i in range(dist.n if upto is None else upto):
        if satisfied(dist, i, lhs_pattern):
            lhs += int(dist.counts[i])
            if satisfied(dist, i, rhs_pattern):
                joint += int(dist.counts[i])
    return joint, lhs


def reference_document(
    request: DiscoveryRequest, dist: StatDistribution, mds, counters: EvalCounters
) -> str:
    """The mdd-result-v1 bytes the CLI's array writer is held to: the
    document as a dict built from the rule objects, through
    json.dumps(sort_keys=True, indent=2)."""
    domain = dist.domain

    def levels_doc(pattern: ThresholdPattern) -> dict:
        return {a.name: level for a, level in pattern.items()}

    def similarity_doc(pattern: ThresholdPattern) -> dict:
        return {a.name: level / domain.max_level for a, level in pattern.items()}

    doc = {
        "schema": "mdd-result-v1",
        "status": "ok" if mds else "infeasible",
        "request": {
            "lhs": [a.name for a in request.lhs],
            "rhs": [a.name for a in request.rhs],
            "rhs_levels": levels_doc(request.rhs_pattern),
            "rhs_similarities": similarity_doc(request.rhs_pattern),
            "min_support": str(request.min_support),
            "min_confidence": str(request.min_confidence),
            "epsilon": None if request.epsilon is None else str(request.epsilon),
            "algorithm": request.algorithm.value,
            "levels": domain.d,
        },
        "distribution": {
            "n": dist.n,
            "pair_total": dist.pair_total,
            "d": domain.d,
            "fingerprint": dist.fingerprint,
        },
        "mode": "approximate" if request.algorithm.is_approximate else "exact",
        "mds": [
            {
                "lhs_levels": levels_doc(md.lhs_pattern),
                "lhs_similarities": similarity_doc(md.lhs_pattern),
                "rhs_levels": levels_doc(md.rhs_pattern),
                "rhs_similarities": similarity_doc(md.rhs_pattern),
                "support": float(md.support),
                "support_exact": str(md.support),
                "confidence": float(md.confidence),
                "confidence_exact": str(md.confidence),
                "mode": {
                    "kind": md.mode.kind,
                    "prefix_k": md.mode.prefix_k,
                    "epsilon": None if md.mode.epsilon is None else str(md.mode.epsilon),
                },
            }
            for md in mds
        ],
        "counters": {
            "records_evaluated": counters.records_evaluated,
            "candidates_evaluated": counters.candidates_evaluated,
            "candidates_pruned_support": counters.candidates_pruned_support,
            "candidates_pruned_confidence": counters.candidates_pruned_confidence,
            "candidates_total": counters.candidates_total,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
