"""Distribution construction, reorderings, projection, and the cache format."""

import contextlib
import csv
import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdd import (
    DistributionIOError,
    InsufficientDataError,
    LevelDomain,
    MetricKind,
    Relation,
    StatDistribution,
    ThresholdPattern,
    ValidationError,
    build_distribution,
    group_by_rhs,
    load_distribution,
    pattern_mask,
    project,
    save_distribution,
    sort_by_probability_desc,
)
import mdd.distribution as distribution_module
from mdd.cli import main
from mdd.errors import SchemaMismatchError
from mdd.model import sorted_rows
from mdd.oracle import _pair_levels
from mdd.simkit import discretize, profile, profile_similarity

from conftest import (
    make_distribution,
    random_distribution,
    random_relation,
    reference_fingerprint,
    satisfied,
)

METRIC_SPECS = ["edit", "cosine-word", "cosine-qgram:1", "cosine-qgram:3"]
# Duplicates, empty strings, strings shorter than q=3, values that differ
# only in case, non-ASCII case pairs and a value longer than 64 characters.
VOCAB = [
    "", "a", "ab", "Ab", "alpha", "ALPHA", "Alpha beta", "alpha  beta", "route 66",
    "Route 66", "na\u00efve", "NA\u00cfVE", "stra\u00dfe", "x y z", "go go go", "abc" * 25,
]


def oracle_counts(relation, attrs, metrics, domain) -> dict:
    return dict(Counter(_pair_levels(relation, attrs, metrics, domain)))


def random_relation_with_empties(seed: int, n_rows: int, n_attrs: int) -> Relation:
    rel = random_relation(random.Random(seed), n_rows=n_rows, n_attrs=n_attrs, vocab=VOCAB[1:])
    empty = ("",) * n_attrs
    return Relation.from_rows([a.name for a in rel.schema], [*rel.rows, empty, empty])


def built_counts(dist) -> dict:
    vectors = [tuple(int(v) for v in row) for row in dist.levels]
    assert vectors == sorted(vectors)
    return dict(zip(vectors, (int(c) for c in dist.counts)))


@st.composite
def relations_and_metrics(draw):
    m = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.lists(st.sampled_from(VOCAB), min_size=m, max_size=m), min_size=2, max_size=12)
    )
    relation = Relation.from_rows([f"A{c}" for c in range(m)], rows)
    specs = draw(st.lists(st.sampled_from(METRIC_SPECS), min_size=m, max_size=m))
    if draw(st.booleans()):
        metrics = MetricKind.parse(specs[0])
    else:
        metrics = {a: MetricKind.parse(s) for a, s in zip(relation.schema, specs)}
    return relation, metrics


class TestBuild:
    def test_contacts_pair_total(self, contacts, domain10, cosine_word):
        attrs = (contacts.attribute("ZIP"), contacts.attribute("City"))
        dist = build_distribution(contacts, attrs, cosine_word, domain10)
        assert dist.pair_total == 15
        assert int(dist.counts.sum()) == 15

    def test_two_identical_tuples(self, domain10, cosine_word):
        rel = Relation.from_rows(["v"], [("same",), ("same",)])
        dist = build_distribution(rel, rel.schema, cosine_word, domain10)
        assert dist.n == 1
        assert tuple(dist.levels[0]) == (9,)
        assert int(dist.counts[0]) == dist.pair_total == 1

    def test_matches_brute_force_pair_walk(self, contacts, domain10, cosine_word):
        # independent enumeration of the 15 pairs, no engine code
        from collections import Counter
        from mdd.simkit import discretize, similarity

        attrs = (contacts.attribute("ZIP"), contacts.attribute("City"))
        expected = Counter()
        rows = contacts.rows
        for i in range(6):
            for j in range(i + 1, 6):
                expected[
                    tuple(
                        discretize(
                            similarity(rows[i][a.index], rows[j][a.index], cosine_word),
                            domain10,
                        )
                        for a in attrs
                    )
                ] += 1
        dist = build_distribution(contacts, attrs, cosine_word, domain10)
        actual = {tuple(int(v) for v in row): int(c) for row, c in zip(dist.levels, dist.counts)}
        assert actual == dict(expected)

    def test_single_row_rejected(self, domain10, cosine_word):
        rel = Relation.from_rows(["v"], [("solo",)])
        with pytest.raises(InsufficientDataError):
            build_distribution(rel, rel.schema, cosine_word, domain10)

    def test_unknown_attribute_rejected(self, contacts, domain10, cosine_word):
        from mdd import AttributeId

        with pytest.raises(SchemaMismatchError):
            build_distribution(contacts, (AttributeId(0, "Nope"),), cosine_word, domain10)

    def test_parallel_build_matches_serial(self, contacts, domain10, cosine_word):
        attrs = (contacts.attribute("Name"), contacts.attribute("City"))
        serial = build_distribution(contacts, attrs, cosine_word, domain10, workers=1)
        parallel = build_distribution(contacts, attrs, cosine_word, domain10, workers=4)
        assert serial == parallel

    def test_per_attribute_metrics(self, contacts, domain10):
        attrs = (contacts.attribute("Name"), contacts.attribute("City"))
        metrics = {
            attrs[0]: MetricKind.normalized_edit_distance(),
            attrs[1]: MetricKind.cosine_word_tokens(),
        }
        dist = build_distribution(contacts, attrs, metrics, domain10)
        assert dist.metric_specs == ("edit", "cosine-word")


class TestBuildAgainstOracle:
    """The distinct-value kernel against the pair-by-pair oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=relations_and_metrics(), d=st.sampled_from([2, 10, 32768]))
    def test_equals_oracle_counter(self, case, d):
        relation, metrics = case
        domain = LevelDomain(d)
        dist = build_distribution(relation, relation.schema, metrics, domain)
        assert built_counts(dist) == oracle_counts(relation, relation.schema, metrics, domain)

    @pytest.mark.parametrize("spec", ["edit", "cosine-word", "cosine-qgram:3"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_random_relation_any_worker_count(self, spec, workers):
        rel = random_relation_with_empties(7, n_rows=40, n_attrs=3)
        metric, domain = MetricKind.parse(spec), LevelDomain(10)
        dist = build_distribution(rel, rel.schema, metric, domain, workers=workers)
        assert built_counts(dist) == oracle_counts(rel, rel.schema, metric, domain)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_schema_past_int64_codes(self, workers):
        # 32768**5 = 2**75: level vectors no longer fit one int64 code.
        rel = random_relation_with_empties(3, n_rows=7, n_attrs=5)
        metric, domain = MetricKind.parse("edit"), LevelDomain(32768)
        assert domain.d ** len(rel.schema) > 2**63
        dist = build_distribution(rel, rel.schema, metric, domain, workers=workers)
        assert built_counts(dist) == oracle_counts(rel, rel.schema, metric, domain)

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_small_blocks_split_rows_and_fold_tallies(self, monkeypatch, block):
        # Blocks of one row, and more distinct codes than a block, so the
        # per-block tallies fold; at the default block size both happen only
        # on huge relations.
        monkeypatch.setattr(distribution_module, "_BLOCK_PAIRS", block)
        rel = random_relation_with_empties(5, n_rows=30, n_attrs=2)
        metric, domain = MetricKind.parse("edit"), LevelDomain(32768)
        dist = build_distribution(rel, rel.schema, metric, domain)
        assert dist.n > 2 * block
        assert built_counts(dist) == oracle_counts(rel, rel.schema, metric, domain)

    def test_case_variants_are_distinct_values_at_full_level(self, domain10):
        rel = Relation.from_rows(["v"], [("Alpha",), ("ALPHA",), ("alpha",)])
        for spec in METRIC_SPECS:
            dist = build_distribution(rel, rel.schema, MetricKind.parse(spec), domain10)
            assert built_counts(dist) == {(9,): 3}


# Empty, non-ASCII and astral values: a value's character count differs
# from its UTF-8 byte count, and the two astral ones are 4 UTF-8 bytes a
# character.
FINGERPRINT_VALUES = [
    "", "a", "A", "route 66", "na\u00efve", "stra\u00dfe",
    "\U0001d518", "\U0001f600 x", "\u00e9" * 3,
]


@st.composite
def fingerprint_inputs(draw):
    """A relation of 1 to 4 columns with repeated values, a permuted subset
    of its schema, and one metric per chosen attribute."""
    width = draw(st.integers(1, 4))
    cells = st.one_of(
        st.sampled_from(FINGERPRINT_VALUES),
        st.text("aZ \u00e9\u00df\U0001d518\U0001f600", max_size=5),
    )
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=2, max_size=12))
    relation = Relation.from_rows([f"A{c}" for c in range(width)], rows)
    attrs = tuple(draw(st.permutations(relation.schema))[: draw(st.integers(1, width))])
    metrics = tuple(MetricKind.parse(draw(st.sampled_from(METRIC_SPECS))) for _ in attrs)
    return relation, attrs, metrics


class TestFingerprint:
    """The build's source fingerprint against the row-by-row reference."""

    def fingerprint(self, relation, attrs, metrics, d) -> str:
        dist = build_distribution(relation, attrs, dict(zip(attrs, metrics)), LevelDomain(d))
        return dist.fingerprint

    @settings(max_examples=150, deadline=None)
    @given(case=fingerprint_inputs(), d=st.sampled_from([2, 10]))
    def test_equals_the_per_row_reference(self, case, d):
        relation, attrs, metrics = case
        expected = reference_fingerprint(relation, attrs, metrics, LevelDomain(d))
        assert self.fingerprint(relation, attrs, metrics, d) == expected

    # _BLOCK_PAIRS // m rows are hashed at a time: 5, 4 and 3 rows here
    @pytest.mark.parametrize("m, block", [(1, 5), (2, 9), (3, 10)])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_on_each_side_of_a_chunk(self, monkeypatch, m, block, extra):
        monkeypatch.setattr(distribution_module, "_BLOCK_PAIRS", block)
        n = block // m + extra
        rng = random.Random(n * 10 + m)
        rows = [[rng.choice(FINGERPRINT_VALUES) for _ in range(m)] for _ in range(n)]
        relation = Relation.from_rows([f"A{c}" for c in range(m)], rows)
        attrs = relation.schema[::-1]
        metrics = (MetricKind.parse("edit"),) * m
        expected = reference_fingerprint(relation, attrs, metrics, LevelDomain(10))
        assert self.fingerprint(relation, attrs, metrics, 10) == expected

    def test_contacts_csv_digests(self):
        path = Path(__file__).parent / "data" / "contacts.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        relation = Relation.from_rows(header, rows)
        assert self.fingerprint(
            relation, relation.schema, (MetricKind.parse("cosine-word"),) * 6, 10
        ) == "8535b370543880696c41b63b4c57fb1f594cc540826b4488aa190b03de367b0c"
        attrs = tuple(relation.attribute(name) for name in ("Street", "SIN", "Name"))
        metrics = tuple(MetricKind.parse(spec) for spec in ("edit", "cosine-qgram:2", "cosine-word"))
        assert self.fingerprint(relation, attrs, metrics, 32) == (
            "e21489f7325b6e7293a7a1f59684db88284ce1553d1daccab3dff3960d6c601f"
        )


def symmetric(upper: np.ndarray) -> np.ndarray:
    """The int16 symmetric matrix with ``upper``'s upper triangle."""
    return (np.triu(upper) + np.triu(upper, 1).T).astype(np.int16)


def pair_loop_histogram(codes, matrices) -> dict:
    """Level-vector counts over every pair i < j, one pair at a time."""
    n = len(codes[0])
    counts = Counter()
    for i in range(n):
        for j in range(i + 1, n):
            counts[tuple(int(L[col[i], col[j]]) for col, L in zip(codes, matrices))] += 1
    return dict(counts)


# (d, m) on each side of every pair-code type limit: d**m - 1 against
# 2**15 - 1 (int16), 2**31 - 1 (int32) and 2**63 - 1 (int64).
TYPE_LIMITS = [
    (181, 2), (182, 2), (32768, 1),
    (46340, 2), (46341, 2), (1290, 3), (1291, 3),
    (2**21, 3), (2**21 + 1, 3),
]


def key_type(d: int, m: int) -> np.dtype:
    """The pair-code type for ``d**m`` codes: the narrowest that holds
    ``d**m - 1``."""
    top = d**m - 1
    if top < 2**15:
        return np.dtype(np.int16)
    if top < 2**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64 if top < 2**63 else object)


@st.composite
def histogram_inputs(draw):
    """Row codes into small symmetric level matrices, diagonals included,
    from 1 to 5 columns: d**m runs from 2 to 2**75, and lands on each side
    of every pair-code type limit. Levels stop at the int16 level storage's
    2**15 - 1 and lean to the top level, where the widest codes are."""
    d, m = draw(
        st.one_of(
            st.tuples(st.sampled_from([2, 3, 10, 32768]), st.integers(1, 5)),
            st.sampled_from(TYPE_LIMITS),
        )
    )
    n = draw(st.integers(2, 40))
    top = min(d, 1 << 15) - 1
    levels = st.one_of(st.integers(0, top), st.just(top))
    codes, matrices = [], []
    for _ in range(m):
        u = draw(st.integers(1, 6))
        upper = draw(st.lists(levels, min_size=u * u, max_size=u * u))
        matrices.append(symmetric(np.array(upper).reshape(u, u)))
        rows = draw(st.lists(st.integers(0, u - 1), min_size=n, max_size=n))
        codes.append(np.array(rows, dtype=np.intp))
    return codes, matrices, d


class TestPairHistogram:
    """The row-block histogram against a pair-by-pair loop."""

    def histogram(self, monkeypatch, codes, matrices, d, block):
        """``_pair_histogram`` at block size ``block``, as a dict, and the
        dtypes of the blocks it sorted and tallied."""
        tallied = []
        tally = distribution_module._tally

        def recording_tally(keys):
            tallied.append(keys.dtype)
            return tally(keys)

        monkeypatch.setattr(distribution_module, "_BLOCK_PAIRS", block)
        monkeypatch.setattr(distribution_module, "_tally", recording_tally)
        levels, counts = distribution_module._pair_histogram(codes, matrices, d)
        assert levels.dtype == np.int16 and counts.dtype == np.int64
        vectors = [tuple(int(v) for v in row) for row in levels]
        assert vectors == sorted(vectors)
        return dict(zip(vectors, counts.tolist())), tallied

    @settings(max_examples=200, deadline=None)
    @given(case=histogram_inputs(), block=st.sampled_from([1, 3, 64, 1 << 15]))
    def test_equals_the_pair_loop(self, case, block):
        codes, matrices, d = case
        with pytest.MonkeyPatch.context() as mp:
            counts, _ = self.histogram(mp, codes, matrices, d, block)
        assert counts == pair_loop_histogram(codes, matrices)

    @pytest.mark.parametrize(
        "d, m, block",
        [
            (2, 15, 1 << 15),  # d**m == the default _BLOCK_PAIRS: int16 codes
            (10, 3, 1000),  # d**m == _BLOCK_PAIRS
            (10, 3, 999),  # d**m == _BLOCK_PAIRS + 1
            # d itself is past int16: the codes are decoded in int64
            (32768, 1, 1 << 14),
            (181, 2, 1 << 15),  # 32,761 codes: int16
            (182, 2, 1 << 15),  # 33,124 codes: int32
            (1290, 3, 1 << 15),  # 2**31 - 794,648 codes: int32
            (1291, 3, 1 << 15),  # 2**31 + 4,201,523 codes: int64
            (2**21, 3, 1 << 15),  # 2**63 codes: int64
            (2**21 + 1, 3, 1 << 15),  # past 2**63: Python-int codes
            (32768, 5, 1 << 15),  # 2**75: Python-int codes
        ],
    )
    def test_codes_tallied_in_the_narrowest_type(self, monkeypatch, d, m, block):
        # Each matrix's diagonal holds the top level, so pairs equal in every
        # column have the largest code, d**m - 1 when d fits the int16 levels.
        rng = np.random.default_rng(m)
        top = min(d, 1 << 15) - 1
        matrices = [symmetric(rng.integers(0, top + 1, (5, 5))) for _ in range(m)]
        for matrix in matrices:
            np.fill_diagonal(matrix, top)
        codes = [rng.integers(0, 5, 60) for _ in range(m)]
        counts, tallied = self.histogram(monkeypatch, codes, matrices, d, block)
        assert counts == pair_loop_histogram(codes, matrices)
        assert counts[(top,) * m] > 0
        assert set(tallied) == {key_type(d, m)}

    @pytest.mark.parametrize("m, bound", [(3, 1.5), (6, 2.25)])
    def test_memory_is_a_few_blocks(self, m, bound):
        # 2,000 rows, about 2M pairs, d**m = 10**3 (int16 codes) and 10**6
        # (int32): a 256 KB block of codes and its temporaries, and the merge
        # of the tallies, whatever the number of pairs. Measured: 0.84 MB and
        # 1.89 MB; int64 codes took 0.85 MB and 2.40 MB. At 10**6 the extra
        # is the merge of the blocks' tallies: 38,000 keys with their int64
        # counts, against 3,500 at 10**3.
        rel = random_relation(random.Random(1), n_rows=2000, n_attrs=m)
        metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
        codes, matrices = [], []
        for a in rel.schema:
            column = rel.column(a)
            values = sorted(set(column))
            codes.append(np.array([values.index(v) for v in column]))
            matrices.append(distribution_module._level_matrix(values, metric, domain))
        tracemalloc.start()
        try:
            _, counts = distribution_module._pair_histogram(codes, matrices, domain.d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == 2000 * 1999 // 2
        assert peak < bound * 2**20


COSINE_SPECS = ["cosine-word", *(f"cosine-qgram:{q}" for q in range(1, 5))]
# "\u0130" lowercases to two code points, "\u1e9e" to "\u00df"; "!" and "-"
# separate words, so "!!" has no word token.
COSINE_ALPHABET = "aAbBz \u0130\u00df\u1e9e\u03a3\u00e9!-1"


@st.composite
def cosine_values(draw):
    """Sorted distinct strings: token-less ones, ones shorter than q, case
    variants, non-ASCII case pairs and heavily repeated tokens."""
    strings = st.one_of(
        st.sampled_from(["", "!!", " ", "a", "A", "ab", "\u0130", "\u00df", "SS", "\u1e9e"]),
        st.text(COSINE_ALPHABET, max_size=12),
        st.builds(
            lambda token, times, sep: sep.join([token] * times),
            st.sampled_from(["go", "a", "Ab", "\u0130", "\u00df"]),
            st.integers(2, 80),
            st.sampled_from([" ", "", "!"]),
        ),
    )
    return sorted(set(draw(st.lists(strings, min_size=1, max_size=30))))


@st.composite
def marked_cosine_values(draw):
    """``cosine_values`` with values past the kernel's 2**53 guard mixed in:
    a token repeated 9,742 times (sq = 9,742**2) or 60,000 times, where
    int64 products would wrap."""
    huge = st.builds(
        lambda token, times, tail: " ".join([token] * times) + tail,
        st.sampled_from(["a", "Ab", "\u00df"]),
        st.sampled_from([9_742, 60_000]),
        st.sampled_from(["", " a", " b b"]),
    )
    values = draw(cosine_values()) + draw(st.lists(huge, min_size=1, max_size=3))
    return sorted(set(values))


def scalar_rows(values, metric, domain) -> np.ndarray:
    """Levels of every value against every later value: ``out[r, c]`` for
    ``c > r``, zero elsewhere. ``values`` are sorted, so the metric sees each
    pair as (smaller, larger). The per-pair reference for the numpy kernels."""
    profiles = [profile(v, metric) for v in values]
    out = np.zeros((len(values),) * 2, dtype=np.int16)
    for r, left in enumerate(profiles):
        out[r, r + 1 :] = [
            discretize(profile_similarity(left, right, metric), domain)
            for right in profiles[r + 1 :]
        ]
    return out


class TestCosineRows:
    """The posting-list cosine kernel against the per-pair scalar path."""

    @settings(max_examples=300, deadline=None)
    # similarity 1/2 at d = 2: exactly half a level, which rounds up
    @example(values=["a", "a b c d"], spec="cosine-word", d=2, block=1)
    # columns without a single token
    @example(values=[""], spec="cosine-word", d=10, block=1 << 15)
    @example(values=["", "!!"], spec="cosine-word", d=10, block=1)
    # every value shorter than q ("b\u0130" lowercases to 3 code points)
    @example(values=["A", "ab", "b\u0130"], spec="cosine-qgram:4", d=10, block=1)
    @given(
        values=cosine_values(),
        spec=st.sampled_from(COSINE_SPECS),
        d=st.sampled_from([2, 10, 101]),
        block=st.sampled_from([1, 3, 64, 1 << 15]),
    )
    def test_equals_the_scalar_path_byte_for_byte(self, values, spec, d, block):
        metric, domain = MetricKind.parse(spec), LevelDomain(d)
        # small blocks split the rows and the posting-list pairs many ways
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distribution_module, "_BLOCK_PAIRS", block)
            fast, marked = distribution_module._cosine_rows(values, metric, domain)
        slow = scalar_rows(values, metric, domain)
        assert not marked.any()
        assert fast.dtype == slow.dtype == np.int16
        assert fast.tobytes() == slow.tobytes()

    def test_counts_beyond_float64_fall_back_to_the_scalar_path(self):
        # 60,000 repeats: sq = 3.6e9, so sq_a * sq_b and dot * dot pass 2**63
        # and an int64 kernel would wrap; the scalar path stays exact.
        values = sorted(["a " * 60_000, "a " * 60_001 + "b", "a", "a b", "!!"])
        metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
        matrix = distribution_module._level_matrix(values, metric, domain)
        assert np.triu(matrix, 1).tobytes() == scalar_rows(values, metric, domain).tobytes()
        fast, marked = distribution_module._cosine_rows(values, metric, domain)
        assert marked.tolist() == [len(v) > 3 for v in values]
        assert not fast[marked].any() and not fast[:, marked].any()

    def test_guard_starts_at_2_pow_53(self):
        metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
        # 94,906,265**2 < 2**53 <= 94,906,266**2. One token repeated c times
        # has sq = c**2: 9,741**2 = 94,887,081 and 9,742**2 = 94,906,564.
        _, marked = distribution_module._cosine_rows(["a " * 9_741, "b"], metric, domain)
        assert marked.tolist() == [False, False]
        _, marked = distribution_module._cosine_rows(["a " * 9_742, "b"], metric, domain)
        assert marked.tolist() == [True, False]

    @settings(max_examples=60, deadline=None)
    @example(values=sorted(["a " * 9_742, "a", "!!", ""]), spec="cosine-word", d=2, block=1)
    # a token-less value next to a marked one: no entry survives the guard
    @example(values=sorted(["a " * 9_742, "!!"]), spec="cosine-word", d=10, block=3)
    @given(
        values=marked_cosine_values(),
        spec=st.sampled_from(COSINE_SPECS),
        d=st.sampled_from([2, 10, 101]),
        block=st.sampled_from([1, 3, 64, 1 << 15]),
    )
    def test_marked_values_take_the_scalar_path_byte_for_byte(self, values, spec, d, block):
        metric, domain = MetricKind.parse(spec), LevelDomain(d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distribution_module, "_BLOCK_PAIRS", block)
            matrix = distribution_module._level_matrix(values, metric, domain)
        assert np.triu(matrix, 1).tobytes() == scalar_rows(values, metric, domain).tobytes()

    def test_one_marked_value_costs_one_scalar_row(self, monkeypatch):
        # the scalar metric compares the marked value with the u - 1 others,
        # not every pair of the column
        values = sorted(["a " * 9_742, "a", "a b", "b c", "!!", "", "go go", "c"])
        calls = []
        original = distribution_module.profile_similarity

        def counted(a, b, metric):
            calls.append(1)
            return original(a, b, metric)

        monkeypatch.setattr(distribution_module, "profile_similarity", counted)
        metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
        matrix = distribution_module._level_matrix(values, metric, domain)
        assert len(calls) == len(values) - 1
        assert np.triu(matrix, 1).tobytes() == scalar_rows(values, metric, domain).tobytes()


# "\u0130" lowercases to two code points, "\u1e9e" to "\u00df"; "\x00" is
# also the kernel's padding character.
EDIT_ALPHABET = "aAbBz \u0130\u00df\u1e9e\u4e2d\x00"


@st.composite
def edit_values(draw):
    """Sorted distinct strings: empty ones, case variants, non-ASCII case
    pairs, and lengths around the 64-character lane, before and after
    ``.lower()`` ("\u0130" * 32 lowercases to 64 characters, "\u0130" * 33
    to 66)."""
    strings = st.one_of(
        st.sampled_from(["", "a", "A", "ab", "\u0130", "i\u0307", "\u00df", "SS", "\u1e9e"]),
        st.text(EDIT_ALPHABET, max_size=12),
        st.builds(
            lambda part, length, tail: (part * length)[:length] + tail,
            st.sampled_from(["a", "Ab", "ab\u00df", "\u0130"]),
            st.sampled_from([63, 64, 65, 70]),
            st.sampled_from(["", "b", "Z"]),
        ),
        st.builds(lambda times: "\u0130" * times, st.sampled_from([31, 32, 33])),
    )
    return sorted(set(draw(st.lists(strings, min_size=1, max_size=30))))


class TestEditRows:
    """The bit-parallel edit kernel against the per-pair scalar path."""

    @settings(max_examples=300, deadline=None)
    # an empty pattern against one character: distance 1, level 0 of 101
    @example(values=["", "a", "A"], d=101, block=1)
    # 65 characters take the scalar metric, 64 the lanes
    @example(values=["a" * 63 + "b", "a" * 64 + "b", "a" * 64], d=101, block=1 << 15)
    @given(
        values=edit_values(),
        d=st.sampled_from([2, 3, 10, 101]),
        block=st.sampled_from([1, 3, 64, 1 << 15]),
    )
    def test_equals_the_scalar_path_byte_for_byte(self, values, d, block):
        metric, domain = MetricKind.parse("edit"), LevelDomain(d)
        # small blocks split the rows, down to one a block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distribution_module, "_BLOCK_PAIRS", block)
            fast = distribution_module._level_matrix(values, metric, domain)
        slow = scalar_rows(values, metric, domain)
        assert fast.dtype == slow.dtype == np.int16
        assert np.triu(fast, 1).tobytes() == slow.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 10, 101])
    def test_empty_value_is_as_far_as_the_other_is_long(self, d):
        # distance len(text), similarity 0: level 0 against every value
        values = ["", "a", "ab", "x" * 64]
        metric, domain = MetricKind.parse("edit"), LevelDomain(d)
        fast, marked = distribution_module._edit_rows(values, metric, domain)
        assert not marked.any()
        assert fast[0].tolist() == [0, 0, 0, 0]
        assert fast.tobytes() == scalar_rows(values, metric, domain).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 10, 101])
    def test_values_past_64_characters_take_the_scalar_path(self, d):
        # "\u0130" * 33 has 33 characters but 66 after .lower()
        values = sorted(["a" * 64, "a" * 65, "a" * 70 + "b", "\u0130" * 33, "i\u0307" * 32, "ab"])
        metric, domain = MetricKind.parse("edit"), LevelDomain(d)
        fast = distribution_module._level_matrix(values, metric, domain)
        assert np.triu(fast, 1).tobytes() == scalar_rows(values, metric, domain).tobytes()
        _, marked = distribution_module._edit_rows(values, metric, domain)
        assert marked.tolist() == [len(v.lower()) > 64 for v in values]

    def test_pairs_of_marked_values_are_scored_once(self, monkeypatch):
        # 40 edit values, every one past the 64-character lanes: 780 pairs,
        # each scored once rather than from both of its values' rows
        rng = random.Random(3)
        values = sorted({"".join(rng.choice("abc") for _ in range(70 + k)) for k in range(40)})
        assert len(values) == 40
        calls = []
        original = distribution_module.profile_similarity

        def counted(a, b, metric):
            calls.append(1)
            return original(a, b, metric)

        monkeypatch.setattr(distribution_module, "profile_similarity", counted)
        metric, domain = MetricKind.parse("edit"), LevelDomain(10)
        matrix = distribution_module._level_matrix(values, metric, domain)
        assert len(calls) == 40 * 39 // 2
        assert np.triu(matrix, 1).tobytes() == scalar_rows(values, metric, domain).tobytes()

    def test_memory_is_the_matrix_and_a_few_blocks(self):
        # 2,000 values over 1,000 characters: a block is 16 rows, so its peq
        # table is 16 x 1,000 lanes; a u x sigma table would take 16 MB.
        rng = random.Random(1)
        values = set()
        while len(values) < 2000:
            values.add("".join(chr(0x4E00 + rng.randrange(1000)) for _ in range(rng.randint(1, 20))))
        values = sorted(values)
        assert len({ch for v in values for ch in v}) == 1000
        metric, domain = MetricKind.parse("edit"), LevelDomain(10)
        tracemalloc.start()
        try:
            matrix, _ = distribution_module._edit_rows(values, metric, domain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.nbytes == 2000 * 2000 * 2
        assert peak < matrix.nbytes + 5 * 2**20

    def test_edit_build_runs_in_one_process_at_any_worker_count(self):
        code = (
            "import sys\n"
            "from mdd import LevelDomain, MetricKind, Relation, build_distribution\n"
            "rel = Relation.from_rows(['a'], [(f'v{i}',) for i in range(50)])\n"
            "build_distribution(rel, rel.schema, MetricKind.parse('edit'), LevelDomain(10), workers=4)\n"
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))\n"
        )
        src = str(Path(distribution_module.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def test_build_memory_stays_bounded():
    # Pair codes are counted a block at a time, so the build's peak traced
    # allocation (numpy buffers included) is independent of the ~2M pairs.
    rel = random_relation(random.Random(1), n_rows=2000, n_attrs=3)
    metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
    tracemalloc.start()
    try:
        dist = build_distribution(rel, rel.schema, metric, domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.pair_total == 2000 * 1999 // 2
    assert peak < 2 * 2**20


def test_sort_side_memory_stays_bounded():
    # 10**6 possible codes: no buffer is sized by d**m, as each block is
    # sorted and tallied.
    rel = random_relation(random.Random(1), n_rows=2000, n_attrs=6)
    metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
    assert domain.d ** 6 > distribution_module._BLOCK_PAIRS
    tracemalloc.start()
    try:
        dist = build_distribution(rel, rel.schema, metric, domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.pair_total == 2000 * 1999 // 2
    assert peak < 4 * 2**20


def test_cosine_matrices_add_no_matrix_sized_temporary():
    # 2,000 distinct values a column: the three int16 level matrices take
    # 22.9 MB, and the cosine kernel works on blocks of _BLOCK_PAIRS cells.
    words = "alpha beta gamma delta omega route north south main oak".split()
    rows = [
        tuple(f"{words[i % 10]} {words[i // 10 % 10]} {c}{i}" for c in "xyz")
        for i in range(2000)
    ]
    rel = Relation.from_rows(["a", "b", "c"], rows)
    metric, domain = MetricKind.parse("cosine-word"), LevelDomain(10)
    tracemalloc.start()
    try:
        dist = build_distribution(rel, rel.schema, metric, domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.pair_total == 2000 * 1999 // 2
    matrices = 3 * 2000 * 2000 * np.dtype(np.int16).itemsize
    assert peak < matrices + 2 * 2**20


class TestGroupByRhs:
    def _dist(self):
        return make_distribution(
            {(0, 9): 3, (1, 2): 2, (5, 8): 4, (2, 0): 5, (7, 7): 1},
            d=10,
        )

    def test_pivot_splits_satisfaction(self):
        dist = self._dist()
        lam_y = ThresholdPattern.of({dist.attribute_set[1]: 7})
        grouped, pivot = group_by_rhs(dist, lam_y)
        assert pivot == 3
        for i in range(grouped.n):
            assert satisfied(grouped, i, lam_y) == (i < pivot)

    def test_all_satisfying_keeps_order(self):
        dist = self._dist()
        lam_y = ThresholdPattern.of({dist.attribute_set[1]: 0})
        grouped, pivot = group_by_rhs(dist, lam_y)
        assert pivot == dist.n
        assert np.array_equal(grouped.levels, dist.levels)

    def test_multiset_preserved(self):
        dist = self._dist()
        lam_y = ThresholdPattern.of({dist.attribute_set[1]: 5})
        grouped, _ = group_by_rhs(dist, lam_y)
        assert sorted(map(tuple, grouped.levels.tolist())) == sorted(
            map(tuple, dist.levels.tolist())
        )
        assert int(grouped.counts.sum()) == int(dist.counts.sum())


class TestSortByProbability:
    def test_counts_descend(self):
        dist = make_distribution({(0,): 3, (1,): 9, (2,): 1}, d=3)
        ordered = sort_by_probability_desc(dist)
        assert [int(c) for c in ordered.counts] == [9, 3, 1]

    def test_ties_break_lexicographically(self):
        dist = make_distribution({(2, 0): 5, (0, 1): 5, (1, 1): 5}, d=3)
        ordered = sort_by_probability_desc(dist)
        assert [tuple(map(int, r)) for r in ordered.levels] == [(0, 1), (1, 1), (2, 0)]

    def test_fraction_fragment(self):
        # probabilities 0.065, 0.043, 0.124 (plus filler) over 1000 pairs
        dist = make_distribution({(1,): 65, (7,): 43, (0,): 124, (3,): 768}, d=10)
        ordered = sort_by_probability_desc(dist)
        probs = [int(c) / ordered.pair_total for c in ordered.counts]
        assert probs == [0.768, 0.124, 0.065, 0.043]

    @settings(max_examples=100, deadline=None)
    @given(
        records=st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 3), min_size=1, max_size=40
        ),
        data=st.data(),
    )
    def test_every_prefix_equals_the_reference_order(self, records, data):
        # counts from {1, 2, 3}, so most prefixes end inside a run of ties
        dist = make_distribution(records, d=4)
        expected = sorted(records, key=lambda v: (-records[v], v))
        shuffled = dist.replace_order(np.array(data.draw(st.permutations(range(dist.n)))))
        k = data.draw(st.integers(1, dist.n))
        for source in (dist, shuffled, sort_by_probability_desc(shuffled)):
            order = distribution_module.probability_order(source, k)
            assert [tuple(map(int, r)) for r in source.levels[order]] == expected[:k]
            assert source.counts[order].tolist() == [records[v] for v in expected[:k]]


class TestPatternMask:
    def test_mask_agrees_with_satisfies(self):
        rng = random.Random(5)
        dist, X, Y = random_distribution(rng, m_x=2, m_y=1, d=5)
        lam = ThresholdPattern.of({X[0]: 2, Y[0]: 3})
        mask = pattern_mask(dist, lam)
        for i in range(dist.n):
            assert mask[i] == satisfied(dist, i, lam)

    def test_level_above_domain_rejected(self):
        dist = make_distribution({(0,): 1}, d=4)
        with pytest.raises(ValidationError):
            pattern_mask(dist, ThresholdPattern.of({dist.attribute_set[0]: 4}))


class TestProjection:
    def test_marginalizes_counts(self):
        dist = make_distribution({(0, 1): 3, (0, 2): 4, (1, 1): 5}, d=3)
        kept = project(dist, dist.attribute_set[:1])
        assert kept.pair_total == dist.pair_total
        by_level = {int(lv[0]): int(c) for lv, c in zip(kept.levels, kept.counts)}
        assert by_level == {0: 7, 1: 5}


def widest_key_base(m):
    """The largest d with d^m < 2^63: the widest grid one int64 key holds."""
    d = round(2 ** (63 / m))
    while d**m >= 2**63:
        d -= 1
    while (d + 1) ** m < 2**63:
        d += 1
    return d


@st.composite
def key_limit_rows(draw):
    """Unsorted int16 level rows with ties, on grids just below and at or
    above d^m = 2^63 (m from 5, where d fits int16), or on a small grid."""
    m = draw(st.integers(1, 9))
    if m >= 5:
        d = widest_key_base(m) + draw(st.integers(0, 1))
    else:
        d = draw(st.integers(2, 40))
    level = st.sampled_from([0, d - 1]) | st.integers(0, d - 1)
    distinct = draw(st.lists(st.tuples(*[level] * m), min_size=1, max_size=12, unique=True))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    return np.array(picks, dtype=np.int16).reshape(len(picks), m), d


class TestSortedRows:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 4).flatmap(
            lambda m: st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=1, max_size=30)
        )
    )
    def test_groups_equal_rows_as_np_unique_does(self, rows):
        rows = np.array(rows, dtype=np.int16)
        order, starts = sorted_rows(rows, 4)
        uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(rows[order[starts]], uniq)
        sizes = np.diff(np.append(starts, rows.shape[0]))
        assert np.array_equal(sizes, np.bincount(inverse.reshape(-1)))

    @settings(max_examples=200, deadline=None)
    @given(case=key_limit_rows())
    def test_order_and_runs_equal_lexsort_at_the_key_limit(self, case):
        rows, d = case
        order, starts = sorted_rows(rows, d)
        want = np.lexsort(rows.T[::-1])
        assert order.dtype == want.dtype and np.array_equal(order, want)
        ordered = rows[want].tolist()
        runs = [i for i in range(len(ordered)) if i == 0 or ordered[i] != ordered[i - 1]]
        assert starts.tolist() == runs

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), keep=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    def test_projection_equals_the_unique_merge(self, seed, keep):
        dist, _, _ = random_distribution(random.Random(seed), m_x=3, m_y=1, d=3)
        projected = project(dist, [dist.attribute_set[c] for c in keep])
        uniq, inverse = np.unique(dist.levels[:, keep], axis=0, return_inverse=True)
        counts = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(counts, inverse.reshape(-1), dist.counts)
        assert projected.levels.dtype == uniq.dtype and np.array_equal(projected.levels, uniq)
        assert projected.counts.dtype == counts.dtype and np.array_equal(projected.counts, counts)


# Cells Python's int() accepts (a sign, surrounding spaces, an underscore, an
# Arabic-Indic digit, a carriage return) and rejects (a decimal point, an
# empty cell, a NUL). Around the byte parser's limits: leading zeros, a
# negative zero, 18 digits (the longest it reads), 19 digits just inside and
# just past int64, and one beyond.
PAYLOAD_CELLS = [
    "0", "1", "12", "007", "-0", "-3", "+5", " 5", "1_0", "\u0665", "5\r", "5.0", "",
    "123456789012345678", "9223372036854775807", "9223372036854775808",
    "99999999999999999999", "5\x00", "\x00",
]


@st.composite
def payloads(draw):
    width = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(PAYLOAD_CELLS), min_size=max(1, width - 1), max_size=width + 1),
            max_size=6,
        )
    )
    return width, [",".join(row) for row in rows]


def parse_outcome(parse, *args):
    try:
        return parse("c.dist", *args).tolist()
    except DistributionIOError as exc:
        return str(exc)


def line_loop_outcome(path, rows: list[str], width: int):
    """What the cache's line loop makes of these payload rows, written out
    again here: the records, or the message of the first fault."""
    parsed = []
    for lineno, line in enumerate(rows, start=2):
        cells = line.split(",")
        if len(cells) != width:
            return f"{path}:{lineno}: expected {width} comma-separated integers"
        try:
            parsed.append([int(c) for c in cells])
        except ValueError:
            return f"{path}:{lineno}: non-integer cell"
    if not parsed:
        return f"{path}: no records"
    for lineno, row in enumerate(parsed, start=2):
        if not all(-(2**63) <= c < 2**63 for c in row):
            return f"{path}:{lineno}: cell outside the int64 range"
    return parsed


def expected_load(path, original: StatDistribution):
    """What loading the edited cache at ``path`` must give: its levels and
    counts, or the message of the first fault. The header is the original
    one, unedited, and the checksum fits the bytes before its line."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    lines.pop()  # the file ends in a newline
    if not lines[-1].startswith("#checksum="):
        return f"{path}: missing trailing checksum line"
    parsed = line_loop_outcome(path, lines[1:-1], len(original.attribute_set) + 1)
    if isinstance(parsed, str):
        return parsed
    data = np.array(parsed, dtype=np.int64)
    try:
        dist = StatDistribution(
            original.attribute_set, original.domain, data[:, :-1], data[:, -1],
            original.pair_total, original.fingerprint, metric_specs=original.metric_specs,
        )
    except ValidationError as exc:
        return f"{path}: invalid distribution payload: {exc}"
    return dist.levels.tolist(), dist.counts.tolist()


# The bytes a payload edit writes: the digits, the separators, what int()
# also accepts around a cell, a NUL, and a two-byte UTF-8 digit.
EDIT_BYTES = [
    *(str(k).encode() for k in range(10)),
    b",", b"\n", b"\r", b" ", b"+", b"-", b"_", b"\x00", "\u0665".encode(),
]


@st.composite
def payload_edits(draw):
    """One replace, insert or delete: its kind, position and new bytes."""
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    new = b"" if kind == "delete" else draw(st.sampled_from(EDIT_BYTES))
    return kind, draw(st.integers(0, 10**6)), new


class TestCacheFile:
    @settings(max_examples=300, deadline=None)
    @given(case=payloads())
    # a row one cell short next to one a cell long: the cell count matches
    @example(case=(2, ["1,2", "3", "4,5,6", "7,8"]))
    @example(case=(3, ["+5, 5,1_0", "\u0665,0,1"]))
    # a trailing NUL: int() rejects it, and so must the byte parser
    @example(case=(2, ["5\x00,1", "2,3"]))
    # the longest cell the byte parser reads, int64's largest value, and one past it
    @example(case=(2, ["123456789012345678,007", "9223372036854775807,1"]))
    @example(case=(2, ["1,2", "9223372036854775808,1"]))
    @example(case=(1, ["5\r"]))
    def test_byte_parse_equals_the_line_loop(self, case):
        width, rows = case
        payload = "".join(f"{row}\n" for row in rows).encode()
        assert parse_outcome(distribution_module._parse_payload, payload, width) == parse_outcome(
            distribution_module._parse_rows, rows, width
        )

    @pytest.mark.parametrize(
        "records, d, names",
        [
            ({(11, 0, 3): 5, (0, 10, 1): 7, (10, 11, 11): 1}, 12, None),  # two-digit levels
            ({(0, 1): 2**40, (1, 1): 3, (1, 0): 10**17}, 3, None),
            ({(0, 1): 2, (1, 1): 3}, 3, ["a,b c", " x, y "]),
        ],
    )
    def test_saved_caches_take_the_byte_path(self, tmp_path, monkeypatch, records, d, names):
        def line_loop(*args):
            raise AssertionError("a saved cache went to the line loop")

        monkeypatch.setattr(distribution_module, "_parse_rows", line_loop)
        dist = make_distribution(records, d=d, names=names)
        path = tmp_path / "saved.dist"
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert loaded == dist
        assert loaded.levels.dtype == dist.levels.dtype and loaded.counts.dtype == dist.counts.dtype

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        edit=payload_edits(),
        algorithm=st.sampled_from(["eps", "epsc", "apsi"]),
    )
    def test_one_byte_edit_loads_as_the_line_loop_reads_it(
        self, tmp_path_factory, seed, edit, algorithm
    ):
        dist, _, _ = random_distribution(random.Random(seed), m_x=2, d=4, max_samples=30)
        path = tmp_path_factory.mktemp("edit") / "e.dist"
        save_distribution(dist, path)
        header, _, rest = path.read_bytes().partition(b"\n")
        payload = bytearray(rest[: rest.rindex(b"#checksum=")])
        kind, at, new = edit
        at %= len(payload) + (kind == "insert")
        payload[at : at + (kind != "insert")] = new
        body = header + b"\n" + bytes(payload)
        path.write_bytes(body + b"#checksum=%s\n" % hashlib.sha256(body).hexdigest().encode())

        expected = expected_load(path, dist)
        try:
            loaded = load_distribution(path)
        except DistributionIOError as exc:
            assert str(exc) == expected
        else:
            assert (loaded.levels.tolist(), loaded.counts.tolist()) == expected

        argv = ["discover", "--dist", str(path), "--lhs", "A0,A1", "--rhs", "A2",
                "--rhs-levels", "1", "--min-support", "1/10", "--min-confidence", "1/2",
                "--algorithm", algorithm, "--out", str(path.with_suffix(".json"))]
        if algorithm == "apsi":
            argv += ["--epsilon", "1/10"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        # exit 3 with the loader's one line, or 0 with nothing: never a traceback
        if isinstance(expected, str):
            assert (code, stderr.getvalue()) == (3, f"error: {expected}\n")
        else:
            assert (code, stderr.getvalue()) == (0, "")

    def test_save_writes_the_fixed_cache_text(self, tmp_path):
        dist = make_distribution(
            {(11, 0, 3): 2**40, (0, 0, 0): 7, (5, 10, 1): 1}, d=12, names=["a,b c", "Zip", "x"]
        )
        path = tmp_path / "fixed.dist"
        save_distribution(dist, path)
        assert path.read_bytes() == (
            b"#mdd-dist v1 d=12 pairs=1099511627784 attrs=0:a%2Cb%20c,1:Zip,2:x metric=synthetic "
            b"fingerprint=7b51d838b5d83645fcc83ac58f22ce4d10f6254a654745df0b480fd52a7b6f84\n"
            b"0,0,0,7\n"
            b"5,10,1,1\n"
            b"11,0,3,1099511627776\n"
            b"#checksum=5e79a723af6c6811d16259f69632485f84c4f032fb4a41350b93648068ddb6ae\n"
        )

    def test_short_row_next_to_long_row_names_the_short_one(self, tmp_path):
        body = "#mdd-dist v1 d=3 pairs=3 attrs=0:A,1:B metric=edit fingerprint=x\n0,1,1\n1\n2,2,1,1\n"
        path = tmp_path / "ragged.dist"
        path.write_text(body + f"#checksum={hashlib.sha256(body.encode()).hexdigest()}\n")
        with pytest.raises(DistributionIOError, match=r"ragged.dist:3: expected 3 comma-separated"):
            load_distribution(path)

    def test_round_trip_structural_and_byte_identical(self, tmp_path, contacts, domain10, cosine_word):
        attrs = (contacts.attribute("Name"), contacts.attribute("City"))
        dist = build_distribution(contacts, attrs, cosine_word, domain10)
        p1, p2 = tmp_path / "a.dist", tmp_path / "b.dist"
        save_distribution(dist, p1)
        loaded = load_distribution(p1)
        assert loaded == dist
        assert [tuple(map(int, r)) for r in loaded.levels] == [
            tuple(map(int, r)) for r in dist.levels
        ]
        save_distribution(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_reordered_records(self, tmp_path):
        dist = sort_by_probability_desc(
            make_distribution({(0, 1): 3, (2, 2): 9, (1, 0): 5}, d=3)
        )
        path = tmp_path / "sorted.dist"
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert [tuple(map(int, r)) for r in loaded.levels] == [
            tuple(map(int, r)) for r in dist.levels
        ]

    def test_attr_names_with_commas_survive(self, tmp_path):
        dist = make_distribution({(0, 1): 2, (1, 1): 3}, d=3, names=["a,b c", "plain"])
        path = tmp_path / "odd.dist"
        save_distribution(dist, path)
        loaded = load_distribution(path)
        assert [a.name for a in loaded.attribute_set] == ["a,b c", "plain"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DistributionIOError):
            load_distribution(tmp_path / "nope.dist")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.dist"
        path.write_text("#mdd-dist v9 d=3 pairs=1 attrs=a metric=edit fingerprint=00\n0,1\n")
        with pytest.raises(DistributionIOError, match="version"):
            load_distribution(path)

    def test_checksum_mismatch(self, tmp_path, contacts, domain10, cosine_word):
        attrs = (contacts.attribute("Name"),)
        dist = build_distribution(contacts, attrs, cosine_word, domain10)
        path = tmp_path / "c.dist"
        save_distribution(dist, path)
        text = path.read_text()
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[-1] = str(int(cells[-1]) + 1)
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DistributionIOError, match="checksum"):
            load_distribution(path)

    def test_malformed_row(self, tmp_path, contacts, domain10, cosine_word):
        attrs = (contacts.attribute("Name"),)
        dist = build_distribution(contacts, attrs, cosine_word, domain10)
        path = tmp_path / "m.dist"
        save_distribution(dist, path)
        lines = path.read_text().splitlines()
        lines.insert(1, "not,numbers")
        body = "\n".join(lines[:-1]) + "\n"
        path.write_text(body + f"#checksum={hashlib.sha256(body.encode()).hexdigest()}\n")
        with pytest.raises(DistributionIOError):
            load_distribution(path)


class TestStatDistributionInvariants:
    def test_duplicate_vectors_rejected(self):
        with pytest.raises(ValidationError):
            StatDistribution(
                (make_distribution({(0,): 1}, d=3).attribute_set),
                LevelDomain(3),
                np.array([[1], [1]], dtype=np.int16),
                np.array([1, 2], dtype=np.int64),
                3,
                "f",
            )

    @pytest.mark.parametrize(
        "levels,counts,message",
        [
            ([[1.7]], [3], "levels must be integers"),
            ([[0], [1]], [1.9, 1.1], "counts must be integers"),
            (np.array([[65537]], dtype=np.int64), [3], "levels must lie in 0..32767"),
            ([[1]], np.array([2**63], dtype=np.uint64), "counts must be positive int64"),
            # four counts whose int64 sum wraps around to 3
            ([[0], [1], [2], [3]], [2**62, 2**62, 2**62, 2**62 + 3], "must sum to pair_total"),
        ],
    )
    def test_values_checked_before_the_storage_cast(self, levels, counts, message):
        attrs = make_distribution({(0,): 1}, d=3).attribute_set
        with pytest.raises(ValidationError, match=message):
            StatDistribution(attrs, LevelDomain(32768), levels, counts, 3, "f")

    def test_counts_must_sum_to_pair_total(self):
        with pytest.raises(ValidationError):
            make_distribution({(0,): 1, (1,): 1}, d=3, pair_total=5)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(11)
        dist, _, _ = random_distribution(rng, m_x=2, m_y=1)
        assert Fraction(int(dist.counts.sum()), dist.pair_total) == 1

    def test_arrays_read_only(self):
        dist = make_distribution({(0,): 1}, d=3)
        with pytest.raises(ValueError):
            dist.counts[0] = 5
