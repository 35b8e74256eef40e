"""Discovery algorithms: the fold reference, exact scans, pruning
equivalences, and the prefix approximations with their error bounds.

Early-termination behavior (epsc confidence breaks, api individual stops) is
checked against plain record-by-record simulators written here from the
definitions, with exact rational arithmetic, independent of the vectorized
engine paths.
"""

import bisect
import dataclasses
import gc
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mdd import (
    AttributeId,
    CandidateLattice,
    ContractViolationError,
    DiscoveredMd,
    EvalCounters,
    LevelDomain,
    ThresholdPattern,
    SchemaMismatchError,
    ValidationError,
    ap,
    api,
    aps,
    apsi,
    build_distribution,
    compute_prefix_k,
    ea,
    eps,
    epsc,
    group_by_rhs,
    oracle_discover,
    oracle_measures,
    run_request,
    sort_by_probability_desc,
    strip_zero_levels,
)
import mdd.discovery as discovery
from mdd.model import Algorithm, DiscoveryRequest, EvaluationMode

from conftest import fold, make_distribution, random_distribution, random_relation, satisfied


def fresh_lattice(dist, x_attrs):
    return CandidateLattice(tuple(x_attrs), dist.domain)


def result_key(mds):
    return [(m.lhs_pattern, m.support, m.confidence) for m in mds]


# ---------------------------------------------------------------------------
# Sequential reference simulators (independent of the engine's fast paths)
# ---------------------------------------------------------------------------


def simulate_eps(dist, x_attrs, rhs_pattern, eta_s: Fraction, eta_c: Fraction, upto=None):
    """Record-by-record walk of the support-pruned scan over the first
    ``upto`` records (all by default): visit the candidates in dominance
    order, skip every candidate in the strict upper set of a recorded
    failure, read the whole prefix for the rest, and record a failure when
    the support misses the minimum. Returns the accepted candidates in
    lexicographic order, the candidates evaluated and the records read."""
    k = dist.n if upto is None else upto
    cols = [dist.column_index(a) for a in x_attrs]
    records = [
        ([int(dist.levels[i, c]) for c in cols], satisfied(dist, i, rhs_pattern),
         int(dist.counts[i]))
        for i in range(k)
    ]
    failed: list[tuple[int, ...]] = []
    accepted = []
    evaluated = records_read = 0
    for cand in sorted(itertools.product(range(dist.domain.d), repeat=len(x_attrs)), key=sum):
        if any(all(f <= c for f, c in zip(fail, cand)) for fail in failed):
            continue
        evaluated += 1
        joint = lhs = 0
        for levels, rhs_ok, count in records:
            records_read += 1
            if all(level >= t for level, t in zip(levels, cand)):
                lhs += count
                if rhs_ok:
                    joint += count
        if Fraction(joint, dist.pair_total) < eta_s:
            failed.append(cand)
        elif Fraction(joint, lhs) >= eta_c:
            accepted.append(cand)
    return sorted(accepted), evaluated, records_read


def simulate_epsc(dist, x_attrs, rhs_pattern, eta_s: Fraction, eta_c: Fraction):
    """Record-by-record walk of the combined pruning scan: reject a candidate
    at the first defined running confidence below the minimum, then break once
    its running support reaches the minimum, else keep scanning; prune the
    upper set when a full scan ends short on support."""
    d = dist.domain.d
    m = len(x_attrs)
    total_records = {}
    accepted = []
    failed: list[tuple[int, ...]] = []
    for cand in itertools.product(range(d), repeat=m):
        if any(all(f <= c for f, c in zip(fail, cand)) for fail in failed):
            continue
        pattern = ThresholdPattern.over(x_attrs, cand)
        joint = Fraction(0)
        lhs = Fraction(0)
        rejected = False
        scanned = 0
        for i in range(dist.n):
            probability = Fraction(int(dist.counts[i]), dist.pair_total)
            scanned = i + 1
            if satisfied(dist, i, pattern):
                lhs += probability
                if satisfied(dist, i, rhs_pattern):
                    joint += probability
            if not rejected and lhs > 0 and joint / lhs < eta_c:
                rejected = True
            if rejected and joint >= eta_s:
                break
        total_records[cand] = scanned
        if scanned == dist.n and joint < eta_s:
            failed.append(cand)
        if not rejected and joint >= eta_s and lhs > 0 and joint / lhs >= eta_c:
            accepted.append(cand)
    return accepted, total_records


def simulate_api_stops(dist, x_attrs, rhs_pattern, eta_s, eta_c, epsilon):
    """Per-candidate stop indices of the individually bounded approximation,
    straight from the definition with exact rationals: a candidate stops
    after the first record where the unseen mass is within its bound on the
    joint mass read so far."""
    bound = compute_prefix_k(dist, epsilon, eta_s, eta_c)
    k = bound.prefix_k
    eps = Fraction(str(epsilon)) if not isinstance(epsilon, Fraction) else epsilon
    eta_c = Fraction(str(eta_c)) if not isinstance(eta_c, Fraction) else eta_c
    d = dist.domain.d
    m = len(x_attrs)
    stops = {}
    for cand in itertools.product(range(d), repeat=m):
        pattern = ThresholdPattern.over(x_attrs, cand)
        joint = Fraction(0)
        remaining = Fraction(1)
        stop = k
        for i in range(k):
            probability = Fraction(int(dist.counts[i]), dist.pair_total)
            if satisfied(dist, i, pattern) and satisfied(dist, i, rhs_pattern):
                joint += probability
            remaining -= probability
            if remaining <= min(eps * joint, eps * joint * eta_c / (1 - eps - eta_c)):
                stop = i + 1
                break
        stops[cand] = stop
    return stops, k


def simulate_api(dist, x_attrs, rhs_pattern, eta_s, eta_c, epsilon, *, prune, stops=None):
    """api's rules and counters (apsi's with ``prune``) from the simulated
    stops (``stops``, simulate_api_stops's result, when given): visit the
    candidates in dominance order, skip the upper set of a recorded failure
    (a candidate that read the whole prefix and missed the support minimum),
    and measure the rest with fold at their stop. Returns the rules as
    (pattern, support, confidence) in lexicographic order."""
    if stops is None:
        stops = simulate_api_stops(dist, x_attrs, rhs_pattern, eta_s, eta_c, epsilon)
    stops, k = stops
    d = dist.domain.d
    pruned = set()
    evaluated, rules = [], []
    for cand in sorted(stops, key=sum):
        if cand in pruned:
            continue
        evaluated.append(cand)
        pattern = ThresholdPattern.over(x_attrs, cand)
        joint, lhs = fold(dist, pattern, rhs_pattern, upto=stops[cand])
        support = Fraction(joint, dist.pair_total)
        if prune and stops[cand] == k and support < eta_s:
            pruned.update(itertools.product(*(range(level, d) for level in cand)))
        if support >= eta_s and Fraction(joint, lhs) >= eta_c:
            rules.append((cand, strip_zero_levels(pattern), support, Fraction(joint, lhs)))
    counters = EvalCounters(
        records_evaluated=sum(stops[c] for c in evaluated),
        candidates_evaluated=len(evaluated),
        candidates_pruned_support=len(stops) - len(evaluated),
        candidates_total=len(stops),
    )
    return [rule[1:] for rule in sorted(rules)], counters


# ---------------------------------------------------------------------------
# The fold reference (tests/conftest.py)
# ---------------------------------------------------------------------------


class TestAccumulator:
    """The (joint, lhs) counts a candidate accumulates record by record."""

    def test_zero_patterns_full_mass(self):
        rng = random.Random(1)
        dist, X, Y = random_distribution(rng, m_x=2, m_y=1)
        joint, lhs = fold(
            dist,
            ThresholdPattern.over(X, [0, 0]),
            ThresholdPattern.over(Y, [0]),
        )
        assert joint == lhs == dist.pair_total

    def test_monotone_and_ordered(self):
        rng = random.Random(2)
        dist, X, Y = random_distribution(rng, m_x=2, m_y=1, d=5)
        lam = ThresholdPattern.over(X, [2, 1])
        rhs = ThresholdPattern.over(Y, [3])
        prev_joint, prev_lhs = 0, 0
        for upto in range(dist.n + 1):
            joint, lhs = fold(dist, lam, rhs, upto=upto)
            assert joint <= lhs
            assert joint >= prev_joint and lhs >= prev_lhs
            prev_joint, prev_lhs = joint, lhs

    def test_matches_oracle_on_relation(self, domain10, cosine_word):
        rng = random.Random(3)
        rel = random_relation(rng, n_rows=14, n_attrs=3)
        lhs = [rel.attribute("A0"), rel.attribute("A1")]
        rhs = [rel.attribute("A2")]
        dist = build_distribution(rel, tuple(lhs + rhs), cosine_word, domain10)
        lam = ThresholdPattern.over(lhs, [4, 2])
        rhs_pattern = ThresholdPattern.over(rhs, [5])
        joint, lhs_count = fold(dist, lam, rhs_pattern)
        sup, conf = oracle_measures(rel, lhs, rhs, lam, rhs_pattern, cosine_word, domain10)
        assert Fraction(joint, dist.pair_total) == sup
        assert (Fraction(joint, lhs_count) if lhs_count else 0) == conf


# ---------------------------------------------------------------------------
# Exact algorithms
# ---------------------------------------------------------------------------


class TestEa:
    def test_zero_min_support_rejected(self):
        rng = random.Random(4)
        dist, X, Y = random_distribution(rng, m_x=1)
        with pytest.raises(ValidationError):
            ea(dist, fresh_lattice(dist, X), ThresholdPattern.over(Y, [0]), 0, "0.5")

    def test_single_record_distribution_returns_zero_pattern(self):
        dist = make_distribution({(3, 9): 7}, d=10)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        mds = ea(dist, fresh_lattice(dist, X), ThresholdPattern.over(Y, [9]), "0.5", 1)
        assert any(len(md.lhs_pattern) == 0 for md in mds)
        top = next(md for md in mds if len(md.lhs_pattern) == 0)
        assert top.support == 1 and top.confidence == 1

    def test_counters_cover_whole_space(self):
        rng = random.Random(5)
        dist, X, Y = random_distribution(rng, m_x=2, d=3)
        counters = EvalCounters()
        ea(dist, fresh_lattice(dist, X),
           ThresholdPattern.over(Y, [1]), "0.05", "0.3", counters=counters)
        assert counters.candidates_evaluated == 9
        assert counters.records_evaluated == 9 * dist.n
        assert counters.candidates_pruned_support == 0

    def test_matches_vectorized_fold(self):
        rng = random.Random(6)
        dist, X, Y = random_distribution(rng, m_x=2, d=4)
        rhs = ThresholdPattern.over(Y, [2])
        mds = ea(dist, fresh_lattice(dist, X), rhs, "0.01", "0.01")
        for md in mds:
            joint, lhs = fold(dist, md.lhs_pattern, rhs)
            assert Fraction(joint, dist.pair_total) == md.support
            assert Fraction(joint, lhs) == md.confidence

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_oracle_on_random_relations(self, seed, cosine_word):
        rng = random.Random(100 + seed)
        rel = random_relation(rng, n_rows=rng.randint(6, 18), n_attrs=3)
        lhs = [rel.attribute("A0"), rel.attribute("A1")]
        rhs = [rel.attribute("A2")]
        domain = LevelDomain(rng.choice([2, 3, 4]))
        rhs_pattern = ThresholdPattern.over(rhs, [rng.randint(0, domain.d - 1)])
        eta_s = Fraction(rng.randint(1, 10), 100)
        eta_c = Fraction(rng.randint(1, 9), 10)
        dist = build_distribution(rel, tuple(lhs + rhs), cosine_word, domain)
        mds = ea(dist, fresh_lattice(dist, lhs), rhs_pattern, eta_s, eta_c)
        truth = oracle_discover(
            rel, lhs, rhs, rhs_pattern, eta_s, eta_c, cosine_word, domain
        )
        assert [m.lhs_pattern for m in mds] == truth
        for md in mds:
            sup, conf = oracle_measures(
                rel, lhs, rhs, md.lhs_pattern, rhs_pattern, cosine_word, domain
            )
            assert (sup, conf) == (md.support, md.confidence)


class TestEps:
    def test_bottom_failure_empties_everything(self):
        # sole record misses the rhs pattern: even the all-zero candidate fails
        dist = make_distribution({(5, 0): 3}, d=10)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        counters = EvalCounters()
        mds = eps(dist, fresh_lattice(dist, X),
                  ThresholdPattern.over(Y, [5]), "0.5", "0.5", counters=counters)
        assert mds == []
        assert counters.candidates_evaluated == 1
        assert counters.candidates_pruned_support == 9

    def test_no_failures_means_no_savings(self):
        dist = make_distribution({(2, 2): 6, (0, 1): 4}, d=3)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [0])
        c_ea, c_eps = EvalCounters(), EvalCounters()
        r1 = ea(dist, fresh_lattice(dist, X), rhs, Fraction(1, 10), "0.1", counters=c_ea)
        r2 = eps(dist, fresh_lattice(dist, X), rhs, Fraction(1, 10), "0.1", counters=c_eps)
        # support of the top candidate is 0.6, above the minimum: nothing fails
        assert result_key(r1) == result_key(r2)
        assert c_eps.records_evaluated == c_ea.records_evaluated

    def test_counts_summing_to_2_64_rejected(self):
        # int64 cubes of these counts wrap: eps reported X>=2 with confidence
        # 1/-2 and missed X>=1 (support 1/2, confidence 2/3)
        vectors = {(0, 0): 2**62, (1, 1): 2**62, (2, 0): 2**62, (2, 1): 2**62}
        with pytest.raises(ValidationError, match=r"pair_total must be below 2\^63"):
            dist = make_distribution(vectors, d=3, pair_total=2**64)
            X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
            eps(dist, fresh_lattice(dist, X), ThresholdPattern.over(Y, [1]), "0.1", "0.5")

    def test_counts_summing_to_the_int64_maximum(self):
        vectors = {(0, 0): 2**61 - 1, (1, 1): 2**61, (2, 0): 2**61, (2, 1): 2**61}
        dist = make_distribution(vectors, d=3)
        total = dist.pair_total
        assert total == 2**63 - 1
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [1])
        want = [
            (ThresholdPattern(()), Fraction(2**62, total), Fraction(2**62, total)),
            (ThresholdPattern.over(X, [1]), Fraction(2**62, total), Fraction(2, 3)),
            (ThresholdPattern.over(X, [2]), Fraction(2**61, total), Fraction(1, 2)),
        ]
        grouped, _ = group_by_rhs(dist, rhs)
        for engine, target in ((ea, dist), (eps, dist), (epsc, grouped)):
            mds = engine(target, fresh_lattice(dist, X), rhs, "0.1", "0.5")
            assert result_key(mds) == want, engine.__name__

    @pytest.mark.parametrize("seed", range(10))
    def test_differential_vs_ea(self, seed):
        rng = random.Random(200 + seed)
        dist, X, Y = random_distribution(rng, m_x=rng.randint(1, 3), d=rng.choice([3, 4]))
        rhs = ThresholdPattern.over(Y, [rng.randint(0, dist.domain.d - 1)])
        eta_s = Fraction(rng.randint(1, 30), 100)
        eta_c = Fraction(rng.randint(1, 9), 10)
        c_ea, c_eps = EvalCounters(), EvalCounters()
        r_ea = ea(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c, counters=c_ea)
        r_eps = eps(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c, counters=c_eps)
        assert result_key(r_ea) == result_key(r_eps)
        assert c_eps.candidates_evaluated <= c_ea.candidates_evaluated


class TestEpsc:
    def test_groups_its_input_by_the_rhs_pattern(self):
        # the raw records, and records grouped for another rhs pattern, give
        # the rules of the grouped records; the raw ones keep their order
        # within each group, so the counters match too
        rng = random.Random(8)
        dist, X, Y = random_distribution(rng, m_x=1, d=4)
        rhs = ThresholdPattern.over(Y, [1])
        grouped, _ = group_by_rhs(dist, rhs)
        other, _ = group_by_rhs(dist, ThresholdPattern.over(Y, [2]))
        want = EvalCounters()
        rules = result_key(epsc(grouped, fresh_lattice(dist, X), rhs, "0.1", "0.5", counters=want))
        assert rules
        raw = EvalCounters()
        assert result_key(epsc(dist, fresh_lattice(dist, X), rhs, "0.1", "0.5", counters=raw)) == rules
        assert raw == want
        assert result_key(epsc(other, fresh_lattice(dist, X), rhs, "0.1", "0.5")) == rules

    def test_full_confidence_candidate_scans_everything(self):
        # a candidate satisfied only inside the rhs-satisfying prefix keeps
        # running confidence 1 and is never rejected early
        dist = make_distribution({(4, 1): 4, (9, 8): 6}, d=10)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [6])
        grouped, pivot = group_by_rhs(dist, rhs)
        assert pivot == 1
        eta_s, eta_c = Fraction(1, 2), Fraction(9, 10)
        accepted, per_candidate = simulate_epsc(grouped, X, rhs, eta_s, eta_c)
        assert per_candidate[(9,)] == grouped.n  # full scan, no confidence break
        assert (9,) in accepted
        counters = EvalCounters()
        mds = epsc(grouped, fresh_lattice(dist, X), rhs, eta_s, eta_c, counters=counters)
        assert counters.records_evaluated == sum(per_candidate.values())
        by_pattern = {md.lhs_pattern: md for md in mds}
        lam9 = ThresholdPattern.over(X, (9,))
        assert lam9 in by_pattern
        assert by_pattern[lam9].confidence == 1

    def test_three_record_trace_breaks_right_after_pivot(self):
        # grouped order: (5,9)x5 | (4,1)x4, (9,0)x1, pivot 1
        dist = make_distribution({(5, 9): 5, (4, 1): 4, (9, 0): 1}, d=10)
        X = dist.attribute_set[:1]
        rhs = ThresholdPattern.over(dist.attribute_set[1:], [6])
        grouped, pivot = group_by_rhs(dist, rhs)
        assert pivot == 1
        eta_s, eta_c = Fraction(3, 10), Fraction(7, 10)
        accepted, per_candidate = simulate_epsc(grouped, X, rhs, eta_s, eta_c)
        # candidate X>=3: confidence drops to 5/9 < 0.7 at the record right
        # after the pivot while support 0.5 already qualifies: break there
        assert per_candidate[(3,)] == pivot + 1
        counters = EvalCounters()
        mds = epsc(grouped, fresh_lattice(dist, X), rhs, eta_s, eta_c, counters=counters)
        assert counters.records_evaluated == sum(per_candidate.values())
        assert [m.lhs_pattern for m in mds] == [
            strip_zero_levels(ThresholdPattern.over(X, c)) for c in sorted(accepted)
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_differential_vs_ea_and_simulator(self, seed):
        rng = random.Random(300 + seed)
        dist, X, Y = random_distribution(rng, m_x=rng.randint(1, 2), d=rng.choice([3, 4, 5]))
        rhs = ThresholdPattern.over(Y, [rng.randint(0, dist.domain.d - 1)])
        eta_s = Fraction(rng.randint(1, 30), 100)
        eta_c = Fraction(rng.randint(1, 9), 10)
        grouped, _ = group_by_rhs(dist, rhs)
        r_ea = ea(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c)
        counters = EvalCounters()
        r_epsc = epsc(grouped, fresh_lattice(dist, X), rhs, eta_s, eta_c, counters=counters)
        assert result_key(r_ea) == result_key(r_epsc)
        accepted, per_candidate = simulate_epsc(grouped, X, rhs, eta_s, eta_c)
        assert [m.lhs_pattern for m in r_epsc] == [
            strip_zero_levels(ThresholdPattern.over(X, c)) for c in sorted(accepted)
        ]
        assert counters.records_evaluated == sum(per_candidate.values())


# ---------------------------------------------------------------------------
# Monotonicity properties the pruning relies on
# ---------------------------------------------------------------------------


class TestSupportMonotoneUnderDominance:
    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive_small_lattices(self, seed):
        rng = random.Random(400 + seed)
        d = rng.choice([2, 3, 4])
        m = rng.randint(1, 3)
        dist, X, Y = random_distribution(rng, m_x=m, m_y=1, d=d)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, d - 1)])
        support = {}
        for cand in itertools.product(range(d), repeat=m):
            support[cand] = fold(dist, ThresholdPattern.over(X, cand), rhs)[0]
        for c1, c2 in itertools.combinations(support, 2):
            if all(a <= b for a, b in zip(c1, c2)):
                assert support[c1] >= support[c2]
            if all(b <= a for a, b in zip(c1, c2)):
                assert support[c2] >= support[c1]


class TestConfidenceNonincreasingWhenGrouped:
    @pytest.mark.parametrize("seed", range(6))
    def test_running_confidence(self, seed):
        rng = random.Random(500 + seed)
        dist, X, Y = random_distribution(rng, m_x=2, m_y=1, d=4)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, 3)])
        grouped, _ = group_by_rhs(dist, rhs)
        for _ in range(25):
            cand = tuple(rng.randint(0, 3) for _ in X)
            lam = ThresholdPattern.over(X, cand)
            last = None
            for upto in range(1, grouped.n + 1):
                joint, lhs = fold(grouped, lam, rhs, upto=upto)
                if lhs == 0:
                    continue
                conf = Fraction(joint, lhs)
                if last is not None:
                    assert conf <= last
                last = conf


# ---------------------------------------------------------------------------
# Approximation machinery
# ---------------------------------------------------------------------------


class TestComputePrefixK:
    def test_bound_value_arithmetic(self):
        dist = sort_by_probability_desc(make_distribution({(0, 0): 1}, d=2))
        got = compute_prefix_k(dist, "0.8", "0.01", "0.15")
        assert got.bound == Fraction(1, 125)  # min(0.008, 0.024)
        assert float(got.bound) == 0.008

    def test_whole_prefix_always_feasible(self):
        rng = random.Random(9)
        dist, _, _ = random_distribution(rng, m_x=1)
        dist = sort_by_probability_desc(dist)
        got = compute_prefix_k(dist, "0.5", "0.2", "0.3")
        assert 1 <= got.prefix_k <= dist.n
        assert got.suffix_mass <= got.bound

    def test_uniform_hundred_records_needs_all(self):
        dist = sort_by_probability_desc(
            make_distribution({(i // 10, i % 10): 1 for i in range(100)}, d=10)
        )
        got = compute_prefix_k(dist, "0.8", "0.01", "0.15")
        # one record alone carries 0.01 > 0.008, so nothing may be dropped
        assert got.prefix_k == 100
        assert got.suffix_mass == 0

    def test_epsilon_range_enforced(self):
        dist = sort_by_probability_desc(make_distribution({(0, 0): 1}, d=2))
        with pytest.raises(ValidationError):
            compute_prefix_k(dist, "0.9", "0.01", "0.15")
        with pytest.raises(ValidationError):
            compute_prefix_k(dist, 0, "0.01", "0.15")

    def test_requires_sorted_order(self):
        dist = make_distribution({(0, 0): 1, (1, 1): 9}, d=2)  # ascending counts
        with pytest.raises(ContractViolationError):
            compute_prefix_k(dist, "0.5", "0.1", "0.2")

    @pytest.mark.parametrize("seed", range(8))
    def test_minimality_brute_force(self, seed):
        rng = random.Random(600 + seed)
        dist, _, _ = random_distribution(rng, m_x=2, m_y=1, d=4)
        dist = sort_by_probability_desc(dist)
        eta_s = Fraction(rng.randint(1, 20), 100)
        eta_c = Fraction(rng.randint(1, 6), 10)
        choices = [e for e in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
                   if e < 1 - eta_c]
        epsilon = rng.choice(choices)
        got = compute_prefix_k(dist, epsilon, eta_s, eta_c)
        counts = [int(c) for c in dist.counts]
        pt = dist.pair_total

        def suffix(k):
            return Fraction(sum(counts[k:]), pt)

        assert suffix(got.prefix_k) <= got.bound
        assert got.suffix_mass == suffix(got.prefix_k)
        if got.prefix_k > 1:
            assert suffix(got.prefix_k - 1) > got.bound


class TestAp:
    def test_tight_epsilon_degenerates_to_ea(self):
        # With k = n the approximate scan is the exact one: ap equals ea and
        # aps equals eps in rules, measures and every counter; only the mode
        # differs.
        pruned = 0
        for seed in range(40):
            rng = random.Random(1000 + seed)
            d = rng.choice([3, 4])
            dist, X, Y = random_distribution(rng, m_x=rng.randint(1, 3), d=d, max_samples=120)
            sdist = sort_by_probability_desc(dist)
            rhs = ThresholdPattern.over(Y, [rng.randint(0, d - 1)])
            eta_s = Fraction(rng.randint(1, 30), 100)
            eta_c = Fraction(rng.randint(1, 9), 10)
            # bound far below the smallest record mass forces k = n
            epsilon = Fraction(1, 10 * dist.pair_total)
            assert compute_prefix_k(sdist, epsilon, eta_s, eta_c).prefix_k == dist.n
            for exact, approx in ((ea, ap), (eps, aps)):
                c_exact, c_approx = EvalCounters(), EvalCounters()
                r_exact = exact(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c, counters=c_exact)
                r_approx = approx(
                    sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_approx
                )
                assert result_key(r_approx) == result_key(r_exact)
                assert c_approx == c_exact
                assert all(md.mode.is_exact for md in r_exact)
                assert all(
                    md.mode == EvaluationMode.approximate(dist.n, epsilon) for md in r_approx
                )
                pruned += c_exact.candidates_pruned_support
        assert pruned > 0

    def test_adversarial_suffix_hides_a_valid_pattern(self):
        # twelve unit-mass records carry the rule; the bound chops three of
        # them off, dropping the observed support below the minimum
        vectors = {(0, 9): 88}
        spread = [(5 + i % 5, 6 + i % 4) for i in range(12)]
        assert len(set(spread)) == 12
        for vec in spread:
            vectors[vec] = 1
        dist = sort_by_probability_desc(make_distribution(vectors, d=10))
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [6])
        eta_s, eta_c, epsilon = Fraction(1, 10), Fraction(1, 2), Fraction(3, 10)
        bound = compute_prefix_k(dist, epsilon, eta_s, eta_c)
        assert bound.prefix_k == dist.n - 3
        lam = ThresholdPattern.over(X, (5,))
        joint, lhs = fold(dist, lam, rhs)
        assert Fraction(joint, dist.pair_total) == Fraction(12, 100) >= eta_s
        assert joint == lhs  # confidence 1
        r_ap = ap(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon)
        assert lam not in [m.lhs_pattern for m in r_ap]

    @pytest.mark.parametrize("seed", range(8))
    def test_error_bounds_against_ea(self, seed):
        rng = random.Random(700 + seed)
        dist, X, Y = random_distribution(rng, m_x=2, d=4, max_count=60)
        sdist = sort_by_probability_desc(dist)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, 3)])
        eta_c = rng.choice([Fraction(1, 10), Fraction(3, 20)])
        epsilon = rng.choice([Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)])
        eta_s = Fraction(rng.randint(1, 10), 100)
        exact = {
            m.lhs_pattern: m
            for m in ea(dist, fresh_lattice(dist, X), rhs, Fraction(1, 10**9), Fraction(1, 10**9))
        }
        for algo in (ap, api, aps, apsi):
            approx = algo(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon)
            for md in approx:
                exact_md = exact[md.lhs_pattern]
                c_n, c_k = exact_md.confidence, md.confidence
                s_n, s_k = exact_md.support, md.support
                assert abs(c_n - c_k) <= epsilon * c_n
                assert s_n - s_k <= epsilon * s_n


class TestApi:
    def _fixture(self):
        vectors = {(8, 9): 800}
        vectors.update({(0, j): 20 for j in range(10)})
        dist = sort_by_probability_desc(make_distribution(vectors, d=10))
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [6])
        return dist, X, rhs

    def test_heavy_prefix_stops_early(self):
        dist, X, rhs = self._fixture()
        eta_s, eta_c, epsilon = Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)
        stops, k = simulate_api_stops(dist, X, rhs, eta_s, eta_c, epsilon)
        assert k == dist.n - 1
        assert stops[(5,)] == 1  # one heavy satisfying record ends the scan
        assert stops[(9,)] == k  # no satisfying mass: bound out of reach
        counters = EvalCounters()
        mds = api(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=counters)
        assert counters.records_evaluated == sum(stops.values())
        got = {m.lhs_pattern: m for m in mds}
        lam5 = ThresholdPattern.over(X, (5,))
        assert got[lam5].support == Fraction(800, 1000)
        assert got[lam5].confidence == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_stop_indices_match_simulator(self, seed):
        rng = random.Random(800 + seed)
        dist, X, Y = random_distribution(rng, m_x=rng.randint(1, 2), d=4, max_count=40)
        sdist = sort_by_probability_desc(dist)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, 3)])
        eta_s = Fraction(rng.randint(1, 10), 100)
        eta_c = Fraction(3, 20)
        epsilon = rng.choice([Fraction(1, 2), Fraction(4, 5)])
        stops, k = simulate_api_stops(sdist, X, rhs, eta_s, eta_c, epsilon)
        c_api, c_ap = EvalCounters(), EvalCounters()
        r_api = api(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_api)
        r_ap = ap(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_ap)
        assert c_api.records_evaluated == sum(stops.values())
        assert c_api.records_evaluated <= c_ap.records_evaluated
        assert max(stops.values()) <= k
        # apsi skips exactly what a full-prefix support failure dominates; a
        # candidate that stopped early never prunes
        min_count = eta_s * sdist.pair_total
        failed = [
            c for c, stop in stops.items()
            if stop == k and fold(sdist, ThresholdPattern.over(X, c), rhs, upto=k)[0] < min_count
        ]
        evaluated = [
            c for c in stops
            if not any(f != c and all(a <= b for a, b in zip(f, c)) for f in failed)
        ]
        c_apsi = EvalCounters()
        r_apsi = apsi(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_apsi)
        assert c_apsi.candidates_evaluated == len(evaluated)
        assert c_apsi.records_evaluated == sum(stops[c] for c in evaluated)
        # the rules and their measures are fold's at each candidate's stop
        for got, counters, prune in ((r_api, c_api, False), (r_apsi, c_apsi, True)):
            rules, expected = simulate_api(sdist, X, rhs, eta_s, eta_c, epsilon, prune=prune)
            assert result_key(got) == rules
            assert counters == expected


class TestApsApsi:
    def test_bottom_failure_prunes_whole_lattice(self):
        # the lone record misses the rhs pattern, so even the all-zero
        # candidate has zero approximate support
        dist = sort_by_probability_desc(make_distribution({(5, 0): 3}, d=10))
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [5])
        for algo in (aps, apsi):
            counters = EvalCounters()
            out = algo(dist, fresh_lattice(dist, X), rhs, Fraction(1, 2), Fraction(1, 5),
                       Fraction(1, 2), counters=counters)
            assert out == []
            assert counters.candidates_evaluated == 1
            assert counters.candidates_pruned_support == 9

    @pytest.mark.parametrize("seed", range(12))
    def test_pruned_variants_match_and_save_work(self, seed):
        rng = random.Random(900 + seed)
        dist, X, Y = random_distribution(rng, m_x=rng.randint(1, 3), d=rng.choice([3, 4]))
        sdist = sort_by_probability_desc(dist)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, dist.domain.d - 1)])
        eta_s = Fraction(rng.randint(1, 25), 100)
        eta_c = Fraction(rng.randint(1, 4), 10)
        epsilon = Fraction(1, 2)
        c_ap, c_aps, c_api, c_apsi = (EvalCounters() for _ in range(4))
        r_ap = ap(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_ap)
        r_aps = aps(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_aps)
        r_api = api(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_api)
        r_apsi = apsi(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_apsi)
        assert result_key(r_ap) == result_key(r_aps)
        assert result_key(r_api) == result_key(r_apsi)
        assert c_aps.candidates_evaluated <= c_ap.candidates_evaluated
        assert c_apsi.candidates_evaluated <= c_api.candidates_evaluated


# ---------------------------------------------------------------------------
# The upper-set count cube behind ea/eps/epsc/ap/aps
# ---------------------------------------------------------------------------


@st.composite
def cube_cases(draw):
    """A small distribution over m lhs columns and one rhs column, a support
    and a confidence minimum, and an epsilon that puts the approximate
    engines' prefix at k = 1 (one record carries almost all the mass) or at
    k = n. The rhs pattern holds on no record, on every record, or on some."""
    m = draw(st.integers(1, 5))
    d = draw(st.integers(2, 6))
    pivot = draw(st.sampled_from(["none", "all", "some"]))
    rhs_top = d - 2 if pivot == "none" else d - 1
    vectors = st.tuples(*[st.integers(0, d - 1)] * m, st.integers(0, rhs_top))
    records = draw(st.dictionaries(vectors, st.integers(1, 50), min_size=1, max_size=12))
    prefix = draw(st.sampled_from(["one", "all"]))
    if prefix == "one":
        records[next(iter(records))] = 10**9
    dist = make_distribution(records, d)
    X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
    level = {"none": d - 1, "all": 0, "some": draw(st.integers(0, d - 1))}[pivot]
    rhs = ThresholdPattern.over(Y, [level])
    # minimums up to 1 often exceed the all-zero candidate's support, so
    # the whole lattice prunes at once
    eta_s = draw(st.fractions(Fraction(1, 1000), 1, max_denominator=1000))
    eta_c = draw(st.fractions(Fraction(1, 100), Fraction(9, 10), max_denominator=100))
    if prefix == "one":
        epsilon = (1 - eta_c) / 2
    else:
        epsilon = Fraction(1, 10 * dist.pair_total)
    k = compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k
    assert k == (1 if prefix == "one" else dist.n)
    return dist, X, rhs, eta_s, eta_c, epsilon


class TestUpperSetCube:
    @settings(max_examples=60, deadline=None)
    @given(case=cube_cases())
    def test_engines_equal_fold_and_sequential_counters(self, case):
        dist, X, rhs, eta_s, eta_c, epsilon = case
        grouped, _ = group_by_rhs(dist, rhs)
        sdist = sort_by_probability_desc(dist)
        k = compute_prefix_k(sdist, epsilon, eta_s, eta_c).prefix_k
        total = dist.domain.d ** len(X)
        runs = {
            "ea": (ea, dist, dist.n, ()),
            "eps": (eps, dist, dist.n, ()),
            "epsc": (epsc, grouped, dist.n, ()),
            "ap": (ap, sdist, k, (epsilon,)),
            "aps": (aps, sdist, k, (epsilon,)),
        }
        counters = {}
        for name, (engine, target, upto, extra) in runs.items():
            counters[name] = c = EvalCounters()
            mds = engine(target, fresh_lattice(dist, X), rhs, eta_s, eta_c, *extra, counters=c)
            for md in mds:
                joint, lhs = fold(target, md.lhs_pattern, rhs, upto=upto)
                assert md.support == Fraction(joint, dist.pair_total) >= eta_s
                assert md.confidence == Fraction(joint, lhs) >= eta_c
            accepted, evaluated, records = simulate_eps(target, X, rhs, eta_s, eta_c, upto=upto)
            assert [md.lhs_pattern for md in mds] == [
                strip_zero_levels(ThresholdPattern.over(X, c)) for c in accepted
            ]
            assert c.candidates_total == total
            if name in ("eps", "aps"):
                assert (c.candidates_evaluated, c.records_evaluated) == (evaluated, records)
                assert c.candidates_pruned_support == total - evaluated
                assert c.candidates_pruned_confidence == 0
            elif name in ("ea", "ap"):
                assert c.candidates_evaluated == total
                assert c.records_evaluated == total * upto
                assert c.candidates_pruned_support == c.candidates_pruned_confidence == 0
        # epsc prunes iff a candidate misses support, so it evaluates eps's set
        assert counters["epsc"].candidates_evaluated == counters["eps"].candidates_evaluated
        assert counters["epsc"].records_evaluated <= counters["eps"].records_evaluated
        if total <= 256:
            _, per_candidate = simulate_epsc(grouped, X, rhs, eta_s, eta_c)
            assert counters["epsc"].records_evaluated == sum(per_candidate.values())

    def test_confidence_products_beyond_int64(self):
        # count * denominator exceeds 2^63 here, so the confidence test must
        # leave int64 to stay exact
        dist = make_distribution({(1, 1): 10**9, (0, 0): 3, (2, 1): 5, (2, 0): 1}, d=3)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [1])
        eta_s, eta_c = Fraction(1, 1000), Fraction(123456789123456789, 10**18 - 3)
        accepted, _, _ = simulate_eps(dist, X, rhs, eta_s, eta_c)
        assert accepted == [(0,), (1,)]
        for engine in (ea, eps):
            mds = engine(dist, fresh_lattice(dist, X), rhs, eta_s, eta_c)
            assert [md.lhs_pattern for md in mds] == [
                strip_zero_levels(ThresholdPattern.over(X, c)) for c in accepted
            ]

    def test_peak_memory_is_two_cubes(self):
        # d^m = 10^6 candidates over a handful of records: the two int64
        # cubes take 16 MB. Only the bottom record satisfies the rhs, so at
        # most one rule comes out and the results take no room.
        d, m = 10, 6
        vectors = {tuple([level] * m) + (int(level == 0),): 10 + level for level in range(d)}
        dist = make_distribution(vectors, d)
        X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
        rhs = ThresholdPattern.over(Y, [1])
        grouped, _ = group_by_rhs(dist, rhs)
        for engine, target in ((ea, dist), (eps, dist), (epsc, grouped)):
            lattice = fresh_lattice(dist, X)
            tracemalloc.start()
            try:
                engine(target, lattice, rhs, Fraction(1, 10), Fraction(1, 2))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            cubes = 2 * 8 * d**m  # two int64 cubes
            # up to four one-byte masks (support, evaluated, confidence and
            # epsc's rejections) and one ~1 MB block of confidence products
            assert cubes <= peak <= cubes + 6 * d**m, engine.__name__


# ---------------------------------------------------------------------------
# api and apsi: the individual stops
# ---------------------------------------------------------------------------


@st.composite
def stop_cases(draw):
    """A small distribution over m lhs columns and one rhs column, a support
    and a confidence minimum, and an epsilon that puts the prefix at k = 1
    (one record carries almost all the mass), at k = n, or anywhere."""
    m = draw(st.integers(1, 4))
    d = draw(st.integers(2, 6))
    vectors = st.tuples(*[st.integers(0, d - 1)] * (m + 1))
    records = draw(st.dictionaries(vectors, st.integers(1, 50), min_size=1, max_size=12))
    prefix = draw(st.sampled_from(["one", "some", "all"]))
    if prefix == "one":
        records[next(iter(records))] = 10**9
    dist = make_distribution(records, d)
    X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
    rhs = ThresholdPattern.over(Y, [draw(st.integers(0, d - 1))])
    eta_s = draw(st.fractions(Fraction(1, 1000), 1, max_denominator=1000))
    eta_c = draw(st.fractions(Fraction(1, 100), Fraction(9, 10), max_denominator=100))
    if prefix == "one":
        epsilon = (1 - eta_c) / 2
    elif prefix == "all":
        epsilon = Fraction(1, 10 * dist.pair_total)
    else:
        share = draw(st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100))
        epsilon = (1 - eta_c) * share
    k = compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k
    assert k == {"one": 1, "some": k, "all": dist.n}[prefix]
    return dist, X, rhs, eta_s, eta_c, epsilon


def assert_stops_match_simulator(dist, X, rhs, eta_s, eta_c, epsilon, stops=None):
    sdist = sort_by_probability_desc(dist)
    for engine, prune in ((api, False), (apsi, True)):
        counters = EvalCounters()
        mds = engine(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=counters)
        rules, expected = simulate_api(
            sdist, X, rhs, eta_s, eta_c, epsilon, prune=prune, stops=stops
        )
        assert result_key(mds) == rules, engine.__name__
        assert counters == expected, engine.__name__


@pytest.fixture(params=["default", "one-cell"])
def dominance_block(request):
    """Run api/apsi with their default stop-pass block (_STOP_BLOCK cell and
    record-byte pairs), or with blocks of a single cell, so every block
    boundary is crossed."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "one-cell":
            patch.setattr(discovery, "_STOP_BLOCK", 1)
        yield request.param


@st.composite
def wide_stop_cases(draw):
    """About 200 records over m lhs columns and one rhs column, so that the
    prefix spans many record bytes and the cells' lower bounds spread over
    it. With ``heavy`` one record carries almost all the mass and satisfies
    the rhs pattern: the cells holding it have a lower bound of 0. The records
    at the top level of the first attribute sit at rhs level 0, which no rhs
    pattern drawn here accepts, so the cells at that level have a joint total
    of 0 and a lower bound of k - 1."""
    m = draw(st.integers(2, 3))
    d = draw(st.integers(5, 6)) if m == 2 else 4
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space = list(itertools.product(range(d), repeat=m + 1))
    records = {}
    for v in rng.sample(space, min(len(space), draw(st.integers(150, 220)))):
        records[v if v[0] < d - 1 else v[:m] + (0,)] = rng.randint(1, 100)
    if draw(st.booleans()):
        heavy = (rng.randrange(d - 1),) + tuple(rng.randrange(d) for _ in range(m - 1))
        records[heavy + (d - 1,)] = 10**6
    dist = make_distribution(records, d)
    X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
    rhs = ThresholdPattern.over(Y, [draw(st.integers(1, d - 1))])
    eta_s = draw(st.fractions(Fraction(1, 10000), Fraction(1, 1000), max_denominator=10000))
    eta_c = draw(st.fractions(Fraction(1, 10), Fraction(1, 2), max_denominator=100))
    share = draw(st.fractions(Fraction(1, 10), Fraction(99, 100), max_denominator=100))
    epsilon = (1 - eta_c) * share
    k = compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k
    assert k > 64
    return dist, X, rhs, eta_s, eta_c, epsilon


_STOP_PASSES = {
    "default": None,
    "one-cell": 1,
    # a few cells per block, reading from several first bytes
    "mid": 96,
}


@pytest.fixture(params=list(_STOP_PASSES))
def stop_pass(request):
    """Run api/apsi with stop-pass blocks of the default size, of one cell or
    of a few cells."""
    with pytest.MonkeyPatch.context() as patch:
        if _STOP_PASSES[request.param] is not None:
            patch.setattr(discovery, "_STOP_BLOCK", _STOP_PASSES[request.param])
        yield request.param


class TestIndividualStops:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(case=stop_cases())
    def test_engines_equal_joint_rule_simulator(self, dominance_block, case):
        assert_stops_match_simulator(*case)

    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(case=wide_stop_cases())
    def test_lower_bounds_across_many_bytes(self, stop_pass, case):
        dist, X, rhs, eta_s, eta_c, epsilon = case
        sdist = sort_by_probability_desc(dist)
        run = discovery._new_run(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, None, epsilon)
        rule = discovery._StopRule(run)
        _, joint = rule.failures(run)
        bounds = rule.lower_bounds(run, joint.reshape(-1))
        simulated = simulate_api_stops(sdist, X, rhs, eta_s, eta_c, epsilon)
        stops, k = simulated
        # no cell stops before its bound: the stop is past the bound's record
        for cell, bound in zip(itertools.product(range(dist.domain.d), repeat=len(X)), bounds):
            assert bound < stops[cell]
        heavy = joint.reshape(-1) >= rule.thresholds[0]
        assert bounds[heavy].tolist() == [0] * int(np.sum(heavy))
        empty = joint.reshape(-1) == 0
        assert bounds[empty].tolist() == [k - 1] * int(np.sum(empty))
        assert_stops_match_simulator(*case, stops=simulated)

    def test_stop_products_beyond_int64(self, dominance_block):
        # count * denominator exceeds 2^63 here, so the stop test must leave
        # int64 to stay exact
        vectors = {(0, 1): 10**9, (1, 1): 6 * 10**8, (2, 1): 3 * 10**8, (2, 0): 2 * 10**8}
        vectors.update({(1, 0): 10**8, (0, 0): 7, (1, 2): 5})
        dist = make_distribution(vectors, d=3)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [1])
        eta_s = Fraction(1, 1000)
        eta_c = Fraction(123456789123456789, 10**18 - 3)
        epsilon = Fraction(10**17 + 1, 3 * 10**17 + 7)
        factor = epsilon * min(1, eta_c / (1 - epsilon - eta_c))
        assert dist.pair_total * max(factor.numerator, factor.denominator) >= 2**63
        k = compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k
        assert 2 < k < dist.n
        assert_stops_match_simulator(dist, X, rhs, eta_s, eta_c, epsilon)

    def test_pair_total_at_the_int64_maximum(self, dominance_block):
        # the early stop thresholds exceed pair_total here; capped at it,
        # they all fit int64
        vectors = {(0, 0): 2**61 - 1, (1, 1): 2**61, (2, 0): 2**61, (2, 1): 2**61}
        dist = make_distribution(vectors, d=3)
        assert dist.pair_total == 2**63 - 1
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [1])
        eta_s, eta_c, epsilon = Fraction(1, 10), Fraction(1, 2), Fraction(1, 4)
        assert compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k > 1
        assert_stops_match_simulator(dist, X, rhs, eta_s, eta_c, epsilon)

    def test_single_record_prefix_reads_one_record(self, dominance_block):
        # with k = 1 the one record's threshold, 0, ends every scan: every
        # evaluated candidate reads it, and apsi's failures are the
        # candidates it misses
        dist = make_distribution({(2, 1, 1): 10**6, (0, 0, 1): 3, (1, 2, 0): 2}, d=3)
        X, Y = dist.attribute_set[:2], dist.attribute_set[2:]
        rhs = ThresholdPattern.over(Y, [1])
        eta_s, eta_c, epsilon = Fraction(1, 10), Fraction(1, 2), Fraction(1, 4)
        sdist = sort_by_probability_desc(dist)
        assert compute_prefix_k(sdist, epsilon, eta_s, eta_c).prefix_k == 1
        c_api, c_apsi = EvalCounters(), EvalCounters()
        api(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_api)
        apsi(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_apsi)
        assert c_api.records_evaluated == c_api.candidates_evaluated == 9
        # the one record, at levels (2, 1), misses the three candidates at
        # level 2 on the second attribute; the lowest, (0, 2), is evaluated
        # and prunes the other two
        assert c_apsi.records_evaluated == c_apsi.candidates_evaluated == 7
        assert_stops_match_simulator(dist, X, rhs, eta_s, eta_c, epsilon)

    @pytest.mark.parametrize("k", range(1, 18))
    def test_every_fill_of_the_last_record_byte(self, dominance_block, k):
        # the stop pass packs the prefix eight records to a byte and pads the
        # last one: k = 1..17 covers every fill of that byte, a prefix of one
        # record, one whole byte (k = 8) and one byte and a record (k = 9)
        rng = random.Random(1300 + k)
        m, d = 2, 4
        vectors = rng.sample(list(itertools.product(range(d), repeat=m + 1)), k)
        dist = make_distribution({v: rng.randint(50, 100) for v in vectors}, d)
        X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
        rhs = ThresholdPattern.over(Y, [1])
        eta_s, eta_c, epsilon = Fraction(1, 1000), Fraction(1, 4), Fraction(1, 2)
        assert compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k == k
        assert_stops_match_simulator(dist, X, rhs, eta_s, eta_c, epsilon)

    def test_one_attribute_over_the_largest_domain(self):
        # m = 1, d = 32,768. The candidates between two neighbouring record
        # levels hold the same records, so simulate_api runs on the domain
        # compressed to the record levels (candidate t becomes the number of
        # record levels below t), and every t takes its class's stop and
        # measures. api's 32,768 cells take two default blocks here.
        d = 32768
        record_levels = [0, 1, 255, 256, 4095, 20000, 32766, 32767]
        rng = random.Random(17)
        counts = rng.sample(range(50, 100), 2 * len(record_levels))
        vectors = {
            (level, rhs_level): counts.pop()
            for level in record_levels
            for rhs_level in (0, 1)
            if rng.random() < 0.8
        }
        dist = make_distribution(vectors, d)
        classes = make_distribution(
            {(record_levels.index(v[0]), v[1]): c for v, c in vectors.items()},
            len(record_levels) + 1,
        )
        eta_s, eta_c, epsilon = Fraction(1, 1000), Fraction(1, 4), Fraction(1, 2)
        sdist, sclasses = sort_by_probability_desc(dist), sort_by_probability_desc(classes)
        X, rhs = dist.attribute_set[:1], ThresholdPattern.over(dist.attribute_set[1:], [1])
        Xc, rhs_c = classes.attribute_set[:1], ThresholdPattern.over(classes.attribute_set[1:], [1])
        stops, k = simulate_api_stops(sclasses, Xc, rhs_c, eta_s, eta_c, epsilon)
        assert k == dist.n > 8
        measures = {}
        for (cls,), stop in stops.items():
            joint, lhs = fold(sclasses, ThresholdPattern.over(Xc, [cls]), rhs_c, upto=stop)
            failed = stop == k and Fraction(joint, dist.pair_total) < eta_s
            measures[cls] = joint, lhs, failed
        # apsi evaluates every candidate up to the first failure
        cls_of = [bisect.bisect_left(record_levels, t) for t in range(d)]
        first_failure = next((t for t in range(d) if measures[cls_of[t]][2]), d - 1)
        for engine, evaluated in ((api, d), (apsi, first_failure + 1)):
            counters = EvalCounters()
            mds = engine(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=counters)
            rules = []
            for t in range(evaluated):
                joint, lhs, _ = measures[cls_of[t]]
                support = Fraction(joint, dist.pair_total)
                if support >= eta_s and Fraction(joint, lhs) >= eta_c:
                    pattern = strip_zero_levels(ThresholdPattern.over(X, [t]))
                    rules.append((pattern, support, Fraction(joint, lhs)))
            assert result_key(mds) == rules, engine.__name__
            assert counters == EvalCounters(
                records_evaluated=sum(stops[(cls_of[t],)] for t in range(evaluated)),
                candidates_evaluated=evaluated,
                candidates_pruned_support=d - evaluated,
                candidates_total=d,
            ), engine.__name__


class TestStopPassMemory:
    """The stop pass builds its bit rows and masses a block of cells at a
    time, so its temporaries are bounded by the block, not by |cells| * k."""

    def _peak(self, algorithm, dist, X, rhs, eta_s, eta_c, epsilon):
        """The traced peak of one scan, up to its rule arrays: the rule
        objects would add about 500 bytes a rule."""
        sdist, lattice = sort_by_probability_desc(dist), fresh_lattice(dist, X)
        tracemalloc.start()
        try:
            discovery._rules(algorithm, sdist, lattice, rhs, eta_s, eta_c, epsilon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_apsi_temporaries_on_a_seeded_grid(self):
        # m = 5, d = 10: 10^5 candidates over k = 2,676 records, of which
        # apsi resolves 9,874 cells; their masses at every record byte at
        # once would take 9,874 * 335 * 16 bytes, about 53 MB
        rng = np.random.default_rng(13)
        m, d, n = 5, 10, 3000
        levels = np.minimum(rng.geometric(0.35, (n, m + 1)) - 1, d - 1)
        vectors = {tuple(row): int(c) for row, c in zip(levels.tolist(), rng.integers(50, 100, n))}
        dist = make_distribution(vectors, d)
        X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
        rhs = ThresholdPattern.over(Y, [1])
        eta_s, eta_c, epsilon = Fraction(1, 500), Fraction(1, 4), Fraction(1, 2)
        sdist = sort_by_probability_desc(dist)
        k = compute_prefix_k(sdist, epsilon, eta_s, eta_c).prefix_k
        counters = EvalCounters()
        apsi(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=counters)
        cells = counters.candidates_evaluated
        assert cells * -(-k // 8) > 50 * discovery._STOP_BLOCK
        peak = self._peak(Algorithm.APSI, dist, X, rhs, eta_s, eta_c, epsilon)
        # the failures' int64 cube and its masks, about 130 bytes a record
        # (the sorted copy, the thresholds and the half-byte tables), and
        # about 40 bytes per (cell, record byte) pair of one block
        assert peak <= 12 * d**m + 130 * dist.n + 48 * discovery._STOP_BLOCK, peak

    def test_bit_rows_per_block_over_the_largest_domain(self):
        # m = 1, d = 32,768 over k = 1,024 records: the rows of every level
        # at once would take a 32 MB comparison; a block's rows take a few
        # hundred kB
        rng = random.Random(19)
        d, n = 32768, 1024
        vectors = {(rng.randrange(d), y): rng.randint(50, 100) for y in range(n)}
        dist = make_distribution(vectors, d)
        X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
        rhs = ThresholdPattern.over(Y, [0])
        eta_s, eta_c, epsilon = Fraction(1, 1000), Fraction(1, 4), Fraction(1, 2)
        assert compute_prefix_k(sort_by_probability_desc(dist), epsilon, eta_s, eta_c).prefix_k == n
        peak = self._peak(Algorithm.API, dist, X, rhs, eta_s, eta_c, epsilon)
        assert peak <= 64 * d + 130 * n + 48 * discovery._STOP_BLOCK, peak

    def test_api_with_lower_bounds_over_the_whole_prefix(self):
        # m = 6, d = 10: 10^6 cells over k = 2,421 records whose counts fall
        # as 1 / rank, so the joint totals, and the lower bounds of the
        # 41,666 cells that read records, spread from the first record byte
        # to the last. The cell numbers and the joint and lhs cubes take 24
        # bytes a cell; only the cells that read are ordered, so the stops'
        # arrays never grow with the grid.
        rng = np.random.default_rng(29)
        m, d, n = 6, 10, 3000
        levels = np.minimum(rng.geometric(0.15, (n, m + 1)) - 1, d - 1)
        rows = dict.fromkeys(map(tuple, levels.tolist()))
        dist = make_distribution({row: 10**6 // (rank + 1) + 1 for rank, row in enumerate(rows)}, d)
        X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
        rhs = ThresholdPattern.over(Y, [3])
        eta_s, eta_c, epsilon = Fraction(1, 20), Fraction(1, 4), Fraction(1, 2)
        sdist = sort_by_probability_desc(dist)
        run = discovery._new_run(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, None, epsilon)
        rule = discovery._StopRule(run)
        bounds = rule.lower_bounds(run, rule.failures(run)[1].reshape(-1))
        reading = bounds[bounds < run.k - 1]
        # 41,666 cells read records; their bounds fall in 253 of the 303 bytes
        assert 0.02 * d**m < reading.size < 0.1 * d**m
        assert np.unique(reading // 8).size > 0.8 * (rule.thresholds.size // 8)
        peak = self._peak(Algorithm.API, dist, X, rhs, eta_s, eta_c, epsilon)
        assert peak <= 32 * d**m + 130 * dist.n + 48 * discovery._STOP_BLOCK, peak


# ---------------------------------------------------------------------------
# The epsilon bound of every prefix engine
# ---------------------------------------------------------------------------


@st.composite
def bound_cases(draw):
    """A random distribution (m 1..3, d 2..5), rhs pattern, and thresholds
    with epsilon < 1 - eta_c. Counts mix heavy and light records, so a
    prefix often holds much of a candidate's lhs mass but little of its
    joint mass."""
    m = draw(st.integers(1, 3))
    d = draw(st.integers(2, 5))
    vectors = st.tuples(*[st.integers(0, d - 1)] * (m + 1))
    counts = st.one_of(st.integers(1, 5), st.integers(20, 400))
    records = draw(st.dictionaries(vectors, counts, min_size=1, max_size=20))
    dist = make_distribution(records, d)
    X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
    rhs = ThresholdPattern.over(Y, [draw(st.integers(0, d - 1))])
    eta_s = draw(st.fractions(Fraction(1, 100), Fraction(1, 2), max_denominator=100))
    eta_c = draw(st.fractions(Fraction(1, 100), Fraction(9, 10), max_denominator=100))
    share = draw(st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100))
    return dist, X, rhs, eta_s, eta_c, (1 - eta_c) * share


def lhs_stop_counterexample():
    """A case where a stop on the lhs mass breaks the bound: it stops the
    empty lhs after two of k = 4 records, having read 1383 of lhs mass but
    only 896 of its 984 joint mass, a support error of 88/984 > epsilon =
    11/125. The stop on the joint mass reads a third record."""
    dist = make_distribution({(0, 4): 896, (0, 2): 487, (1, 3): 71, (2, 3): 15, (3, 3): 2}, 5)
    X, Y = dist.attribute_set[:1], dist.attribute_set[1:]
    rhs = ThresholdPattern.over(Y, [3])
    return dist, X, rhs, Fraction(3, 50), Fraction(14, 25), Fraction(11, 125)


class TestEpsilonBound:
    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases())
    @example(case=lhs_stop_counterexample())
    def test_every_prefix_engine_within_epsilon_of_ea(self, case):
        dist, X, rhs, eta_s, eta_c, epsilon = case
        sdist = sort_by_probability_desc(dist)
        tiny = Fraction(1, 10 * dist.pair_total)
        exact = {m.lhs_pattern: m for m in ea(dist, fresh_lattice(dist, X), rhs, tiny, tiny)}
        for algo in (ap, api, aps, apsi):
            for md in algo(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon):
                exact_md = exact[md.lhs_pattern]
                c_n, c_k = exact_md.confidence, md.confidence
                s_n, s_k = exact_md.support, md.support
                assert abs(c_n - c_k) <= epsilon * c_n, algo.__name__
                assert s_n - s_k <= epsilon * s_n, algo.__name__


# ---------------------------------------------------------------------------
# Request dispatch
# ---------------------------------------------------------------------------


class TestRunRequest:
    def test_prepares_grouping_and_sorting(self):
        rng = random.Random(11)
        dist, X, Y = random_distribution(rng, m_x=2, d=4)
        rhs = ThresholdPattern.over(Y, [1])
        for algo in Algorithm:
            request = DiscoveryRequest.build(
                X, Y, rhs, "0.05", "0.3", algo,
                epsilon="0.5" if algo.is_approximate else None,
            )
            out = run_request(dist, request)
            assert isinstance(out, list)

    def test_exact_algorithms_agree_via_dispatch(self):
        rng = random.Random(12)
        dist, X, Y = random_distribution(rng, m_x=2, d=4)
        rhs = ThresholdPattern.over(Y, [2])
        results = []
        for algo in (Algorithm.EA, Algorithm.EPS, Algorithm.EPSC):
            request = DiscoveryRequest.build(X, Y, rhs, "0.02", "0.4", algo)
            results.append(result_key(run_request(dist, request)))
        assert results[0] == results[1] == results[2]

    def test_replaced_float_thresholds_are_exact(self):
        # a request changed by dataclasses.replace holds the same exact
        # rationals as one built from the same floats
        rng = random.Random(13)
        dist, X, Y = random_distribution(rng, m_x=2, d=4)
        rhs = ThresholdPattern.over(Y, [1])
        for algo in Algorithm:
            epsilon = 0.5 if algo.is_approximate else None
            built = DiscoveryRequest.build(X, Y, rhs, 0.05, 0.3, algo, epsilon=epsilon)
            start = DiscoveryRequest.build(X, Y, rhs, "1/2", "1/2", algo,
                                           epsilon="1/4" if algo.is_approximate else None)
            replaced = dataclasses.replace(
                start, min_support=0.05, min_confidence=0.3, epsilon=epsilon
            )
            assert replaced == built
            assert type(replaced.min_support) is Fraction
            assert result_key(run_request(dist, replaced)) == result_key(run_request(dist, built))
        with pytest.raises(ValidationError, match="min_support must be finite"):
            dataclasses.replace(built, min_support=float("nan"))

    def test_rhs_attribute_outside_distribution_raises(self):
        # a zero threshold still names an attribute the records must carry
        rng = random.Random(14)
        dist, X, _ = random_distribution(rng, m_x=2, d=4)
        stranger = AttributeId(9, "Z")
        rhs = ThresholdPattern.of({stranger: 0})
        with pytest.raises(SchemaMismatchError):
            ea(dist, fresh_lattice(dist, X), rhs, "0.1", "0.5")
        for algo in Algorithm:
            request = DiscoveryRequest.build(
                X, (stranger,), rhs, "0.1", "0.5", algo,
                epsilon="0.2" if algo.is_approximate else None,
            )
            with pytest.raises(SchemaMismatchError):
                run_request(dist, request)

    def test_engine_rules_equal_publicly_built_rules(self):
        # the engines build their rules without the public constructors'
        # checks; the rules must still equal, and hash as, checked ones
        rng = random.Random(15)
        dist, X, Y = random_distribution(rng, m_x=3, d=4)
        rhs = ThresholdPattern.over(Y, [1])
        for algo in Algorithm:
            request = DiscoveryRequest.build(
                X, Y, rhs, "0.02", "0.2", algo, epsilon="0.5" if algo.is_approximate else None
            )
            mds = run_request(dist, request)
            assert mds, algo
            for md in mds:
                # the public constructor sorts and checks the entries again
                pattern = ThresholdPattern(tuple(reversed(md.lhs_pattern.entries)))
                assert pattern == md.lhs_pattern
                assert hash(pattern) == hash(md.lhs_pattern)
                # a numpy integer would compare and hash equal, so check the
                # engine-built entries themselves
                assert all(
                    type(level) is int and level > 0 for _, level in md.lhs_pattern.entries
                )
                public = DiscoveredMd(
                    pattern, md.rhs_pattern, md.support, md.confidence, md.mode, md.counters
                )
                assert public == md
                assert hash(public) == hash(md)
        md = mds[0]
        with pytest.raises(ValidationError):
            DiscoveredMd(
                ThresholdPattern.over(X[:1], [0]),
                md.rhs_pattern, md.support, md.confidence, md.mode, md.counters,
            )

    def test_budget_violation_propagates(self):
        rng = random.Random(13)
        dist, X, Y = random_distribution(rng, m_x=3, d=4)
        rhs = ThresholdPattern.over(Y, [1])
        request = DiscoveryRequest.build(X, Y, rhs, "0.05", "0.3", Algorithm.EA)
        from mdd import CandidateBudgetError

        with pytest.raises(CandidateBudgetError):
            run_request(dist, request, candidate_budget=10)


class TestMdsPausesTheCollector:
    """``_Rules.mds()`` builds its objects with the cyclic collector off and
    leaves the collector as the caller had it."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.fixture
    def rules(self):
        dist, X, Y = random_distribution(random.Random(16), m_x=2, d=4)
        request = DiscoveryRequest.build(
            X, Y, ThresholdPattern.over(Y, [1]), "0.02", "0.2", Algorithm.EPS
        )
        rules = discovery._request_rules(dist, request)
        assert len(rules.cells) > 1
        return rules

    def spy_on_rules(self, monkeypatch, fail_at=None):
        """Record the collector's state at each rule built; raise at the
        ``fail_at``-th rule."""
        seen = []
        trusted = DiscoveredMd._trusted

        def spy(*args):
            seen.append(gc.isenabled())
            if len(seen) == fail_at:
                raise RuntimeError("rule construction failed")
            return trusted(*args)

        monkeypatch.setattr(DiscoveredMd, "_trusted", staticmethod(spy))
        return seen

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_off_inside_and_restored_after(self, rules, monkeypatch, enabled):
        (gc.enable if enabled else gc.disable)()
        seen = self.spy_on_rules(monkeypatch)
        mds = rules.mds()
        assert len(mds) == len(seen) == len(rules.cells)
        assert not any(seen)
        assert gc.isenabled() is enabled

    def test_collector_restored_when_a_rule_raises(self, rules, monkeypatch):
        gc.enable()
        seen = self.spy_on_rules(monkeypatch, fail_at=2)
        with pytest.raises(RuntimeError, match="rule construction failed"):
            rules.mds()
        assert seen == [False, False]
        assert gc.isenabled()


# ---------------------------------------------------------------------------
# Building the rule objects in bulk
# ---------------------------------------------------------------------------


@st.composite
def rule_arrays(draw):
    """A _Rules record as an engine could leave it, and each rule's level
    tuple: lattice attributes in any index order, zero levels, d from 2 to
    32,768, counts up to 2^63 - 1, and sometimes no rules at all."""
    m = draw(st.integers(1, 4))
    d = draw(st.sampled_from([2, 3, 10, 32768]) | st.integers(2, 32768))
    indices = draw(st.lists(st.integers(0, 40), min_size=m, max_size=m, unique=True))
    attrs = tuple(AttributeId(i, f"A{i}") for i in indices)
    level = st.just(0) | st.integers(0, d - 1)
    tuples = sorted(draw(st.lists(st.tuples(*[level] * m), unique=True, max_size=30)))
    pair_total = draw(st.sampled_from([1, 6, 2**62, 2**63 - 1]) | st.integers(1, 2**63 - 1))
    joint, lhs = [], []
    for _ in tuples:
        lhs.append(draw(st.integers(1, pair_total)))
        joint.append(draw(st.integers(1, lhs[-1])))
    cells = (
        np.ravel_multi_index(np.array(tuples).T, (d,) * m) if tuples else np.empty(0, np.int64)
    )
    mode = draw(
        st.sampled_from([EvaluationMode.exact(), EvaluationMode.approximate(3, Fraction(1, 9))])
    )
    rules = discovery._Rules(
        attrs,
        LevelDomain(d),
        cells,
        np.array(joint, dtype=np.int64),
        np.array(lhs, dtype=np.int64),
        ThresholdPattern.over((AttributeId(99, "R"),), [1]),
        pair_total,
        mode,
        EvalCounters(records_evaluated=len(tuples)),
    )
    return rules, tuples


class TestBulkRuleBuild:
    """_Rules.mds() builds its rules from shared entries and measures reduced
    by one np.gcd; they must equal the rules the public constructors build."""

    @settings(max_examples=200, deadline=None)
    @given(case=rule_arrays())
    def test_equals_publicly_built_rules(self, case):
        rules, tuples = case
        got = rules.mds()
        assert len(got) == len(tuples)
        joint, lhs = rules.joint.tolist(), rules.lhs.tolist()
        for md, levels, j, l in zip(got, tuples, joint, lhs):
            want = DiscoveredMd(
                strip_zero_levels(ThresholdPattern.over(rules.attributes, levels)),
                rules.rhs_pattern,
                Fraction(j, rules.pair_total),
                Fraction(j, l),
                rules.mode,
                rules.counters,
            )
            assert md == want and hash(md) == hash(want)
            assert hash(md.lhs_pattern) == hash(want.lhs_pattern)
            assert all(type(level) is int for _, level in md.lhs_pattern.entries)
            for measure, expected in ((md.support, want.support), (md.confidence, want.confidence)):
                assert type(measure) is Fraction
                assert measure.denominator > 0
                assert math.gcd(measure.numerator, measure.denominator) == 1
                assert hash(measure) == hash(expected)
                assert str(measure) == str(expected)

    def test_fraction_slots_are_the_two_terms(self):
        # _fraction writes these slots; a Python that changes them must fail
        # here rather than let the library return broken measures
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    @settings(max_examples=200, deadline=None)
    @given(
        num=st.integers(1, 2**80),
        den=st.integers(1, 2**80),
        other=st.fractions() | st.integers(-(2**70), 2**70),
    )
    def test_built_fractions_behave_as_constructed_ones(self, num, den, other):
        g = math.gcd(num, den)
        built, public = discovery._fraction(num // g, den // g), Fraction(num, den)
        assert type(built) is Fraction
        assert (built.numerator, built.denominator) == (public.numerator, public.denominator)
        assert built == public and hash(built) == hash(public)
        assert built + other == public + other
        assert (built < other, built > other) == (public < other, public > other)
        assert float(built) == float(public) and str(built) == str(public)
        restored = pickle.loads(pickle.dumps(built))
        assert type(restored) is Fraction and restored == public

    def test_kept_memory_per_rule(self):
        # the rules share their (attribute, level) entries, and no rule gets a
        # __dict__ of its own: about 500 bytes a rule here, against about 700
        # with one entry tuple per rule and level
        rng = random.Random(5)
        m, d = 5, 5
        vectors = {
            tuple(min(rng.randrange(d), rng.randrange(d)) for _ in range(m + 1)): rng.randint(1, 10**4)
            for _ in range(3000)
        }
        dist = make_distribution(vectors, d)
        X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
        request = DiscoveryRequest.build(
            X, Y, ThresholdPattern.over(Y, [1]), Fraction(1, 10**6), Fraction(1, 100), Algorithm.EPS
        )
        rules = discovery._request_rules(dist, request)
        assert len(rules.cells) > 2000
        tracemalloc.start()
        try:
            mds = rules.mds()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(mds) == len(rules.cells)
        assert kept / len(mds) < 560


# ---------------------------------------------------------------------------
# Plain inputs: every engine orders the records itself
# ---------------------------------------------------------------------------


@st.composite
def permuted_cases(draw):
    """A bound case and the same distribution with its records permuted."""
    dist, X, rhs, eta_s, eta_c, epsilon = draw(bound_cases())
    order = draw(st.permutations(range(dist.n)))
    return dist, X, rhs, eta_s, eta_c, epsilon, dist.replace_order(np.array(order))


def run_engine(algo, dist, X, rhs, eta_s, eta_c, epsilon):
    """One engine's rules with their exact measures, and its counters."""
    counters = EvalCounters()
    args = [dist, fresh_lattice(dist, X), rhs, eta_s, eta_c]
    if algo.is_approximate:
        args.append(epsilon)
    mds = getattr(discovery, algo.value)(*args, counters=counters)
    return result_key(mds), counters


class TestPlainInputs:
    @settings(max_examples=60, deadline=None)
    @given(case=permuted_cases())
    def test_engines_equal_dispatch_and_prepared_inputs(self, case):
        dist, X, rhs, eta_s, eta_c, epsilon, permuted = case
        Y = dist.attribute_set[len(X):]
        for algo in Algorithm:
            approximate = algo.is_approximate
            got = run_engine(algo, dist, X, rhs, eta_s, eta_c, epsilon)
            request = DiscoveryRequest.build(
                X, Y, rhs, eta_s, eta_c, algo, epsilon=epsilon if approximate else None
            )
            counters = EvalCounters()
            assert (result_key(run_request(dist, request, counters=counters)), counters) == got
            if algo == Algorithm.EPSC:
                prepared, _ = group_by_rhs(dist, rhs)
            elif approximate:
                prepared = sort_by_probability_desc(dist)
            else:
                prepared = dist
            assert run_engine(algo, prepared, X, rhs, eta_s, eta_c, epsilon) == got, algo
            # epsc's confidence stop depends on the record order within each
            # group; every other engine reads a set of records
            if algo != Algorithm.EPSC:
                assert run_engine(algo, permuted, X, rhs, eta_s, eta_c, epsilon) == got, algo


@st.composite
def tied_cases(draw):
    """A distribution whose counts come from {1, 2, 3}, so that many records
    share the k-th largest count, thresholds and epsilon as in bound_cases,
    and a permutation of its records."""
    m = draw(st.integers(1, 3))
    d = draw(st.integers(2, 5))
    vectors = st.tuples(*[st.integers(0, d - 1)] * (m + 1))
    records = draw(st.dictionaries(vectors, st.integers(1, 3), min_size=1, max_size=40))
    dist = make_distribution(records, d)
    X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
    rhs = ThresholdPattern.over(Y, [draw(st.integers(0, d - 1))])
    eta_s = draw(st.fractions(Fraction(1, 100), Fraction(1, 2), max_denominator=100))
    eta_c = draw(st.fractions(Fraction(1, 100), Fraction(9, 10), max_denominator=100))
    share = draw(st.fractions(Fraction(1, 100), Fraction(99, 100), max_denominator=100))
    order = draw(st.permutations(range(dist.n)))
    return dist, X, rhs, eta_s, eta_c, (1 - eta_c) * share, np.array(order)


class TestProbabilityPrefix:
    @settings(max_examples=100, deadline=None)
    @given(case=tied_cases())
    def test_held_prefix_and_engines_under_ties(self, case):
        # an approximate run holds only the first k records of the
        # probability order, whatever order its input comes in
        dist, X, rhs, eta_s, eta_c, epsilon, order = case
        sdist = sort_by_probability_desc(dist)
        k = compute_prefix_k(sdist, epsilon, eta_s, eta_c).prefix_k
        inputs = {
            "sorted": sdist,
            "reversed": sdist.replace_order(np.arange(dist.n)[::-1]),
            "shuffled": dist.replace_order(order),
        }
        results = {}
        for name, source in inputs.items():
            lattice = fresh_lattice(dist, X)
            run = discovery._new_run(source, lattice, rhs, eta_s, eta_c, None, epsilon)
            assert run.k == run.dist.n == k, name
            assert np.array_equal(run.dist.levels, sdist.levels[:k]), name
            assert np.array_equal(run.dist.counts, sdist.counts[:k]), name
            for engine in (ap, aps, api, apsi):
                counters = EvalCounters()
                mds = engine(source, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon,
                             counters=counters)
                got = [(md.lhs_pattern, md.support, md.confidence, md.mode) for md in mds], counters
                assert results.setdefault(engine.__name__, got) == got, (engine.__name__, name)
