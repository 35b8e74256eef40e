"""Discovery algorithms: the fold reference, exact scans, pruning
equivalences, and the prefix approximations with their error bounds.

Early-termination behavior (epsc confidence breaks, api individual stops) is
checked against plain record-by-record simulators written here from the
definitions, with exact rational arithmetic, independent of the vectorized
engine paths.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

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
import mdd.lattice as lattice_module
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


def simulate_api(dist, x_attrs, rhs_pattern, eta_s, eta_c, epsilon, *, prune):
    """api's rules and counters (apsi's with ``prune``) from the simulated
    stops: visit the candidates in dominance order, skip the upper set of a
    recorded failure (a candidate that read the whole prefix and missed the
    support minimum), and measure the rest with fold at their stop. Returns
    the rules as (pattern, support, confidence) in lexicographic order."""
    stops, k = simulate_api_stops(dist, x_attrs, rhs_pattern, eta_s, eta_c, epsilon)
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
    def test_requires_grouping_marker(self):
        rng = random.Random(7)
        dist, X, Y = random_distribution(rng, m_x=1)
        with pytest.raises(ContractViolationError):
            epsc(dist, fresh_lattice(dist, X), ThresholdPattern.over(Y, [1]), "0.1", "0.5")

    def test_rejects_marker_for_other_pattern(self):
        rng = random.Random(8)
        dist, X, Y = random_distribution(rng, m_x=1, d=4)
        grouped, _ = group_by_rhs(dist, ThresholdPattern.over(Y, [1]))
        with pytest.raises(ContractViolationError):
            epsc(grouped, fresh_lattice(dist, X), ThresholdPattern.over(Y, [2]), "0.1", "0.5")

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


def assert_stops_match_simulator(dist, X, rhs, eta_s, eta_c, epsilon):
    sdist = sort_by_probability_desc(dist)
    for engine, prune in ((api, False), (apsi, True)):
        counters = EvalCounters()
        mds = engine(sdist, fresh_lattice(dist, X), rhs, eta_s, eta_c, epsilon, counters=counters)
        rules, expected = simulate_api(sdist, X, rhs, eta_s, eta_c, epsilon, prune=prune)
        assert result_key(mds) == rules, engine.__name__
        assert counters == expected, engine.__name__


@pytest.fixture(params=["default", "one-cell"])
def dominance_block(request):
    """Run api/apsi with their default dominance-test block, or with blocks
    of a single cell, so every block boundary is crossed."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "one-cell":
            patch.setattr(discovery, "_DOMINANCE_BLOCK", 1)
        yield request.param


class TestIndividualStops:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(case=stop_cases())
    def test_engines_equal_joint_rule_simulator(self, dominance_block, case):
        assert_stops_match_simulator(*case)

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

    def test_single_record_prefix_reads_one_record(self, dominance_block):
        # with k = 1 no probe runs: every evaluated candidate reads the one
        # record, and apsi's failures are the candidates it misses
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
        md = mds[0]
        with pytest.raises(ValidationError):
            DiscoveredMd(
                ThresholdPattern.over(X[:1], [0]),
                md.rhs_pattern, md.support, md.confidence, md.mode, md.counters,
            )

    def test_no_pruning_mask_behind_the_engines(self, monkeypatch):
        # the lattice run_request makes is kept alive here, so a d^m pruning
        # mask would still be traced to lattice.py after the run
        d, m = 10, 5
        vectors = {tuple([level] * m) + (int(level < 3),): 10 + level for level in range(d)}
        dist = make_distribution(vectors, d)
        X, Y = dist.attribute_set[:m], dist.attribute_set[m:]
        rhs = ThresholdPattern.over(Y, [1])
        made = []

        class KeptLattice(CandidateLattice):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(discovery, "CandidateLattice", KeptLattice)

        def lattice_bytes():
            only = tracemalloc.Filter(True, lattice_module.__file__)
            return sum(s.size for s in tracemalloc.take_snapshot().filter_traces([only]).traces)

        for algo in (Algorithm.EPS, Algorithm.APSI):
            request = DiscoveryRequest.build(
                X, Y, rhs, "1/10", "1/2", algo, epsilon="1/4" if algo.is_approximate else None
            )
            tracemalloc.start()
            try:
                run_request(dist, request)
                assert lattice_bytes() < d**m, algo
                # once pruning is used, the mask appears
                made[-1].is_pruned((0,) * m)
                assert lattice_bytes() >= d**m, algo
            finally:
                tracemalloc.stop()

    def test_budget_violation_propagates(self):
        rng = random.Random(13)
        dist, X, Y = random_distribution(rng, m_x=3, d=4)
        rhs = ThresholdPattern.over(Y, [1])
        request = DiscoveryRequest.build(X, Y, rhs, "0.05", "0.3", Algorithm.EA)
        from mdd import CandidateBudgetError

        with pytest.raises(CandidateBudgetError):
            run_request(dist, request, candidate_budget=10)
