"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else: exact-set equality for
result sets, 1e-12 for measure agreement, 1e-9 for probability normalization,
byte equality for cache round-trips, and plain inequalities for counters.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mdd
from mdd import (
    AttributeId,
    CandidateLattice,
    EvalCounters,
    LevelDomain,
    MetricKind,
    StatDistribution,
    ThresholdPattern,
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
    load_distribution,
    oracle_discover,
    oracle_measures,
    save_distribution,
    sort_by_probability_desc,
)

from conftest import CONTACT_COLUMNS, CONTACT_ROWS, fold, random_distribution, random_relation

DATA = Path(__file__).parent / "data"
CONTACTS_CSV = str(DATA / "contacts.csv")
SRC = str(Path(__file__).resolve().parents[1] / "src")

COSINE_WORD = MetricKind.cosine_word_tokens()


def _passed(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def fresh(dist, attrs):
    return CandidateLattice(tuple(attrs), dist.domain)


def result_key(mds):
    return [(m.lhs_pattern, m.support, m.confidence) for m in mds]


# ---------------------------------------------------------------------------
# 1. Oracle equivalence of the exact path
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence_exact_path():
    started = time.monotonic()
    rng = random.Random(0xACCE01)
    trials = 100
    for _ in range(trials):
        n_rows = rng.randint(8, 60)
        m_x = rng.randint(1, 3)
        rel = random_relation(rng, n_rows=n_rows, n_attrs=m_x + 1)
        lhs = [rel.attribute(f"A{i}") for i in range(m_x)]
        rhs = [rel.attribute(f"A{m_x}")]
        domain = LevelDomain(rng.choice([2, 3, 4]))
        rhs_pattern = ThresholdPattern.over(rhs, [rng.randint(0, domain.d - 1)])
        eta_s = Fraction(rng.randint(1, 10), 100)
        eta_c = Fraction(rng.randint(1, 9), 10)

        dist = build_distribution(rel, tuple(lhs + rhs), COSINE_WORD, domain)
        found = ea(dist, fresh(dist, lhs), rhs_pattern, eta_s, eta_c)
        truth = oracle_discover(rel, lhs, rhs, rhs_pattern, eta_s, eta_c, COSINE_WORD, domain)

        assert [m.lhs_pattern for m in found] == truth
        for md in found:
            sup, conf = oracle_measures(
                rel, lhs, rhs, md.lhs_pattern, rhs_pattern, COSINE_WORD, domain
            )
            assert abs(float(sup) - float(md.support)) <= 1e-12
            assert abs(float(conf) - float(md.confidence)) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"criterion 1 must finish under 2 minutes, took {elapsed:.1f}s"
    _passed(1, f"EA equals the oracle on {trials} random relations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Lossless pruning
# ---------------------------------------------------------------------------


def test_criterion_02_lossless_pruning():
    rng = random.Random(0xACCE02)
    trials = 200
    for _ in range(trials):
        m_x = rng.randint(1, 3)
        d = rng.choice([2, 3, 4, 5])
        dist, X, Y = random_distribution(
            rng, m_x=m_x, m_y=rng.choice([1, 2]), d=d,
            max_samples=2000, max_count=30,
        )
        assert dist.n <= 2000
        rhs = ThresholdPattern.over(Y, [rng.randint(0, d - 1) for _ in Y])
        eta_s = Fraction(rng.randint(1, 25), 100)
        eta_c = Fraction(rng.randint(1, 7), 10)  # keeps an admissible epsilon below
        epsilon = rng.choice(
            [e for e in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)) if e < 1 - eta_c]
        )

        base = ea(dist, fresh(dist, X), rhs, eta_s, eta_c)
        pruned = eps(dist, fresh(dist, X), rhs, eta_s, eta_c)
        grouped, _ = group_by_rhs(dist, rhs)
        combined = epsc(grouped, fresh(dist, X), rhs, eta_s, eta_c)
        assert result_key(base) == result_key(pruned) == result_key(combined)

        sdist = sort_by_probability_desc(dist)
        plain_ap = ap(sdist, fresh(dist, X), rhs, eta_s, eta_c, epsilon)
        with_aps = aps(sdist, fresh(dist, X), rhs, eta_s, eta_c, epsilon)
        plain_api = api(sdist, fresh(dist, X), rhs, eta_s, eta_c, epsilon)
        with_apsi = apsi(sdist, fresh(dist, X), rhs, eta_s, eta_c, epsilon)
        assert result_key(plain_ap) == result_key(with_aps)
        assert result_key(plain_api) == result_key(with_apsi)
    _passed(2, f"EPS/EPSC match EA and APS/APSI match AP/API on {trials} distributions")


# ---------------------------------------------------------------------------
# 3. Support is monotone nonincreasing up the lattice
# ---------------------------------------------------------------------------


def _exact_support(dist, x_attrs, cand, rhs_pattern) -> Fraction:
    joint, _ = fold(dist, ThresholdPattern.over(x_attrs, cand), rhs_pattern)
    return Fraction(joint, dist.pair_total)


def test_criterion_03_support_monotone_under_dominance():
    rng = random.Random(0xACCE03)
    checked_pairs = 0
    for _ in range(50):
        m_x = rng.randint(1, 3)
        d = rng.choice([2, 3, 4])
        dist, X, Y = random_distribution(rng, m_x=m_x, m_y=1, d=d, max_samples=250)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, d - 1)])
        support = {
            cand: _exact_support(dist, X, cand, rhs)
            for cand in itertools.product(range(d), repeat=m_x)
        }
        for c1, c2 in itertools.combinations(support, 2):
            lower, higher = None, None
            if all(a <= b for a, b in zip(c1, c2)):
                lower, higher = c1, c2
            elif all(b <= a for a, b in zip(c1, c2)):
                lower, higher = c2, c1
            if lower is not None:
                checked_pairs += 1
                assert support[lower] >= support[higher], (lower, higher)
    _passed(3, f"support never increases along {checked_pairs} dominance-comparable pairs")


# ---------------------------------------------------------------------------
# 4. Running confidence is nonincreasing over a grouped distribution
# ---------------------------------------------------------------------------


def test_criterion_04_running_confidence_nonincreasing():
    rng = random.Random(0xACCE04)
    sequences = 0
    for _ in range(50):
        d = rng.choice([3, 4, 5])
        dist, X, Y = random_distribution(rng, m_x=rng.randint(1, 3), m_y=1, d=d)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, d - 1)])
        grouped, pivot = group_by_rhs(dist, rhs)
        counts = grouped.counts.astype(np.int64)
        rhs_mask = np.zeros(grouped.n, dtype=bool)
        rhs_mask[:pivot] = True
        for _ in range(100):
            cand = tuple(rng.randint(0, d - 1) for _ in X)
            mask = np.ones(grouped.n, dtype=bool)
            for attr, level in zip(X, cand):
                if level:
                    mask &= grouped.levels[:, grouped.column_index(attr)] >= level
            cum_lhs = np.cumsum(np.where(mask, counts, 0))
            cum_joint = np.cumsum(np.where(mask & rhs_mask, counts, 0))
            defined = cum_lhs > 0
            lhs_d = cum_lhs[defined]
            joint_d = cum_joint[defined]
            # conf_i >= conf_{i+1} via exact integer cross-multiplication
            assert np.all(joint_d[:-1] * lhs_d[1:] >= joint_d[1:] * lhs_d[:-1])
            sequences += 1
    _passed(4, f"running confidence nonincreasing on {sequences} grouped candidate scans")


# ---------------------------------------------------------------------------
# 5. Relative error bounds of the approximations
# ---------------------------------------------------------------------------


def test_criterion_05_approximation_error_bounds():
    rng = random.Random(0xACCE05)
    eta_c = Fraction(3, 20)  # 0.15, leaving every tested epsilon admissible
    epsilons = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    checked = 0
    for _ in range(100):
        d = rng.choice([3, 4, 5])
        dist, X, Y = random_distribution(
            rng, m_x=rng.randint(1, 2), m_y=1, d=d, max_count=80
        )
        sdist = sort_by_probability_desc(dist)
        rhs = ThresholdPattern.over(Y, [rng.randint(0, d - 1)])
        eta_s = Fraction(rng.randint(1, 10), 100)
        for epsilon in epsilons:
            for algo in (ap, api, aps, apsi):
                returned = algo(sdist, fresh(dist, X), rhs, eta_s, eta_c, epsilon)
                for md in returned:
                    joint, lhs = fold(dist, md.lhs_pattern, rhs)
                    assert joint > 0
                    s_n = Fraction(joint, dist.pair_total)
                    c_n = Fraction(joint, lhs)
                    assert abs(c_n - md.confidence) <= epsilon * c_n
                    assert s_n - md.support <= epsilon * s_n
                    checked += 1
    assert checked > 0
    _passed(5, f"error bounds hold for all {checked} returned approximate patterns")


# ---------------------------------------------------------------------------
# 6. Minimality of the prefix cutoff
# ---------------------------------------------------------------------------


def test_criterion_06_prefix_cutoff_minimality():
    rng = random.Random(0xACCE06)
    for _ in range(100):
        dist, _, _ = random_distribution(
            rng, m_x=rng.randint(1, 2), m_y=1, d=rng.choice([3, 4, 5]), max_count=50
        )
        sdist = sort_by_probability_desc(dist)
        eta_s = Fraction(rng.randint(1, 15), 100)
        eta_c = Fraction(rng.randint(1, 6), 10)
        epsilon = rng.choice(
            [e for e in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)) if e < 1 - eta_c]
        )
        got = compute_prefix_k(sdist, epsilon, eta_s, eta_c)
        counts = [int(c) for c in sdist.counts]
        pt = sdist.pair_total
        feasible = [
            k for k in range(1, sdist.n + 1)
            if Fraction(sum(counts[k:]), pt) <= got.bound
        ]
        assert got.prefix_k == min(feasible)
    _passed(6, "prefix cutoff is the minimal feasible length on 100 sorted distributions")


# ---------------------------------------------------------------------------
# 7/8. Counter-based pruning effectiveness on a skewed synthetic distribution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def skewed_distribution():
    """Full 10^5 level-vector grid over 3 lhs + 2 rhs attributes with mass
    assigned by a Zipf law over the (level sum, lex) rank, so nearly all pair
    mass sits at low similarity, the shape pairwise comparisons of mostly
    unrelated tuples produce."""
    d, m_x, m_y = 10, 3, 2
    m = m_x + m_y
    grid = np.indices((d,) * m).reshape(m, -1).T.astype(np.int16)
    n = grid.shape[0]
    sums = grid.sum(axis=1)
    order = np.lexsort(tuple(grid[:, c] for c in range(m - 1, -1, -1)) + (sums,))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    counts = np.maximum(1, 2_000_000 // (ranks + 1) ** np.float64(1.5)).astype(np.int64)
    attrs = tuple(
        AttributeId(i, f"X{i}") if i < m_x else AttributeId(i, f"Y{i - m_x}")
        for i in range(m)
    )
    dist = StatDistribution(
        attrs,
        LevelDomain(d),
        grid,
        counts,
        int(counts.sum()),
        "synthetic-zipf-grid",
        metric_specs=("synthetic",) * m,
    )
    return dist, attrs[:m_x], attrs[m_x:]


def test_criterion_07_pruning_effectiveness_counters(skewed_distribution):
    dist, X, Y = skewed_distribution
    assert dist.n == 100_000
    rhs = ThresholdPattern.over(Y, [1, 0])
    eta_s, eta_c, epsilon = Fraction(1, 25), Fraction(3, 10), Fraction(1, 2)

    c_ea, c_eps, c_epsc, c_apsi = (EvalCounters() for _ in range(4))
    r_ea = ea(dist, fresh(dist, X), rhs, eta_s, eta_c, counters=c_ea)
    r_eps = eps(dist, fresh(dist, X), rhs, eta_s, eta_c, counters=c_eps)
    grouped, _ = group_by_rhs(dist, rhs)
    r_epsc = epsc(grouped, fresh(dist, X), rhs, eta_s, eta_c, counters=c_epsc)
    sdist = sort_by_probability_desc(dist)
    apsi(sdist, fresh(dist, X), rhs, eta_s, eta_c, epsilon, counters=c_apsi)

    assert c_ea.records_evaluated == dist.n * 10**3
    assert result_key(r_ea) == result_key(r_eps) == result_key(r_epsc)
    assert c_eps.records_evaluated <= c_ea.records_evaluated // 2
    assert c_epsc.records_evaluated <= c_eps.records_evaluated
    assert c_apsi.records_evaluated <= c_eps.records_evaluated
    _passed(
        7,
        "EPS/EA record evaluations "
        f"{c_eps.records_evaluated}/{c_ea.records_evaluated} "
        f"({c_eps.records_evaluated / c_ea.records_evaluated:.3f}), "
        f"EPSC {c_epsc.records_evaluated}, APSI {c_apsi.records_evaluated}",
    )


def test_criterion_08_support_minimum_sensitivity(skewed_distribution):
    dist, X, Y = skewed_distribution
    rhs = ThresholdPattern.over(Y, [1, 0])
    strict, loose = EvalCounters(), EvalCounters()
    eps(dist, fresh(dist, X), rhs, Fraction(1, 25), Fraction(3, 10), counters=strict)
    eps(dist, fresh(dist, X), rhs, Fraction(1, 100), Fraction(3, 10), counters=loose)
    assert strict.records_evaluated <= loose.records_evaluated
    _passed(
        8,
        f"EPS work at min_support 0.04 ({strict.records_evaluated}) <= "
        f"at 0.01 ({loose.records_evaluated})",
    )


# ---------------------------------------------------------------------------
# 9. Distribution correctness on the contact fixture
# ---------------------------------------------------------------------------


def test_criterion_09_distribution_correctness(tmp_path):
    rel = mdd.Relation.from_rows(CONTACT_COLUMNS, CONTACT_ROWS)
    attrs = tuple(rel.attribute(n) for n in ("Name", "Street", "SIN"))
    dist = build_distribution(rel, attrs, COSINE_WORD, LevelDomain(10))
    assert dist.pair_total == 15
    assert int(dist.counts.sum()) == 15
    assert abs(int(dist.counts.sum()) / dist.pair_total - 1.0) <= 1e-9

    first, second = tmp_path / "c1.dist", tmp_path / "c2.dist"
    save_distribution(dist, first)
    loaded = load_distribution(first)
    assert loaded == dist
    save_distribution(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    _passed(9, "contact fixture: 15 pairs, unit mass, byte-identical cache round-trip")


# ---------------------------------------------------------------------------
# 10. Determinism of the CLI across runs and worker counts
# ---------------------------------------------------------------------------


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mdd", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_cli_determinism():
    fixtures = [
        ["--lhs", "Name,Street", "--rhs", "SIN", "--rhs-thresholds", "1.0",
         "--min-support", "0.05", "--min-confidence", "0.9", "--algorithm", "epsc"],
        ["--lhs", "Street", "--rhs", "City", "--rhs-thresholds", "0.7",
         "--min-support", "0.2", "--min-confidence", "0.5", "--algorithm", "ea"],
        ["--lhs", "Name,Street", "--rhs", "SIN", "--rhs-thresholds", "1.0",
         "--min-support", "0.05", "--min-confidence", "0.8", "--algorithm", "apsi",
         "--epsilon", "0.1"],
    ]
    for fixture in fixtures:
        outputs = set()
        for threads in ("1", "8", "1", "8"):
            out = _run_cli(
                "discover", "--input", CONTACTS_CSV, "--threads", threads, *fixture
            )
            json.loads(out)  # must stay parseable
            outputs.add(out)
        assert len(outputs) == 1, f"nondeterministic output for {fixture}"
    _passed(10, "identical canonical JSON across repeated runs with 1 and 8 workers")
