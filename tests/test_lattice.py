"""Candidate enumeration order, dominance, the pruning rule the engines
compute in closed form over the lattice, and the candidate budget that every
run checks."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mdd import (
    Algorithm,
    AttributeId,
    CandidateBudgetError,
    CandidateLattice,
    DiscoveryRequest,
    LevelDomain,
    ThresholdPattern,
    ValidationError,
    eps,
    run_request,
)
from mdd.cli import main
from mdd.discovery import _evaluated

from conftest import holds, make_distribution

X2 = (AttributeId(0, "A"), AttributeId(1, "B"))
X1 = X2[:1]


def _scan(d, m, fails):
    """The sequential pruned scan: walk the lattice in lexicographic order,
    which visits every candidate after all the candidates below it, skip
    every candidate in the strict upper set of an earlier failure, and fail
    the candidates ``fails`` picks. Returns the candidates it evaluated and
    the ones that failed."""
    evaluated, failed = [], []
    for cand in itertools.product(range(d), repeat=m):
        if any(all(f <= c for f, c in zip(fail, cand)) for fail in failed):
            continue
        evaluated.append(cand)
        if fails(cand):
            failed.append(cand)
    return evaluated, failed


def _closed_form(d, m, failed):
    """The candidates the engines evaluate when ``failed`` miss support, and
    with them their whole upper sets."""
    cells = np.array(list(itertools.product(range(d), repeat=m))).T
    misses = holds(cells, np.array(failed).reshape(-1, m).T).any(axis=0)
    evaluated = _evaluated(~misses.reshape((d,) * m))
    return {tuple(map(int, c)) for c in zip(*np.nonzero(evaluated))}


def _pruned(failed, d=3):
    """The candidates a scan of the 2-attribute lattice skips when exactly
    ``failed`` fail among those it evaluates."""
    evaluated, _ = _scan(d, 2, lambda cand: cand in failed)
    assert _closed_form(d, 2, [f for f in failed if f in evaluated]) == set(evaluated)
    return set(itertools.product(range(d), repeat=2)) - set(evaluated)


class TestDominates:
    """A pattern holds for exactly the level vectors it dominates
    (componentwise lower or equal), so a failure's upper set misses support
    with it."""

    def _prunes(self, failed, other):
        held = holds(np.array(other)[:, None], np.array(failed)[:, None])
        return bool(held[0, 0])

    def test_componentwise(self):
        assert self._prunes((2, 3), (2, 5))

    def test_reflexive(self):
        assert self._prunes((1, 4), (1, 4))

    def test_incomparable(self):
        assert not self._prunes((3, 1), (2, 5))
        assert not self._prunes((2, 5), (3, 1))


class TestEnumerationOrder:
    def test_single_attribute_chain(self):
        order = list(CandidateLattice(X1, LevelDomain(3)).iter_levels())
        assert order == [(0,), (1,), (2,)]

    def test_two_by_two(self):
        order = list(CandidateLattice(X2, LevelDomain(2)).iter_levels())
        assert order == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_every_scan_yields_the_same_order(self):
        lat = CandidateLattice(X2, LevelDomain(3))
        assert list(lat.iter_levels()) == list(lat.iter_levels())

    def test_first_is_all_zero(self):
        first = next(CandidateLattice(X2, LevelDomain(5)).iter_levels())
        assert first == (0, 0)

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2), (4, 3), (3, 3)])
    def test_exhaustive_order_respects_dominance(self, d, m):
        attrs = tuple(AttributeId(i, f"X{i}") for i in range(m))
        seq = list(CandidateLattice(attrs, LevelDomain(d)).iter_levels())
        assert len(seq) == d**m
        assert len(set(seq)) == d**m
        position = {cand: i for i, cand in enumerate(seq)}
        for c1, c2 in itertools.combinations(seq, 2):
            if all(a <= b for a, b in zip(c1, c2)) and c1 != c2:
                assert position[c1] < position[c2], (c1, c2)


class TestPruning:
    """The engines' closed form, a candidate is evaluated iff no immediate
    predecessor misses support, skips exactly what a sequential scan in a
    dominance-respecting order skips."""

    def test_all_zero_prunes_everything_else(self):
        assert len(_pruned({(0, 0)})) == 3 * 3 - 1

    def test_top_prunes_nothing(self):
        assert _pruned({(2, 2)}) == set()

    def test_interior_upper_set(self):
        assert _pruned({(1, 1)}) == {(1, 2), (2, 1), (2, 2)}

    def test_iteration_skips_pruned(self):
        skipped = _pruned({(1, 0)})
        for cand in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
            assert cand in skipped
        assert {(1, 0), (0, 1), (0, 2)}.isdisjoint(skipped)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d,m", [(4, 2), (3, 3), (6, 1)])
    def test_random_failures_skip_exactly_the_strict_upper_sets(self, d, m, seed):
        rng = random.Random(seed)
        # a failing bottom would prune everything and test nothing
        yielded, failed = _scan(d, m, lambda cand: any(cand) and rng.random() < 0.3)
        assert failed, "seed should produce at least one failure"
        grid = set(itertools.product(range(d), repeat=m))
        expected_skipped = {
            c
            for c in grid
            for f in failed
            if c != f and all(fl <= cl for fl, cl in zip(f, c))
        }
        # every yielded candidate was un-pruned at its turn, and everything
        # else was skipped precisely because some failure dominates it
        assert expected_skipped.isdisjoint(yielded)
        assert set(yielded) | expected_skipped == grid
        assert _closed_form(d, m, failed) == set(yielded)

    def test_redundant_failures_change_nothing(self):
        # (2, 2) lies above (1, 1), so adding it fails nothing new
        assert _closed_form(4, 2, [(1, 1), (2, 2)]) == _closed_form(4, 2, [(1, 1)])


CONTACTS = str(Path(__file__).parent / "data" / "contacts.csv")
CONTACT_LHS = ["Name", "Street", "ZIP", "CC", "SIN"]
MESSAGES = {
    "exceeded": "candidate space d^m = 10^4 = 10000 exceeds the budget of 9999; reduce the level "
    "count d or the number of lhs attributes, or raise --candidate-budget",
    "below-one": "candidate budget must be at least 1 (got {})",
    "too-large": "candidate space d^m = 32768^{m} = {count} is too large to count; reduce d or m",
}


def _case(m, d, min_support="1/2"):
    """A one-record distribution over the lhs X0..X{m-1} and the rhs Y at d
    levels, and an eps request over them with the rhs pattern Y >= 1."""
    dist = make_distribution({(0,) * m + (1,): 1}, d, [f"X{i}" for i in range(m)] + ["Y"])
    lhs, rhs = dist.attribute_set[:m], dist.attribute_set[m:]
    request = DiscoveryRequest.build(
        lhs, rhs, ThresholdPattern.over(rhs, [1]), min_support, "1/2", Algorithm.EPS
    )
    return dist, request


def _engine(dist, request, budget):
    """eps through its public signature, on a lattice with the given budget."""
    lattice = CandidateLattice(request.lhs, dist.domain, candidate_budget=budget)
    return eps(dist, lattice, request.rhs_pattern, request.min_support, request.min_confidence)


def _discover(capsys, m, levels, budget, min_support="0.01"):
    """``mdd discover`` on the contacts CSV with the first m of CONTACT_LHS;
    returns its exit code and its standard error lines."""
    code = main([
        "discover", "--input", CONTACTS, "--lhs", ",".join(CONTACT_LHS[:m]), "--rhs", "City",
        "--rhs-levels", "1", "--min-support", min_support, "--min-confidence", "0.5",
        "--levels", str(levels), "--candidate-budget", str(budget),
    ])
    captured = capsys.readouterr()
    return code, captured.err.splitlines()


class TestBudget:
    """Every run checks its grid's d^m candidates against its caller's
    budget, after the request's own checks and before it looks up a column:
    run_request's argument, a public engine's lattice and --candidate-budget
    all give the same messages."""

    def test_budget_exceeded(self, capsys):
        dist, request = _case(4, 10)
        with pytest.raises(CandidateBudgetError) as raised:
            run_request(dist, request, candidate_budget=9999)
        assert str(raised.value) == MESSAGES["exceeded"]
        with pytest.raises(CandidateBudgetError) as raised:
            _engine(dist, request, 9999)
        assert str(raised.value) == MESSAGES["exceeded"]
        assert _discover(capsys, 4, 10, 9999) == (4, ["error: " + MESSAGES["exceeded"]])

    def test_budget_boundary_ok(self, capsys):
        dist, request = _case(2, 10, min_support="1")
        assert len(run_request(dist, request, candidate_budget=100)) == 1
        assert len(_engine(dist, request, 100)) == 1
        assert _discover(capsys, 2, 10, 100) == (0, [])

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget, capsys):
        # even a one-candidate grid (d^m >= 1) needs a budget of 1
        dist, request = _case(1, 2)
        message = MESSAGES["below-one"].format(budget)
        with pytest.raises(ValidationError) as raised:
            run_request(dist, request, candidate_budget=budget)
        assert str(raised.value) == message
        with pytest.raises(ValidationError) as raised:
            _engine(dist, request, budget)
        assert str(raised.value) == message
        assert _discover(capsys, 1, 2, budget) == (2, ["error: " + message])

    @pytest.mark.parametrize("budget", [0, 9999])
    def test_request_checks_come_first(self, budget, capsys):
        dist, request = _case(4, 10)
        lattice = CandidateLattice(request.lhs, dist.domain, candidate_budget=budget)
        with pytest.raises(ValidationError, match="min_support"):
            eps(dist, lattice, request.rhs_pattern, 0, request.min_confidence)
        code, err = _discover(capsys, 4, 10, budget, min_support="0")
        assert (code, err) == (2, ["error: min_support must lie in (0, 1]"])

    def test_budget_comes_before_any_column(self):
        # the request names columns the distribution lacks, so a run that
        # looked one up would fail with another error
        dist, _ = _case(4, 10)
        _, request = _case(5, 10)
        with pytest.raises(CandidateBudgetError, match="10\\^5 = 100000 exceeds"):
            run_request(dist, request, candidate_budget=99999)
        with pytest.raises(ValidationError, match="at least 1"):
            run_request(dist, request, candidate_budget=0)

    @pytest.mark.parametrize("m", [4, 5])
    def test_grid_too_large_to_count_is_refused(self, m):
        # d^m is past what numpy can size as an int64 cube, under a budget
        # that allows it; the refusal comes before any array is made
        dist, request = _case(m, 32768)
        message = MESSAGES["too-large"].format(m=m, count=32768**m)
        tracemalloc.start()
        try:
            with pytest.raises(CandidateBudgetError) as raised:
                run_request(dist, request, candidate_budget=10**32)
            assert str(raised.value) == message
            with pytest.raises(CandidateBudgetError) as raised:
                _engine(dist, request, 10**32)
            assert str(raised.value) == message
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("m", [4, 5])
    def test_grid_too_large_to_count_exits_4(self, m):
        # the child's address space is capped at 3 GB, as in
        # test_out_of_memory_is_one_line_and_exit_4, so a regression that
        # allocated the grid could not press on the host's memory
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "mdd", "discover", "--input", CONTACTS,
             "--lhs", ",".join(CONTACT_LHS[:m]), "--rhs", "City", "--rhs-levels", "5",
             "--min-support", "0.01", "--min-confidence", "0.5", "--levels", "32768",
             "--candidate-budget", str(10**32)],
            capture_output=True, text=True, env=env, preexec_fn=cap,
        )
        message = MESSAGES["too-large"].format(m=m, count=32768**m)
        assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
        assert proc.stderr.splitlines() == ["error: " + message]
