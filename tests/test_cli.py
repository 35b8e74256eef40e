"""Command line surface: flag validation, JSON output, exit codes, caching."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdd import (
    DEFAULT_CANDIDATE_BUDGET,
    Algorithm,
    AttributeId,
    DiscoveryRequest,
    EvalCounters,
    StatDistribution,
    ThresholdPattern,
    run_request,
)
import mdd.cli as cli_module
from mdd.cli import _result_text, main
from mdd.discovery import _rules

from conftest import make_distribution, random_distribution, reference_document

DATA = Path(__file__).parent / "data"
CONTACTS = str(DATA / "contacts.csv")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv: str, capsys=None):
    """In-process invocation; returns (exit_code, stdout)."""
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


def run_subprocess(*argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "mdd", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def discover_from_cache(
    tmp_path, header: str, capsys, lhs="A", rhs="B", row="0,0,1", algorithm="epsc"
):
    """Run discover on a cache with this header, the records in ``row`` (one
    by default) and a valid checksum; returns the exit code and the stderr
    lines."""
    body = f"#mdd-dist v1 {header} metric=edit fingerprint=x\n{row}\n"
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    cache = tmp_path / "one.dist"
    cache.write_text(body + f"#checksum={checksum}\n", encoding="utf-8")
    code = main([
        "discover", "--dist", str(cache), "--lhs", lhs, "--rhs", rhs,
        "--rhs-levels", "1", "--min-support", "0.1", "--min-confidence", "0.5",
        "--algorithm", algorithm,
    ])
    return code, capsys.readouterr().err.strip().splitlines()


DISCOVER_BASE = [
    "discover",
    "--input", CONTACTS,
    "--lhs", "Name,Street",
    "--rhs", "SIN",
    "--rhs-thresholds", "1.0",
    "--min-support", "0.05",
    "--min-confidence", "0.9",
    "--levels", "10",
    "--metric", "cosine-word",
]


class TestDiscover:
    def test_identity_rule_scenario_json(self, capsys):
        code, out = run_cli(*DISCOVER_BASE, "--algorithm", "epsc", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "mdd-result-v1"
        assert doc["request"]["rhs_levels"] == {"SIN": 9}
        assert doc["distribution"]["pair_total"] == 15
        assert doc["mode"] == "exact"
        for md in doc["mds"]:
            assert set(md["lhs_levels"]) <= {"Name", "Street"}
            assert md["support"] >= 0.05
            assert md["confidence"] >= 0.9

    def test_ea_and_eps_byte_identical(self, capsys):
        _, out_ea = run_cli(*DISCOVER_BASE, "--algorithm", "ea", capsys=capsys)
        _, out_eps = run_cli(*DISCOVER_BASE, "--algorithm", "eps", capsys=capsys)
        doc_ea, doc_eps = json.loads(out_ea), json.loads(out_eps)
        assert doc_ea["mds"] == doc_eps["mds"]
        assert doc_ea["status"] == doc_eps["status"]

    def test_infeasible_status(self, capsys):
        code, out = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "Name", "--rhs", "SIN",
            "--rhs-thresholds", "1.0",
            "--min-support", "0.9", "--min-confidence", "0.99",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        assert doc["mds"] == []

    def test_rhs_levels_flag(self, capsys):
        code, out = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "Street", "--rhs", "City",
            "--rhs-levels", "6",
            "--min-support", "0.2", "--min-confidence", "0.5",
            "--algorithm", "ea",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        # hand-counted street/city rule shows up with support 4/15
        assert any(md["support_exact"] == "4/15" for md in doc["mds"])

    def test_approximate_mode_reported(self, capsys):
        code, out = run_cli(
            *DISCOVER_BASE, "--algorithm", "apsi", "--epsilon", "0.05",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "approximate"

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, _ = run_cli(*DISCOVER_BASE, "--algorithm", "ea", "--out", str(out_path), capsys=capsys)
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "mdd-result-v1"


def writer_and_reference(dist, lhs, rhs_levels, algorithm, eta_s, eta_c, epsilon=None):
    """The CLI writer's document for one query, and the reference bytes
    built from the rule objects of the same query."""
    rhs = tuple(a for a in dist.attribute_set if a not in lhs)
    request = DiscoveryRequest.build(
        lhs, rhs, ThresholdPattern.over(rhs, rhs_levels), eta_s, eta_c, algorithm,
        epsilon if Algorithm.parse(algorithm).is_approximate else None,
    )
    rules = _rules(dist, request, EvalCounters(), DEFAULT_CANDIDATE_BUDGET)
    got = _result_text(request, dist, rules)
    counters = EvalCounters()
    mds = run_request(dist, request, counters=counters)
    return got, reference_document(request, dist, mds, counters)


def renamed(dist, names):
    """``dist`` with its attributes renamed, positions kept."""
    attrs = tuple(AttributeId(a.index, name) for a, name in zip(dist.attribute_set, names))
    return StatDistribution(
        attrs, dist.domain, dist.levels, dist.counts, dist.pair_total, dist.fingerprint,
        metric_specs=dist.metric_specs,
    )


@st.composite
def writer_cases(draw):
    m_x = draw(st.integers(1, 3))
    dist, lhs, _ = random_distribution(
        random.Random(draw(st.integers(0, 2**32))), m_x=m_x, d=draw(st.integers(2, 5)),
        max_samples=60,
    )
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=m_x + 1, max_size=m_x + 1,
                          unique=True))
    dist = renamed(dist, names)
    eta_c = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(3, 4)]))
    return (
        dist,
        dist.attribute_set[:m_x],
        [draw(st.integers(0, dist.domain.max_level))],
        draw(st.sampled_from([Fraction(1, 100), Fraction(1, 20), Fraction(1, 5), Fraction(1)])),
        eta_c,
        (1 - eta_c) * draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)])),
    )


class TestDocumentWriter:
    """The array writer's bytes equal json.dumps of the document built from
    the rule objects."""

    @settings(max_examples=40, deadline=None)
    @given(case=writer_cases())
    def test_equals_reference_for_every_algorithm(self, case):
        dist, lhs, rhs_levels, eta_s, eta_c, epsilon = case
        for algorithm in Algorithm:
            got, want = writer_and_reference(
                dist, lhs, rhs_levels, algorithm.value, eta_s, eta_c, epsilon
            )
            assert got == want, algorithm

    @pytest.mark.parametrize("algorithm", [a.value for a in Algorithm])
    def test_fixed_cases(self, algorithm):
        # quote, backslash, non-ASCII and control-character names, in an
        # index order that is not their name order
        names = ["z\"q", "b\\s", "\u00e9t\u00e9", "a\x07", "R"]
        dist = make_distribution(
            {(3, 1, 2, 0, 2): 5, (1, 0, 0, 3, 2): 4, (0, 0, 0, 0, 0): 9, (2, 3, 1, 1, 1): 2},
            d=4, names=names,
        )
        lhs = dist.attribute_set[:4]
        cases = [
            # infeasible: no rule meets support 1 at rhs level 3
            ([3], Fraction(1), Fraction(1, 2), '"mds": [],'),
            # every record meets rhs level 0, so the all-zero lhs is accepted
            # with support exactly 1
            ([0], Fraction(1, 50), Fraction(1, 2), '"lhs_levels": {},'),
            ([2], Fraction(1, 50), Fraction(1, 3), '"a\\u0007": '),
        ]
        for rhs_levels, eta_s, eta_c, expected in cases:
            got, want = writer_and_reference(
                dist, lhs, rhs_levels, algorithm, eta_s, eta_c, Fraction(1, 4)
            )
            assert got == want
            assert expected in got
        got, _ = writer_and_reference(dist, lhs, [0], algorithm, Fraction(1, 50), Fraction(1, 2),
                                      Fraction(1, 4))
        if Algorithm.parse(algorithm).is_approximate:
            assert '"epsilon": "1/4"' in got and '"prefix_k": null' not in got
        else:
            # an exact scan reads every record for the all-zero lhs
            assert '"support_exact": "1"' in got

    @pytest.mark.parametrize("algorithm", [a.value for a in Algorithm])
    def test_pair_total_beyond_float64_integers(self, algorithm):
        counts = {(1, 1): 2126805311019172, (0, 1): 1709636005579804, (0, 0): 5170757939796091}
        dist = make_distribution(counts, d=2)
        assert dist.pair_total >= 2**53
        # float64 division of these counts rounds away from the exact ratio
        for joint in (2126805311019172, 2126805311019172 + 1709636005579804):
            assert float(joint) / float(dist.pair_total) != joint / dist.pair_total
        got, want = writer_and_reference(
            dist, dist.attribute_set[:1], [1], algorithm, Fraction(1, 10), Fraction(1, 10),
            Fraction(1, 4),
        )
        assert got == want
        assert json.loads(got)["mds"]


class TestValidationAndExitCodes:
    def test_missing_input_file_is_io_error(self, capsys):
        code, _ = run_cli(
            "discover", "--input", "does-not-exist.csv",
            "--lhs", "A", "--rhs", "B",
            "--rhs-thresholds", "1.0",
            "--min-support", "0.1", "--min-confidence", "0.5",
            capsys=capsys,
        )
        assert code == 3

    def test_missing_column_is_validation_error(self, capsys):
        code, _ = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "Nope", "--rhs", "SIN",
            "--rhs-thresholds", "1.0",
            "--min-support", "0.1", "--min-confidence", "0.5",
            capsys=capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["discover", "distribution"])
    def test_unknown_csv_attribute_lists_the_header(self, tmp_path, capsys, command):
        if command == "discover":
            argv = [*DISCOVER_BASE]
            argv[argv.index("--rhs") + 1] = "Nope"
        else:
            argv = ["distribution", "--input", CONTACTS, "--attrs", "SIN,Nope",
                    "--out", str(tmp_path / "c.dist")]
        code, _ = run_cli(*argv)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: attribute 'Nope' not in CSV header (SIN, Name, CC, ZIP, City, Street)\n"
        )

    def test_unknown_cache_attribute_lists_the_cache(self, tmp_path, capsys):
        code, err = discover_from_cache(tmp_path, "d=10 pairs=1 attrs=0:A,1:B", capsys, lhs="A,Nope")
        assert code == 2
        assert err == ["error: attribute 'Nope' not in distribution cache (A, B)"]

    def test_overlapping_sides_rejected_before_compute(self, capsys):
        code, _ = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "SIN,Name", "--rhs", "SIN",
            "--rhs-thresholds", "1.0",
            "--min-support", "0.1", "--min-confidence", "0.5",
            capsys=capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["distribution", "discover", "discover --dist", "verify"])
    def test_threads_below_one_rejected(self, tmp_path, command, capsys):
        # --threads changes nothing, but must still be at least 1, whatever
        # the command and wherever the distribution comes from
        cache = tmp_path / "c.dist"
        if command == "distribution":
            argv = ["distribution", "--input", CONTACTS, "--attrs", "SIN,Name",
                    "--out", str(cache)]
        elif command == "discover --dist":
            assert main(["distribution", "--input", CONTACTS, "--attrs", "Name,Street,SIN",
                         "--out", str(cache)]) == 0
            capsys.readouterr()
            argv = ["discover", "--dist", str(cache), *DISCOVER_BASE[3:]]
        elif command == "verify":
            argv = ["verify", *DISCOVER_BASE[1:], "--algorithm", "ea"]
        else:
            argv = DISCOVER_BASE
        code = main([*argv, "--metric", "edit", "--threads", "0"])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == ["error: workers must be >= 1"]

    def test_bad_epsilon_range(self, capsys):
        code, _ = run_cli(
            *DISCOVER_BASE, "--algorithm", "ap", "--epsilon", "0.5",
            capsys=capsys,
        )
        # 0.5 >= 1 - 0.9
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _ = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "Name,Street,City", "--rhs", "SIN",
            "--rhs-thresholds", "1.0",
            "--min-support", "0.1", "--min-confidence", "0.5",
            "--candidate-budget", "10",
            capsys=capsys,
        )
        assert code == 4

    def test_epsilon_rejected_for_exact_algorithms(self, capsys):
        # 0.3 lies in range for min_confidence 0.2, but ea would ignore it
        code = main([*DISCOVER_BASE[:11], "--min-confidence", "0.2",
                     "--algorithm", "ea", "--epsilon", "0.3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            "error: algorithm ea is exact and takes no epsilon"
        ]

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_rejected(self, budget, capsys):
        code = main([*DISCOVER_BASE, "--candidate-budget", budget])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            f"error: candidate budget must be at least 1 (got {budget})"
        ]

    def test_out_of_memory_is_one_line_and_exit_4(self):
        # d^m = 2000^4 fits a raised budget, but one count cube would take
        # 116 TiB. The child's address space is capped at 3 GB, so the
        # allocation fails there and cannot press on the host's memory.
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        # one BLAS thread, so numpy's import reserves little address space
        # however many cores the host has
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "mdd", "discover", "--input", CONTACTS,
             "--lhs", "Name,Street,City,ZIP", "--rhs", "SIN", "--rhs-levels", "1999",
             "--min-support", "0.05", "--min-confidence", "0.9", "--levels", "2000",
             "--candidate-budget", str(10**14)],
            capture_output=True, text=True, env=env, preexec_fn=cap,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in proc.stderr
        assert lines[0].startswith("error: out of memory") and "d^m" in lines[0]
        assert f"d^m = {2000**4} " in lines[0] and str(10**14) in lines[0]

    def test_out_of_memory_outside_the_search_names_no_budget(self, monkeypatch, capsys):
        # a MemoryError while the input is read is not the candidates' doing
        def no_memory(path):
            raise MemoryError

        monkeypatch.setattr(cli_module, "_read_csv", no_memory)
        code = main(DISCOVER_BASE)
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err.splitlines() == ["error: out of memory"]

    def test_both_threshold_flags_rejected(self, capsys):
        code, _ = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "Name", "--rhs", "SIN",
            "--rhs-thresholds", "1.0", "--rhs-levels", "9",
            "--min-support", "0.1", "--min-confidence", "0.5",
            capsys=capsys,
        )
        assert code == 2

    def test_n_too_small(self, tmp_path, capsys):
        small = tmp_path / "one.csv"
        small.write_text("a,b\nx,y\n")
        code, _ = run_cli(
            "distribution", "--input", str(small), "--attrs", "a,b",
            "--out", str(tmp_path / "o.dist"),
            capsys=capsys,
        )
        assert code == 2

    def test_levels_above_int16_storage_rejected(self, capsys):
        code, _ = run_cli(*DISCOVER_BASE, "--levels", "40000")
        assert code == 2
        assert "d <= 32768" in capsys.readouterr().err

    def test_cache_with_huge_d_is_io_error(self, tmp_path, capsys):
        code, _ = discover_from_cache(tmp_path, "d=40000 pairs=1 attrs=0:A,1:B", capsys)
        assert code == 3

    def test_cache_with_empty_attribute_name_is_io_error(self, tmp_path, capsys):
        code, err = discover_from_cache(
            tmp_path, "d=10 pairs=1 attrs=0:,1:Street", capsys, rhs="Street"
        )
        assert code == 3
        assert len(err) == 1 and "attribute name must be nonempty" in err[0]

    @pytest.mark.parametrize("attrs", ["5:A,5:B", "0:A,1:A"])
    def test_cache_with_repeated_attribute_is_io_error(self, tmp_path, capsys, attrs):
        code, err = discover_from_cache(tmp_path, f"d=10 pairs=1 attrs={attrs}", capsys)
        assert code == 3
        assert len(err) == 1 and "twice" in err[0]

    @pytest.mark.parametrize("attrs", ["\u00b2:A,1:B", "0:A,-1:B", f"{'9' * 5000}:A,1:B"])
    def test_cache_with_malformed_index_is_io_error(self, tmp_path, capsys, attrs):
        code, err = discover_from_cache(tmp_path, f"d=10 pairs=1 attrs={attrs}", capsys)
        assert code == 3
        assert len(err) == 1 and "malformed attrs= entry" in err[0]

    @pytest.mark.parametrize(
        "flag,value",
        [("--min-support", "1e-5000"), ("--epsilon", "1e-5000"), ("--min-support", "1e-9999999")],
    )
    def test_thresholds_beyond_the_digit_limit_rejected(self, capsys, flag, value):
        argv = [*DISCOVER_BASE, "--algorithm", "ap", "--epsilon", "0.05"]
        argv[argv.index(flag) + 1] = value
        start = time.perf_counter()
        code, _ = run_cli(*argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{flag} has more than" in err[0]

    def test_cache_cell_beyond_int64_is_io_error(self, tmp_path, capsys):
        code, err = discover_from_cache(
            tmp_path, "d=10 pairs=1 attrs=0:A,1:B", capsys, row="0,0,99999999999999999999"
        )
        assert code == 3
        assert len(err) == 1 and "one.dist:2: cell outside the int64 range" in err[0]

    @pytest.mark.parametrize(
        "counts",
        [
            # int64 cubes wrapped: exit 0 with "confidence_exact": "1/-2"
            (2**62, 2**62, 2**62, 2**62),
            # the all-zero lhs count wrapped to 0: a ZeroDivisionError traceback
            (2**63 - 1, 2**63 - 1, 2),
        ],
    )
    def test_cache_pairs_beyond_int64_is_io_error(self, tmp_path, capsys, counts):
        cells = ("0,0", "1,1", "2,0", "2,1") if len(counts) == 4 else ("0,0", "0,1", "1,0")
        rows = "\n".join(f"{cell},{count}" for cell, count in zip(cells, counts))
        code, err = discover_from_cache(
            tmp_path, f"d=3 pairs={2**64} attrs=0:X,1:Y", capsys,
            lhs="X", rhs="Y", row=rows, algorithm="eps",
        )
        assert code == 3
        assert len(err) == 1
        assert "invalid distribution payload: pair_total must be below 2^63" in err[0]

    def test_cache_level_beyond_int16_is_io_error(self, tmp_path, capsys):
        # 65537 must not wrap to level 1 on the way into int16 storage
        code, err = discover_from_cache(
            tmp_path, "d=32768 pairs=5 attrs=0:A,1:B", capsys, row="0,65537,5"
        )
        assert code == 3
        assert len(err) == 1 and "levels must lie in 0..32767" in err[0]

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_write_is_io_error(self, monkeypatch, capsys, failing):
        class FullStdout:
            def write(self, text):
                if failing == "write":
                    raise OSError(28, "No space left on device")

            def flush(self):
                if failing == "flush":
                    raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main([*DISCOVER_BASE, "--algorithm", "ea"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: cannot write to standard output: [Errno 28] No space left on device\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    # 0.05: a document larger than the stdout buffer; 1: an infeasible one
    # that fits in it, which the interpreter would flush again at exit
    @pytest.mark.parametrize("min_support", ["0.05", "1"])
    def test_stdout_on_a_full_device_is_io_error(self, min_support):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        args = [*DISCOVER_BASE, "--algorithm", "ea", "--min-support", min_support]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mdd", *args],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: cannot write to standard output: [Errno 28] No space left on device\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["distribution", "verify"])
    def test_other_commands_on_a_full_device_are_io_errors(self, tmp_path, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        if command == "distribution":
            args = ["--attrs", "Name,City", "--out", str(tmp_path / "c.dist")]
        else:
            args = [
                "--lhs", "Street", "--rhs", "City", "--rhs-thresholds", "0.7",
                "--min-support", "0.2", "--min-confidence", "0.5",
            ]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mdd", command, "--input", CONTACTS, *args],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: cannot write to standard output: [Errno 28] No space left on device\n"
        )

    def test_distribution_out_in_missing_directory_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.dist"
        code, _ = run_cli(
            "distribution", "--input", CONTACTS, "--attrs", "Name,City", "--out", str(out)
        )
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "cannot write distribution cache" in err[0]

    def test_csv_field_over_the_size_limit_is_validation_error(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("a,b\nx,y\n" + "z" * 140_000 + ",w\n")
        code, _ = run_cli(
            "distribution", "--input", str(big), "--attrs", "a,b",
            "--out", str(tmp_path / "o.dist"),
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "big.csv:3: malformed CSV" in err[0]

    @pytest.mark.parametrize("attrs", ["0:A,5:B", "5:A,2:B"])
    def test_cache_keeps_gapped_and_unordered_indices(self, tmp_path, capsys, attrs):
        code, err = discover_from_cache(tmp_path, f"d=10 pairs=1 attrs={attrs}", capsys)
        assert code == 0 and err == []

    def test_conflicting_qgram_size_rejected(self, capsys):
        metric_at = DISCOVER_BASE.index("--metric") + 1
        argv = [*DISCOVER_BASE[:metric_at], "cosine-qgram:3", *DISCOVER_BASE[metric_at + 1:]]
        code, _ = run_cli(*argv, "--qgram", "5")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "conflicts" in err[0]
        assert run_cli(*argv, "--qgram", "3")[0] == 0

    @pytest.mark.parametrize("spelling", [["cosine-qgram:0"], ["cosine-qgram", "--qgram", "0"]])
    def test_qgram_size_zero_names_the_q_limit_in_both_spellings(self, capsys, spelling):
        metric_at = DISCOVER_BASE.index("--metric") + 1
        argv = [*DISCOVER_BASE[:metric_at], spelling[0], *DISCOVER_BASE[metric_at + 1:], *spelling[1:]]
        code, _ = run_cli(*argv)
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "q-gram metric needs an integer q >= 1" in err[0]

    def test_non_utf8_csv_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\nx\xff,y\nz,w\n")
        code, _ = run_cli(
            "distribution", "--input", str(bad), "--attrs", "a,b",
            "--out", str(tmp_path / "o.dist"),
        )
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_non_utf8_cache_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dist"
        bad.write_bytes(b"#mdd-dist v1 d=10 pairs=1 attrs=0:\xff,1:B\n")
        code, _ = run_cli(
            "discover", "--dist", str(bad), "--lhs", "A", "--rhs", "B",
            "--rhs-levels", "1", "--min-support", "0.1", "--min-confidence", "0.5",
            capsys=capsys,
        )
        assert code == 3


class TestDistributionCommand:
    def test_build_and_reuse_cache(self, tmp_path, capsys):
        cache = tmp_path / "contacts.dist"
        code, out = run_cli(
            "distribution", "--input", CONTACTS,
            "--attrs", "Name,Street,SIN",
            "--out", str(cache),
            capsys=capsys,
        )
        assert code == 0
        assert "pair_total=15" in out
        code, out = run_cli(
            "discover", "--dist", str(cache),
            "--lhs", "Name,Street", "--rhs", "SIN",
            "--rhs-thresholds", "1.0",
            "--min-support", "0.05", "--min-confidence", "0.9",
            "--algorithm", "ea",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["distribution"]["pair_total"] == 15

    def test_cache_projection_for_subset(self, tmp_path, capsys):
        cache = tmp_path / "wide.dist"
        run_cli(
            "distribution", "--input", CONTACTS,
            "--attrs", "Name,Street,City,SIN",
            "--out", str(cache),
            capsys=capsys,
        )
        code, out = run_cli(
            "discover", "--dist", str(cache),
            "--lhs", "Street", "--rhs", "City",
            "--rhs-levels", "6",
            "--min-support", "0.2", "--min-confidence", "0.5",
            "--algorithm", "ea",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert any(md["support_exact"] == "4/15" for md in doc["mds"])

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, capsys):
        # SIN is the first header name, so a kept mark would make it unknown
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(CONTACTS).read_bytes())
        outputs = []
        for i, source in enumerate((CONTACTS, str(bom))):
            cache = tmp_path / f"c{i}.dist"
            code, out = run_cli(
                "distribution", "--input", source, "--attrs", "SIN,Name",
                "--out", str(cache), capsys=capsys,
            )
            assert code == 0
            assert out.endswith(f" out={cache}\n")
            code, doc = run_cli(*DISCOVER_BASE[:2], source, *DISCOVER_BASE[3:], capsys=capsys)
            assert code == 0
            outputs.append((out[: -len(str(cache)) - 1], cache.read_bytes(), doc))
        assert outputs[0] == outputs[1]


class TestHeaderWhitespace:
    """A flag's attribute name equals a header or cache name as written, or
    failing that, the first one whose surrounding whitespace is stripped;
    documents and caches keep the name as the header writes it."""

    @pytest.fixture
    def spaced(self, tmp_path):
        # contacts.csv with a space after every comma of its header
        lines = Path(CONTACTS).read_text(encoding="utf-8").splitlines(keepends=True)
        path = tmp_path / "spaced.csv"
        path.write_text(lines[0].replace(",", ", ") + "".join(lines[1:]), encoding="utf-8")
        return str(path)

    QUERY = ["--lhs", "Name,Street", "--rhs", "City", "--rhs-levels", "6",
             "--min-support", "0.1", "--min-confidence", "0.5"]

    def test_exact_names_come_first(self):
        attrs = [AttributeId(0, "A"), AttributeId(1, " B"), AttributeId(2, "B"),
                 AttributeId(3, "C "), AttributeId(4, " C")]
        resolve = cli_module._resolve_attrs
        assert resolve(attrs, "CSV header", "A, B,C", "--lhs") == [attrs[0], attrs[2], attrs[3]]
        assert resolve(attrs[:2], "CSV header", "B", "--lhs") == [attrs[1]]
        with pytest.raises(cli_module.SchemaMismatchError) as raised:
            resolve(attrs, "CSV header", "D", "--lhs")
        assert str(raised.value) == "attribute 'D' not in CSV header (A,  B, B, C ,  C)"

    @pytest.mark.parametrize("attrs", ["Name,City", "Name, City", " Name , City "])
    def test_distribution(self, spaced, tmp_path, capsys, attrs):
        cache = tmp_path / "spaced.dist"
        code, out = run_cli("distribution", "--input", spaced, "--attrs", attrs,
                            "--out", str(cache), capsys=capsys)
        assert (code, out) == (0, f"n=5 pair_total=15 d=10 out={cache}\n")
        assert "attrs=1:%20Name,4:%20City " in cache.read_text(encoding="utf-8")

    @pytest.mark.parametrize("algorithm", [a.value for a in Algorithm])
    def test_discover_input_and_dist(self, spaced, tmp_path, capsys, algorithm):
        query = [*self.QUERY, "--algorithm", algorithm]
        if Algorithm.parse(algorithm).is_approximate:
            query += ["--epsilon", "0.25"]
        code, plain = run_cli("discover", "--input", CONTACTS, *query, capsys=capsys)
        assert code == 0
        code, text = run_cli("discover", "--input", spaced, *query, capsys=capsys)
        assert code == 0
        cache = tmp_path / "spaced.dist"
        code, _ = run_cli("distribution", "--input", spaced, "--attrs", "Name,Street,City",
                          "--out", str(cache), capsys=capsys)
        assert code == 0
        code, cached = run_cli("discover", "--dist", str(cache), *query, capsys=capsys)
        assert code == 0
        doc, cached_doc, plain_doc = json.loads(text), json.loads(cached), json.loads(plain)
        assert doc["request"]["lhs"] == [" Name", " Street"] and doc["request"]["rhs"] == [" City"]
        assert doc["mds"] == cached_doc["mds"]
        # the rules are contacts.csv's, under the names as written
        assert [md["support_exact"] for md in doc["mds"]] == [
            md["support_exact"] for md in plain_doc["mds"]
        ]
        assert all(set(md["lhs_levels"]) <= {" Name", " Street"} for md in doc["mds"])
        assert doc["counters"] == cached_doc["counters"] == plain_doc["counters"]

    def test_verify(self, spaced, capsys):
        code, out = run_cli("verify", "--input", spaced, *self.QUERY, capsys=capsys)
        assert code == 0 and out.startswith("AGREEMENT: ")


class TestJsonRoundTrip:
    def test_reported_measures_reverify_against_oracle(self, capsys):
        # parse the emitted document and recheck every measure pair by pair
        from mdd import LevelDomain, MetricKind, Relation, ThresholdPattern, oracle_measures

        code, out = run_cli(
            "discover", "--input", CONTACTS,
            "--lhs", "Street", "--rhs", "City",
            "--rhs-levels", "6",
            "--min-support", "0.1", "--min-confidence", "0.4",
            "--algorithm", "epsc",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mds"], "fixture should yield rules"
        import csv

        with open(CONTACTS) as fh:
            rows = list(csv.reader(fh))
        rel = Relation.from_rows(rows[0], rows[1:])
        street, city = rel.attribute("Street"), rel.attribute("City")
        domain = LevelDomain(doc["request"]["levels"])
        for md in doc["mds"]:
            lam_x = ThresholdPattern.of(
                {rel.attribute(n): l for n, l in md["lhs_levels"].items()}
            )
            lam_y = ThresholdPattern.of(
                {rel.attribute(n): l for n, l in md["rhs_levels"].items()}
            )
            sup, conf = oracle_measures(
                rel, [street], [city], lam_x, lam_y,
                MetricKind.cosine_word_tokens(), domain,
            )
            assert float(sup) == pytest.approx(md["support"], abs=1e-12)
            assert float(conf) == pytest.approx(md["confidence"], abs=1e-12)


VERIFY_STREET = (
    "verify", "--input", CONTACTS,
    "--lhs", "Street", "--rhs", "City",
    "--rhs-thresholds", "0.7",
    "--min-support", "0.2", "--min-confidence", "0.5",
    "--algorithm", "epsc",
)


class TestVerifyCommand:
    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        calls = []
        original = cli_module.oracle_measures

        def counted(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, "oracle_measures", counted)
        return calls

    def engine_returns(self, monkeypatch, change):
        """Make verify's engine return ``change(rules)`` instead of its rules."""
        monkeypatch.setattr(
            cli_module, "run_request", lambda *args, **kwargs: change(run_request(*args, **kwargs))
        )

    def test_agreement_measures_each_rule_in_one_oracle_pass(self, capsys, oracle_calls):
        code, out = run_cli(*VERIFY_STREET, capsys=capsys)
        assert (code, out) == (0, "AGREEMENT: 3 rule(s), measures identical\n")
        # the oracle's one pass already counted every accepted rule's measures
        assert len(oracle_calls) <= 1

    def test_a_rule_the_engine_dropped_is_a_disagreement(self, monkeypatch, capsys, oracle_calls):
        self.engine_returns(monkeypatch, lambda rules: rules[1:])
        code, out = run_cli(*VERIFY_STREET, capsys=capsys)
        assert code == 1
        assert out == (
            "DISAGREEMENT\n"
            "  pattern: {Street>=6}\n"
            "  oracle: support=0.333333333333 confidence=0.5\n"
            "  engine: pattern not returned\n"
        )
        assert oracle_calls == []

    def test_a_rule_only_the_engine_returned_is_measured_by_the_oracle(
        self, monkeypatch, capsys, oracle_calls
    ):
        extra = []

        def add_rule(rules):
            extra.append(ThresholdPattern.over(rules[0].lhs_pattern.attributes, [1]))
            return [replace(rules[0], lhs_pattern=extra[0]), *rules]

        self.engine_returns(monkeypatch, add_rule)
        code, out = run_cli(*VERIFY_STREET, capsys=capsys)
        assert code == 1
        assert out == (
            "DISAGREEMENT\n"
            "  pattern: {Street>=1}\n"
            "  oracle: support=0.466666666667 confidence=0.466666666667\n"
            "  engine: support=0.333333333333 confidence=0.5\n"
        )
        # the oracle's pass kept no measures for a pattern it rejected
        assert oracle_calls == extra

    def test_an_altered_measure_is_a_disagreement_on_measures(
        self, monkeypatch, capsys, oracle_calls
    ):
        self.engine_returns(
            monkeypatch,
            lambda rules: [rules[0], replace(rules[1], support=Fraction(1, 2)), *rules[2:]],
        )
        code, out = run_cli(*VERIFY_STREET, capsys=capsys)
        assert code == 1
        assert out == (
            "DISAGREEMENT on measures\n"
            "  pattern: {Street>=7}\n"
            "  oracle: support=0.266666666667 confidence=0.5\n"
            "  engine: support=0.5 confidence=0.5\n"
        )
        assert oracle_calls == []

    @pytest.mark.parametrize(
        "change, sample",
        [
            (lambda rules: rules[::-1], "{Street>=8}"),
            (lambda rules: [rules[0], rules[0], *rules[1:]], "{Street>=6}"),
        ],
        ids=["reversed", "repeated"],
    )
    def test_engine_order_is_a_disagreement_on_order(
        self, monkeypatch, capsys, oracle_calls, change, sample
    ):
        self.engine_returns(monkeypatch, change)
        code, out = run_cli(*VERIFY_STREET, capsys=capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[:2] == ["DISAGREEMENT on order", f"  pattern: {sample}"]
        # the pattern is on both sides with the same measures
        assert len(lines) == 4 and lines[2].split(": ")[1] == lines[3].split(": ")[1]
        assert oracle_calls == []

    def test_agreement(self, capsys):
        code, out = run_cli(
            "verify", "--input", CONTACTS,
            "--lhs", "Street", "--rhs", "City",
            "--rhs-thresholds", "0.7",
            "--min-support", "0.2", "--min-confidence", "0.5",
            "--algorithm", "epsc",
            capsys=capsys,
        )
        assert code == 0
        assert "AGREEMENT" in out

    def test_approximate_algorithms_rejected(self, capsys):
        code, _ = run_cli(
            "verify", "--input", CONTACTS,
            "--lhs", "Street", "--rhs", "City",
            "--rhs-thresholds", "0.7",
            "--min-support", "0.2", "--min-confidence", "0.5",
            "--algorithm", "ap", "--epsilon", "0.3",
            capsys=capsys,
        )
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["ea", "epsc", "apsi"])
    def test_threads_do_not_change_output(self, algorithm):
        epsilon = ["--epsilon", "0.05"] if algorithm == "apsi" else []
        runs = []
        for threads in ("1", "8", "1", "8"):
            proc = run_subprocess(
                *DISCOVER_BASE, "--algorithm", algorithm, *epsilon,
                "--threads", threads,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        assert len(set(runs)) == 1

    def test_cache_files_identical_across_threads(self, tmp_path):
        files = []
        for i, threads in enumerate(("1", "8")):
            out = tmp_path / f"c{i}.dist"
            proc = run_subprocess(
                "distribution", "--input", CONTACTS,
                "--attrs", "Name,Street,SIN",
                "--threads", threads, "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_edit_cache_files_identical_across_threads(self, tmp_path):
        # --threads is accepted and changes nothing
        files = []
        for i, threads in enumerate(("1", "2")):
            out = tmp_path / f"e{i}.dist"
            proc = run_subprocess(
                "distribution", "--input", CONTACTS, "--attrs", "Name,Street,SIN",
                "--metric", "edit", "--threads", threads, "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
        assert files[0] == files[1]


# ---------------------------------------------------------------------------
# A sweep over the flags argparse accepts
# ---------------------------------------------------------------------------

CONTACT_NAMES = ["SIN", "Name", "CC", "ZIP", "City", "Street"]
# each flag's values that pass its own check, and those that fail it; None
# leaves the flag out
SWEEP_VALUES = {
    "metric": ([None, "cosine-word", "cosine-qgram:3", "edit"],
               ["bogus", "cosine-qgram", "cosine-qgram:0", "cosine-qgram:x", ""]),
    "qgram": ([None], [-1, 0, 1, 3, 100]),
    "levels": ([None, 2, 10, 40], [-2, -1, 0, 1]),
    "threads": ([None, 1, 8], [0]),
    "out": (["out.txt", None], ["missing/out.txt"]),
    "ratio": (["0.1", "0.5", "1", "1/3", "2/5", "0.05"],
              ["0", "1.5", "-0.1", "3/2", "1/0", "abc", "", "nan", "inf", " 0.2"]),
    "epsilon": (["0.01", "1/100", "0.3"], ["0", "1", "-0.1", "2/3", "abc", ""]),
    # valid as a level and as a similarity
    "rhs_value": (["0", "1"], ["-1", "40", "x", "", "2", "1/0", "0.5"]),
    "budget": ([None, 50, 10**7, 10**30], [-1, 0, 1]),
    "algorithm": ([a.value for a in Algorithm], ["bogus", ""]),
}
SWEEP_FIELDS = [*SWEEP_VALUES, "names", "rhs_flags"]


@st.composite
def sweep_argv(draw, cache, out_dir):
    """An argv for distribution, discover --input, discover --dist or verify
    over tests/data/contacts.csv: a valid request with up to two of its
    fields broken. Every value goes in one ``--flag=value`` word, so argparse
    takes it whatever it starts with. At most 3 lhs attributes and 40 levels
    keep d^m at most 64,000."""
    broken = draw(st.sets(st.sampled_from(SWEEP_FIELDS), max_size=2))

    def value(field):
        return draw(st.sampled_from(SWEEP_VALUES[field][field in broken]))

    def flag(name, field):
        drawn = value(field)
        if drawn is not None:
            argv.append(f"--{name}={drawn}")

    command = draw(st.sampled_from(["distribution", "discover --input", "discover --dist", "verify"]))
    argv = command.split()[:1]
    argv.append(f"--dist={cache}" if command == "discover --dist" else f"--input={CONTACTS}")
    for name in ("metric", "qgram", "levels", "threads"):
        flag(name, name)
    out = value("out")
    names = draw(st.permutations(CONTACT_NAMES))
    if "names" in broken:
        # unknown, empty, duplicated, or on both sides
        names = [*names[:2], draw(st.sampled_from(["Nope", "", names[0], names[1]])), *names[2:]]
    if command == "distribution":
        argv.append(f"--attrs={','.join(names[: draw(st.integers(1, 4))])}")
        argv.append(f"--out={out_dir / (out or 'out.dist')}")
        return argv
    if out is not None and command != "verify":
        argv.append(f"--out={out_dir / out}")
    split = draw(st.integers(1, 3))
    lhs, rhs = names[:split], names[split : split + draw(st.integers(1, 2))]
    argv += [f"--lhs={','.join(lhs)}", f"--rhs={','.join(rhs)}"]
    given_flags = [draw(st.sampled_from(["--rhs-thresholds", "--rhs-levels"]))]
    if "rhs_flags" in broken:
        given_flags = draw(st.sampled_from([[], ["--rhs-thresholds", "--rhs-levels"]]))
    for name in given_flags:
        argv.append(f"{name}={','.join(value('rhs_value') for _ in rhs)}")
    argv += [f"--min-support={value('ratio')}", f"--min-confidence={value('ratio')}"]
    algorithm = value("algorithm")
    # an epsilon goes with the approximate algorithms, and breaks an exact one
    if algorithm.startswith("a") or "epsilon" in broken:
        argv.append(f"--epsilon={value('epsilon')}")
    argv.append(f"--algorithm={algorithm}")
    flag("candidate-budget", "budget")
    return argv


class TestFlagSweep:
    """Whatever flags argparse accepts, main returns a documented exit code:
    on failure with exactly one error line, on success with nothing on
    standard error, and no exception escapes it."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("sweep")
        assert main(["distribution", "--input", CONTACTS, "--attrs", ",".join(CONTACT_NAMES),
                     "--out", str(workdir / "contacts.dist")]) == 0
        return workdir

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_codes_and_one_error_line(self, workdir, data):
        argv = data.draw(sweep_argv(workdir / "contacts.dist", workdir))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        allowed = {0, 1, 2, 3, 4} if argv[0] == "verify" else {0, 2, 3, 4}
        assert code in allowed, (argv, code)
        lines = stderr.getvalue().splitlines()
        if code in (0, 1):
            assert lines == [], (argv, lines)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
