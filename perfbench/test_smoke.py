"""Tests of the benchmark harness itself, on toy-size inputs:

    python3 -m pytest perfbench/test_smoke.py

Each smoke run takes a few seconds: it runs all three workloads, makes every
correctness check and prints every metric named in BENCHMARK.json. The
correctness test repeats the smoke run over several seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ["pairs-lowcard", "pairs-highcard", "search-lattice"]  # what --workload all runs
CHECKS = {
    "setup probe",
    "build",
    "query",
    "eps equals epsc",
    "ea equals eps on the projection",
    "approximate rule within epsilon",
    "cache round trip",
    "CLI exit",
    "CLI document equals in-process result",
    "CLI cache header",
    "oracle equals run_request",
}
TRACED_CHECKS = CHECKS | {"CLI cache equals in-process build"}


def run_smoke(trace: int):
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    reports = {
        w: json.loads((ROOT / ".perfbench" / f"{w}-seed1-trace{trace}.json").read_text(encoding="utf-8"))
        for w in WORKLOADS
    }
    return proc, result, reports


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request):
    return request.param, *run_smoke(request.param)


def test_benchmark_lists_a_subset_of_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_every_metric_is_printed_with_its_unit(smoke):
    trace, proc, result, _ = smoke
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        for metric in group:
            printed = result["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            assert f"{metric['name']} " in proc.stdout


def test_every_check_is_made(smoke):
    trace, _, result, reports = smoke
    made = set().union(*(r["checks"] for r in reports.values()))
    assert made == (TRACED_CHECKS if trace else CHECKS)
    assert result["attempted"] == sum(r["attempted"] for r in reports.values())
    for report in reports.values():
        assert report["environment"]["seed"] == 1
        assert {"python", "numpy", "nproc", "cpu", "commit"} <= set(report["environment"])


def test_traced_run_writes_spans(smoke):
    trace, *_ = smoke
    if not trace:
        pytest.skip("spans are written by traced runs only")
    for workload in WORKLOADS:
        spans = json.loads(
            (ROOT / ".perfbench" / f"{workload}-seed1-trace1-spans.json").read_text(encoding="utf-8")
        )["spans"]
        names = {s["name"] for s in spans}
        assert {"distribution.build_distribution", "discovery.eps", "model.StatDistribution"} <= names
        assert any(name.startswith("cli.") for name in names)
        assert all(s["end"] >= s["start"] for s in spans)


@pytest.mark.parametrize("seed", range(1, 6))
def test_program_outputs_are_correct(seed):
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
            "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert proc.returncode == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
