"""The public surface: the exported names, and the entry points whose
signatures the benchmark in perfbench/ calls (it passes the engine arguments
positionally, ``counters=`` and ``workers=`` by keyword, builds
``CandidateLattice(attrs, domain)`` and subclasses it, and lists its
candidates with ``iter_levels()``). The benchmark's traced smoke pass makes
those calls, and it runs here too, as does the README's Library example."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import mdd
import mdd.discovery
from mdd import CandidateLattice

EXPORTS = [
    "Algorithm", "ApproxBound", "AttributeId", "CandidateBudgetError", "CandidateLattice",
    "DEFAULT_CANDIDATE_BUDGET", "DiscoveredMd", "DiscoveryRequest",
    "DistributionIOError", "EvalCounters", "EvaluationMode", "InsufficientDataError",
    "LevelDomain", "MddError", "MetricKind", "Relation", "SchemaMismatchError",
    "StatDistribution", "ThresholdPattern", "ValidationError", "ap", "api", "aps", "apsi",
    "build_distribution", "compute_prefix_k", "discretize", "ea", "eps", "epsc",
    "group_by_rhs", "load_distribution", "oracle_discover", "oracle_measures", "pattern_mask",
    "project", "run_request", "save_distribution", "similarity", "sort_by_probability_desc",
    "strip_zero_levels", "to_fraction",
]

P = inspect.Parameter
EXACT_ARGS = ["dist", "lattice", "rhs_pattern", "min_support", "min_confidence"]
APPROX_ARGS = ["dist", "lattice", "rhs_pattern", "min_support", "min_confidence", "epsilon"]


def _signature(fn) -> list[tuple]:
    return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


def _positional(names) -> list[tuple]:
    return [(n, P.POSITIONAL_OR_KEYWORD, P.empty) for n in names]


def test_public_api_contract():
    assert mdd.__all__ == EXPORTS
    assert all(hasattr(mdd, name) for name in EXPORTS)

    counters = [("counters", P.KEYWORD_ONLY, None)]
    for name in ("ea", "eps", "epsc", "ap", "api", "aps", "apsi"):
        args = APPROX_ARGS if name.startswith("a") else EXACT_ARGS
        assert _signature(getattr(mdd.discovery, name)) == _positional(args) + counters, name
    run = inspect.signature(mdd.run_request).parameters
    assert (run["counters"].kind, run["counters"].default) == (P.KEYWORD_ONLY, None)
    assert _signature(mdd.compute_prefix_k) == _positional(
        ["dist", "epsilon", "min_support", "min_confidence"]
    )
    assert "prefix_k" in mdd.ApproxBound.__dataclass_fields__

    assert list(inspect.signature(CandidateLattice).parameters)[:2] == ["attributes", "domain"]
    assert _signature(CandidateLattice.iter_levels) == _positional(["self"])

    build = inspect.signature(mdd.build_distribution).parameters
    assert list(build)[:4] == ["relation", "attrs", "metrics", "domain"]
    assert (build["workers"].kind, build["workers"].default) == (P.KEYWORD_ONLY, 1)


def test_traced_benchmark_smoke_pass_is_correct():
    # the traced pass calls iter_levels(), build_distribution(workers=2) and
    # a CandidateLattice subclass; it writes its reports under .perfbench/
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr


def test_readme_library_example_runs():
    # the README's Library example, run as written against src/
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) > 1 and lines[-1].startswith("EvalCounters("), proc.stdout
