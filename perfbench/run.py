"""Seeded benchmark for mdd. Run it from the repository root:

    python3 perfbench/run.py --workload pairs-lowcard --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Workloads (inputs are generated from --seed; mdd sees only the files):

  pairs-lowcard   2000-row, 3-column CSV over a 7-word vocabulary: ~2M pairs,
                  ~100 distinct values a column, so the build's memo answers
                  almost every lookup and the pair loop dominates.
  pairs-highcard  420 person-like rows (Name, Street, City), 70-90% distinct:
                  nearly every pair is a fresh similarity call (edit,
                  cosine-word, cosine-qgram:3), and the CLI writes a cache.
                  Not in BENCHMARK.json: on a shared 2-CPU host its medians
                  were not steady enough within the run-time budget.
  search-lattice  synthetic 5+1-column cache (3M pairs, ~3*10^4 records, d=10,
                  10^5 candidates); the search does all the work.

Every workload runs the same query set: eps and epsc over all lhs columns,
apsi too; ea, eps and ap over a projection that keeps all but two lhs
columns, because ea and ap evaluate every candidate.

Each run sets up in several fresh processes (setup_s), then repeats sessions
-- build, exact queries, approximate queries, one ``python -m mdd`` command --
for about --seconds, checking every output, and reports medians. --trace 1
adds traced sessions and prints the per-layer metrics instead, plus the
tracing overhead, and writes the spans under .perfbench/. --smoke shrinks
every input to toy size. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

END_TO_END = {
    "setup_s": "s",
    "build_pairs_per_s": "pairs/s",
    "search_exact_s": "s",
    "search_approx_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}
ENGINE_UNITS = {
    "s": "s",
    "self_s": "s",
    "candidates_evaluated": "count",
    "records_evaluated": "count",
    "candidates_pruned_support": "count",
    "candidates_pruned_confidence": "count",
    "eval_ratio": "ratio",
    "rules": "count",
}
PER_LAYER = {
    "cli.glue_s": "s",
    "simkit.self_s": "s",
    "simkit.calls": "count",
    "simkit.share": "ratio",
    "simkit.edit.calls_per_s": "1/s",
    "simkit.cosine-word.calls_per_s": "1/s",
    "simkit.cosine-qgram-3.calls_per_s": "1/s",
    "distribution.build_s": "s",
    "distribution.self_s": "s",
    "distribution.workers2_s": "s",
    "distribution.records": "count",
    "distribution.save_s": "s",
    "distribution.cache_bytes": "bytes",
    "distribution.load_s": "s",
    "distribution.group_by_rhs_s": "s",
    "distribution.project_s": "s",
    "distribution.sort_by_probability_s": "s",
    "model.stat_distribution_init_s": "s",
    "lattice.iter_s": "s",
    "lattice.is_pruned_calls": "count",
    "lattice.is_pruned_s": "s",
    "lattice.failures_recorded": "count",
    **{
        f"discovery.{algo}.{key}": unit
        for algo in ("ea", "eps", "epsc", "ap", "apsi")
        for key, unit in ENGINE_UNITS.items()
    },
    **{
        f"discovery.{algo}.{key}": unit
        for algo in ("ap", "apsi")
        for key, unit in (("prefix_k", "count"), ("prefix_ratio", "ratio"))
    },
    **{f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()},
}
SETUP_PROBES_PER_SESSION = 2


def environment(root: Path, seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(root),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def medians(samples: dict) -> dict:
    return {key: median(values) for key, values in samples.items() if values}


def end_to_end(samples: dict) -> dict:
    m = medians(samples)
    return {
        "setup_s": m["setup_s"],
        "build_pairs_per_s": samples["build_pairs"][0] / m["build_s"],
        "search_exact_s": m["exact_s"],
        "search_approx_s": m["approx_s"],
        "cli_s": m["cli_s"],
        "peak_rss_mb": m["rss_mb"],
    }


def per_layer(workload, untraced: dict, traced: dict, extras: dict) -> dict:
    layers = medians(traced)
    layers.update(medians(extras))
    for algo in ("ea", "eps", "epsc", "ap", "apsi"):
        evaluated = layers[f"discovery.{algo}.candidates_evaluated"]
        layers[f"discovery.{algo}.eval_ratio"] = evaluated / layers[f"discovery.{algo}.candidates_total"]
    parts = medians(untraced)
    parts.update(end_to_end(untraced))
    layers["cli.glue_s"] = workload.glue_s(parts, medians(extras))
    plain, with_trace = end_to_end(untraced), end_to_end(traced)
    for name in END_TO_END:
        layers[f"trace.overhead.{name}"] = with_trace[name] - plain[name]
    return {name: layers[name] for name in PER_LAYER}


def merge(into: dict, samples: dict) -> None:
    for key, values in samples.items():
        into[key].extend(values)


def run_workload(cls, root: Path, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload; return (result line, full report)."""
    from tracing import NullTracer, Tracer
    from workloads import Ops

    out_dir = root / ".perfbench"
    workdir = out_dir / f"{cls.name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = Ops()
    untraced_tracer, tracer = NullTracer(), Tracer()
    workload = cls(root, workdir, seed, smoke, ops, untraced_tracer)
    untraced, traced, extras = (defaultdict(list) for _ in range(3))
    metrics: dict = {}
    sessions = 0
    try:
        workload.make_inputs()
        workload.load()

        # Start another session only while it is expected to end within
        # --seconds, after a minimum of three: on a shared host the machine's
        # speed switches between states for seconds at a time, and a median
        # of three or more samples follows the prevailing state where a mean
        # of two would not. Set-up probes are spread over the sessions too.
        minimum = 1 if trace else 3
        start, last = perf_counter(), 0.0
        while sessions < minimum or perf_counter() - start + last <= seconds:
            began = perf_counter()
            untraced["setup_s"] += [workload.setup_probe() for _ in range(SETUP_PROBES_PER_SESSION)]
            merge(untraced, workload.session())
            if trace:
                workload.tracer = tracer
                with tracer.span("session"):
                    traced["setup_s"] += [workload.setup_probe() for _ in range(SETUP_PROBES_PER_SESSION)]
                    merge(traced, workload.session())
                workload.tracer = untraced_tracer
            last = perf_counter() - began
            sessions += 1
        workload.final_checks()

        if trace:
            workload.tracer = tracer
            workload.layer_extras(extras, workload.last_dist)
            metrics = {
                name: {"value": value, "unit": PER_LAYER[name]}
                for name, value in per_layer(workload, untraced, traced, extras).items()
            }
        else:
            metrics = {
                name: {"value": value, "unit": END_TO_END[name]}
                for name, value in end_to_end(untraced).items()
            }
    except Exception:
        ops.check(False, "run", "aborted: " + traceback.format_exc())

    env = environment(root, seed)
    report = {
        "workload": cls.name,
        "environment": env,
        "smoke": smoke,
        "trace": trace,
        "seconds": seconds,
        "sessions": sessions,
        "sizes": workload.sizes() if hasattr(workload, "relation") else {},
        "attempted": ops.attempted,
        "failed": ops.failed,
        "ops_failed_ratio": ops.failed / max(1, ops.attempted),
        "checks": dict(ops.kinds),
        "failures": ops.failures,
        "metrics": metrics,
        "samples": {"untraced": dict(untraced), "traced": dict(traced), "extras": dict(extras)},
    }
    stem = out_dir / f"{cls.name}-seed{seed}-trace{int(trace)}"
    if trace:
        report["layer_self_s"] = tracer.layer_self_times()
        Path(f"{stem}-spans.json").write_text(
            json.dumps({"workload": cls.name, "environment": env, "spans": tracer.spans}) + "\n",
            encoding="utf-8",
        )
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ops.failed == 0 and bool(metrics),
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": metrics,
    }
    return result, report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"== {report['workload']}  seed={env['seed']}  commit={env['commit']}  "
        f"python={env['python']}  numpy={env['numpy']}  nproc={env['nproc']}  cpu={env['cpu']}"
    )
    print(f"   sizes: {json.dumps(report['sizes'])}  sessions: {report['sessions']}")
    for name, metric in report["metrics"].items():
        note = "  (n/a: the build made no similarity calls)" if (
            name.startswith("simkit.") and "calls_per_s" not in name
            and report["metrics"].get("simkit.calls", {}).get("value") == 0
        ) else ""
        print(f"   {name:44s} {metric['value']:.6g} {metric['unit']}{note}")
    for layer, seconds in sorted(report.get("layer_self_s", {}).items()):
        print(f"   layer self time {layer:27s} {seconds:.6g} s")
    print(
        f"   {'ops_failed_ratio':44s} {report['ops_failed_ratio']:.6g} ratio "
        f"({report['failed']} failed of {report['attempted']} attempted)"
    )
    for failure in report["failures"]:
        print(f"FAILED {report['workload']}: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, for testing the harness")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "mdd" / "__init__.py").is_file():
        print(f"error: no mdd package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mdd

    if Path(mdd.__file__).resolve().parent != (src / "mdd").resolve():
        print(f"error: imported mdd from {mdd.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    results = {}
    for name in names:
        result, report = run_workload(
            WORKLOADS[name], root, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        print_report(report)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
