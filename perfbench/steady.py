"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/steady.py --workloads pairs-lowcard,search-lattice --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --out perfbench/BENCH_baseline.json

Runs sequentially from the repository root, one process per (workload,
seed). For every end-to-end metric it prints the median of the per-run
values and the spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median), next to
the metric's bound from BENCHMARK.json. ``--out`` writes every run's values
and the summary as JSON, to serve as a BENCH_* record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import environment


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    runs, summary = [], {}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode, "result": result})
            if proc.returncode or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            for name, metric in result.get("metrics", {}).items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.5g}" for n, m in result.get("metrics", {}).items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, mid, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / median(vals)
            summary[f"{workload}/{name}"] = {
                "median": median(vals), "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "runs": len(vals),
            }
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:15s} {name:18s} median {median(vals):<12.6g} spread {spread:.4f}"
                  f"  bound {bounds[name]}{flag}")
    if args.out:
        record = {
            "environment": environment(root, seed=None),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
