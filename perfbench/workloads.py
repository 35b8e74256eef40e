"""The benchmark's workloads: seeded inputs, one measured session, and the
correctness checks.

A session is what a user of the workload does once: build the distribution
(or use the loaded cache), run the exact and the approximate query set, and
run the workload's ``python -m mdd`` command in a fresh process. Untraced
sessions feed the end-to-end metrics; traced sessions, run only with
``--trace 1``, feed the per-layer metrics.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import mdd
import mdd.discovery as engines
from mdd import (
    DiscoveryRequest,
    EvalCounters,
    LevelDomain,
    MetricKind,
    Relation,
    StatDistribution,
    ThresholdPattern,
)

import gen
from tracing import LatticeStats, SimilarityStats, TracedLattice, counting_similarity

EPSILON = Fraction(1, 2)
APPROX_SAMPLE = 200
ORACLE_ROWS = 150
PROCESS_TIMEOUT_S = 150
KERNEL_METRICS = ("edit", "cosine-word", "cosine-qgram:3")
EXACT_QUERIES = ("eps", "epsc", "ea.proj", "eps.proj")
APPROX_QUERIES = ("ap.proj", "apsi")
RESULT_KEYS = ("lhs_levels", "rhs_levels", "support_exact", "confidence_exact", "mode")


class Ops:
    """Operations attempted and failed, counted by kind; every failure keeps
    a message."""

    def __init__(self) -> None:
        self.kinds: Counter = Counter()
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, kind: str, detail: str = "") -> bool:
        self.kinds[kind] += 1
        if not ok:
            self.failures.append(f"{kind}: {detail}" if detail else kind)
        return ok


def run_process(argv, root: Path, log: Path) -> tuple[float, int, int]:
    """Run one fresh process with ``src`` on its path; return wall seconds,
    exit code and peak RSS in KiB (from ``os.wait4``). A process still running
    after PROCESS_TIMEOUT_S is killed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def read_relation(path: Path) -> Relation:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return Relation.from_rows(header, reader)


def rule_keys(mds) -> list:
    return [(md.lhs_pattern, md.support, md.confidence) for md in mds]


def result_doc_rules(mds) -> list[dict]:
    """The ``mds`` fields of an ``mdd-result-v1`` document that identify a
    rule and its exact measures, built from in-process results."""
    return [
        {
            "lhs_levels": {a.name: level for a, level in md.lhs_pattern.items()},
            "rhs_levels": {a.name: level for a, level in md.rhs_pattern.items()},
            "support_exact": str(md.support),
            "confidence_exact": str(md.confidence),
            "mode": {
                "kind": md.mode.kind,
                "prefix_k": md.mode.prefix_k,
                "epsilon": None if md.mode.epsilon is None else str(md.mode.epsilon),
            },
        }
        for md in mds
    ]


def exact_counts(dist: StatDistribution, lhs: ThresholdPattern, rhs: ThresholdPattern):
    """Joint and lhs pair counts of one rule over the full distribution,
    computed here from the level arrays."""
    def mask(pattern):
        keep = np.ones(dist.n, dtype=bool)
        for attr, level in pattern.items():
            keep &= dist.levels[:, dist.attribute_set.index(attr)] >= level
        return keep

    lhs_mask = mask(lhs)
    return int(dist.counts[lhs_mask & mask(rhs)].sum()), int(dist.counts[lhs_mask].sum())


class Workload:
    """Shared session logic. Subclasses say what the inputs are, how the
    query distribution is obtained and which command the CLI runs."""

    name = ""
    lhs_names: tuple[str, ...] = ()
    rhs_names: tuple[str, ...] = ()
    rhs_level = 0
    min_support = Fraction(1)
    approx_min_support = Fraction(1)
    min_confidence = Fraction(1, 4)
    query_reps = 1
    build_reps = 1
    setup_kind = "csv"

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool, ops: Ops, tracer) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke
        self.ops = ops
        self.tracer = tracer
        self.domain = LevelDomain(10)
        self.last_dist: StatDistribution | None = None

    # -- inputs ---------------------------------------------------------

    def make_inputs(self) -> None:
        """Write the seeded input files into the work directory."""
        raise NotImplementedError

    def load(self) -> None:
        """Load, in this process, what a fresh process loads during set-up."""
        raise NotImplementedError

    @property
    def setup_path(self) -> Path:
        raise NotImplementedError

    def build_metrics(self):
        raise NotImplementedError

    def query_dist(self, built: StatDistribution) -> StatDistribution:
        return built

    def sizes(self) -> dict:
        return {
            "rows": self.relation.tuple_count,
            "pair_total": self.relation.tuple_count * (self.relation.tuple_count - 1) // 2,
            "distinct_per_column": [len(set(self.relation.column(a))) for a in self.relation.schema],
        }

    # -- timed parts ----------------------------------------------------

    def setup_probe(self) -> float:
        probe = self.root / "perfbench" / "setup_probe.py"
        argv = [sys.executable, str(probe), self.setup_kind, str(self.setup_path)]
        with self.tracer.span("setup.probe"):
            seconds, code, _ = run_process(argv, self.root, self.workdir / "probe.log")
        self.ops.check(code == 0, "setup probe", f"exit {code}")
        return seconds

    def build(self, layers: dict | None = None, workers: int = 1) -> tuple[StatDistribution, float]:
        """Build the distribution; with ``layers`` given, trace the build and
        append its per-layer figures there."""
        attrs = self.relation.schema
        metrics = self.build_metrics()
        if layers is None:
            start = perf_counter()
            dist = mdd.build_distribution(self.relation, attrs, metrics, self.domain, workers=workers)
            return dist, perf_counter() - start
        stats = SimilarityStats()
        with counting_similarity(stats) as counted:
            with self.tracer.span("distribution.build_distribution") as span:
                dist = mdd.build_distribution(self.relation, attrs, metrics, self.domain)
            span["inner"] = {"simkit": stats.seconds}
        seconds = span["end"] - span["start"]
        layers["distribution.build_s"].append(seconds)
        layers["distribution.self_s"].append(seconds - stats.seconds)
        layers["distribution.records"].append(dist.n)
        layers["simkit.calls"].append(stats.calls)
        layers["simkit.self_s"].append(stats.seconds)
        layers["simkit.share"].append(stats.seconds / seconds if counted and stats.calls else 0.0)
        return dist, seconds

    def requests(self, dist: StatDistribution):
        attr = {a.name: a for a in dist.attribute_set}
        lhs = tuple(attr[n] for n in self.lhs_names)
        rhs = tuple(attr[n] for n in self.rhs_names)
        rhs_pattern = ThresholdPattern.over(rhs, [self.rhs_level] * len(rhs))
        proj_lhs = lhs[: max(1, len(lhs) - 2)]

        def request(lhs_attrs, algorithm, support, epsilon=None):
            return DiscoveryRequest.build(
                lhs_attrs, rhs, rhs_pattern, support, self.min_confidence, algorithm, epsilon
            )

        return proj_lhs + rhs, {
            "eps": request(lhs, "eps", self.min_support),
            "epsc": request(lhs, "epsc", self.min_support),
            "ea.proj": request(proj_lhs, "ea", self.min_support),
            "eps.proj": request(proj_lhs, "eps", self.min_support),
            "ap.proj": request(proj_lhs, "ap", self.approx_min_support, EPSILON),
            "apsi": request(lhs, "apsi", self.approx_min_support, EPSILON),
        }

    def run_query(self, dist, request, layers: dict):
        counters = EvalCounters()
        if not self.tracer.enabled:
            start = perf_counter()
            mds = mdd.run_request(dist, request, counters=counters)
            return mds, counters, perf_counter() - start
        algo = request.algorithm.value
        stats = LatticeStats()
        with self.tracer.span(f"search.{algo}") as outer:
            if algo == "epsc":
                with self.tracer.span("distribution.group_by_rhs") as span:
                    prepared, _ = mdd.group_by_rhs(dist, request.rhs_pattern)
                layers["distribution.group_by_rhs_s"].append(span["end"] - span["start"])
            elif request.algorithm.is_approximate:
                with self.tracer.span("distribution.sort_by_probability_desc") as span:
                    prepared = mdd.sort_by_probability_desc(dist)
                layers["distribution.sort_by_probability_s"].append(span["end"] - span["start"])
            else:
                prepared = dist
            lattice = TracedLattice(request.lhs, dist.domain, stats)
            args = [prepared, lattice, request.rhs_pattern, request.min_support, request.min_confidence]
            if request.algorithm.is_approximate:
                args.append(request.epsilon)
            with self.tracer.span(f"discovery.{algo}") as span:
                mds = getattr(engines, algo)(*args, counters=counters)
            span["inner"] = {"lattice": stats.busy_s}
        engine_s = span["end"] - span["start"]
        sums = layers["query_sums"]
        sums[f"discovery.{algo}.s"] += engine_s
        sums[f"discovery.{algo}.self_s"] += engine_s - stats.busy_s
        for key, value in dataclasses.asdict(counters).items():
            sums[f"discovery.{algo}.{key}"] += value
        sums[f"discovery.{algo}.rules"] += len(mds)
        sums["lattice.is_pruned_calls"] += stats.is_pruned_calls
        sums["lattice.is_pruned_s"] += stats.is_pruned_s
        sums["lattice.failures_recorded"] += stats.failures_recorded
        if request.algorithm.is_approximate:
            bound = engines.compute_prefix_k(
                prepared, request.epsilon, request.min_support, request.min_confidence
            )
            layers[f"discovery.{algo}.prefix_k"].append(bound.prefix_k)
            layers[f"discovery.{algo}.prefix_ratio"].append(bound.prefix_k / prepared.n)
        return mds, counters, outer["end"] - outer["start"]

    def session(self) -> dict:
        """One measured session; returns lists of samples by name."""
        samples: dict = defaultdict(list)
        samples["query_sums"] = defaultdict(float)
        built = None
        build_times = []
        n = self.relation.tuple_count
        for _ in range(self.build_reps):
            built, seconds = self.build(samples if self.tracer.enabled else None)
            build_times.append(seconds)
            self.ops.check(built.pair_total == n * (n - 1) // 2, "build", "wrong pair_total")
        samples["build_s"].append(median(build_times))
        samples["build_pairs"].append(built.pair_total)
        dist = self.query_dist(built)
        self.last_dist = dist

        for _ in range(self.query_reps):
            results = {}
            times = defaultdict(float)
            proj_attrs, requests = self.requests(dist)
            with self.tracer.span("distribution.project") as span:
                start = perf_counter()
                projected = mdd.project(dist, proj_attrs)
                times["ea.proj"] += perf_counter() - start
            if self.tracer.enabled:
                samples["distribution.project_s"].append(span["end"] - span["start"])
            for label in EXACT_QUERIES + APPROX_QUERIES:
                target = projected if label.endswith(".proj") else dist
                mds, counters, seconds = self.run_query(target, requests[label], samples)
                results[label] = (mds, counters)
                times[label] += seconds
                self.ops.check(True, "query")
            samples["exact_s"].append(sum(times[q] for q in EXACT_QUERIES))
            samples["approx_s"].append(sum(times[q] for q in APPROX_QUERIES))
            for label, seconds in times.items():
                samples[f"query_s.{label}"].append(seconds)
        sums = samples.pop("query_sums")
        for key, total in sums.items():
            samples[key].append(total / self.query_reps)

        with self.tracer.span("check"):
            self.check_results(dist, results, requests)
            self.check_round_trip(dist, "query distribution")
        self.run_cli(samples, results)
        return samples

    # -- checks ---------------------------------------------------------

    def check_results(self, dist, results, requests) -> None:
        self.ops.check(
            rule_keys(results["eps"][0]) == rule_keys(results["epsc"][0]),
            "eps equals epsc",
        )
        self.ops.check(
            rule_keys(results["ea.proj"][0]) == rule_keys(results["eps.proj"][0]),
            "ea equals eps on the projection",
        )
        rng = random.Random(self.seed)
        for label in APPROX_QUERIES:
            mds = results[label][0]
            for md in rng.sample(mds, min(APPROX_SAMPLE, len(mds))):
                joint, lhs = exact_counts(dist, md.lhs_pattern, md.rhs_pattern)
                ok = joint > 0 and lhs > 0
                if ok:
                    support = Fraction(joint, dist.pair_total)
                    confidence = Fraction(joint, lhs)
                    ok = (
                        abs(confidence - md.confidence) <= EPSILON * confidence
                        and support - md.support <= EPSILON * support
                    )
                self.ops.check(ok, "approximate rule within epsilon", f"{label} {md.lhs_pattern}")

    def check_round_trip(self, dist: StatDistribution, what: str, first: Path | None = None) -> None:
        """save -> load -> save must reproduce the first file byte for byte."""
        if first is None:
            first = self.workdir / "round_trip_a.dist"
            mdd.save_distribution(dist, first)
        second = self.workdir / "round_trip_b.dist"
        mdd.save_distribution(mdd.load_distribution(first), second)
        self.ops.check(first.read_bytes() == second.read_bytes(), "cache round trip", what)

    def cli_argv(self) -> list[str]:
        raise NotImplementedError

    def run_cli(self, samples: dict, results: dict) -> None:
        argv = [sys.executable, "-m", "mdd", *self.cli_argv()]
        with self.tracer.span(f"cli.{argv[3]}"):
            seconds, code, rss_kib = run_process(argv, self.root, self.workdir / "cli.log")
        samples["cli_s"].append(seconds)
        samples["rss_mb"].append(rss_kib / 1024)
        if self.ops.check(code == 0, "CLI exit", f"{code}: {' '.join(argv[3:])}"):
            self.check_cli_output(results)

    def check_cli_output(self, results: dict) -> None:
        """The CLI document equals the in-process result of the same query."""
        mds, counters = results[self.cli_query]
        doc = json.loads((self.workdir / "cli.json").read_text(encoding="utf-8"))
        self.ops.check(
            doc["schema"] == "mdd-result-v1"
            and [{k: md[k] for k in RESULT_KEYS} for md in doc["mds"]] == result_doc_rules(mds)
            and doc["counters"] == dataclasses.asdict(counters),
            "CLI document equals in-process result",
        )

    def final_checks(self) -> None:
        """Once per run: on the first rows of the relation, the brute-force
        oracle and run_request find the same rules."""
        rows = min(ORACLE_ROWS, self.relation.tuple_count)
        head = Relation(self.relation.schema, self.relation.rows[:rows])
        metrics = self.build_metrics()
        dist = mdd.build_distribution(head, head.schema, metrics, self.domain)
        _, requests = self.requests(dist)
        request = requests["eps"]
        got = [md.lhs_pattern for md in mdd.run_request(dist, request)]
        want = mdd.oracle_discover(
            head, request.lhs, request.rhs, request.rhs_pattern,
            request.min_support, request.min_confidence, metrics, self.domain,
        )
        self.ops.check(got == want, "oracle equals run_request", f"{rows} rows")

    # -- traced-only extras --------------------------------------------

    def layer_extras(self, layers: dict, dist: StatDistribution) -> None:
        """Per-layer measurements made once per traced run."""
        _, seconds = self.build(workers=2)
        layers["distribution.workers2_s"].append(seconds)

        values = sorted({v for a in self.relation.schema for v in self.relation.column(a)})
        rng = random.Random(self.seed)
        pairs = [tuple(rng.sample(values, 2)) for _ in range(100 if self.smoke else 1500)]
        for spec in KERNEL_METRICS:
            metric = MetricKind.parse(spec)
            with self.tracer.span(f"simkit.kernel.{spec}") as span:
                for a, b in pairs:
                    mdd.similarity(a, b, metric)
            name = spec.replace(":", "-")
            layers[f"simkit.{name}.calls_per_s"].append(len(pairs) / (span["end"] - span["start"]))

        path = self.workdir / "layer.dist"
        with self.tracer.span("distribution.save_distribution") as span:
            mdd.save_distribution(dist, path)
        layers["distribution.save_s"].append(span["end"] - span["start"])
        layers["distribution.cache_bytes"].append(path.stat().st_size)
        with self.tracer.span("distribution.load_distribution") as span:
            loaded = mdd.load_distribution(path)
        layers["distribution.load_s"].append(span["end"] - span["start"])

        for _ in range(3):
            with self.tracer.span("model.StatDistribution") as span:
                StatDistribution(
                    loaded.attribute_set, loaded.domain, loaded.levels, loaded.counts,
                    loaded.pair_total, loaded.fingerprint, loaded.metric_specs,
                )
            layers["model.stat_distribution_init_s"].append(span["end"] - span["start"])

        lhs = tuple(a for a in dist.attribute_set if a.name in self.lhs_names)
        with self.tracer.span("lattice.iter_levels") as span:
            for _ in mdd.CandidateLattice(lhs, dist.domain).iter_levels():
                pass
        layers["lattice.iter_s"].append(span["end"] - span["start"])

    def glue_s(self, e2e: dict, extras: dict) -> float:
        """CLI wall time not explained by set-up, build and search."""
        raise NotImplementedError


class PairsLowcard(Workload):
    name = "pairs-lowcard"
    lhs_names = ("A0", "A1")
    rhs_names = ("A2",)
    rhs_level = 5
    min_support = Fraction(1, 100)
    approx_min_support = Fraction(1, 100)
    min_confidence = Fraction(1, 25)
    query_reps = 30
    cli_query = "epsc"

    def make_inputs(self) -> None:
        rows = gen.lowcard_rows(random.Random(self.seed), 80 if self.smoke else 2000)
        self.csv_path = self.workdir / "lowcard.csv"
        gen.write_csv(self.csv_path, ["A0", "A1", "A2"], rows)

    @property
    def setup_path(self) -> Path:
        return self.csv_path

    def load(self) -> None:
        self.relation = read_relation(self.csv_path)

    def build_metrics(self):
        return MetricKind.parse("cosine-word")

    def cli_argv(self) -> list[str]:
        return [
            "discover", "--input", str(self.csv_path), "--lhs", ",".join(self.lhs_names),
            "--rhs", ",".join(self.rhs_names), "--rhs-levels", str(self.rhs_level),
            "--min-support", str(self.min_support), "--min-confidence", str(self.min_confidence),
            "--algorithm", self.cli_query, "--metric", "cosine-word", "--levels", "10",
            "--out", str(self.workdir / "cli.json"),
        ]

    def glue_s(self, e2e: dict, extras: dict) -> float:
        return e2e["cli_s"] - e2e["setup_s"] - e2e["build_s"] - e2e["query_s.epsc"]


class PairsHighcard(Workload):
    name = "pairs-highcard"
    lhs_names = ("Name", "Street")
    rhs_names = ("City",)
    rhs_level = 7
    min_support = Fraction(1, 20000)
    approx_min_support = Fraction(1, 20000)
    min_confidence = Fraction(1, 4)
    query_reps = 30

    def make_inputs(self) -> None:
        rows = gen.highcard_rows(random.Random(self.seed), 40 if self.smoke else 420)
        self.csv_path = self.workdir / "highcard.csv"
        gen.write_csv(self.csv_path, ["Name", "Street", "City"], rows)

    @property
    def setup_path(self) -> Path:
        return self.csv_path

    def load(self) -> None:
        self.relation = read_relation(self.csv_path)

    def build_metrics(self):
        name, street, city = self.relation.schema
        return {
            name: MetricKind.parse("edit"),
            street: MetricKind.parse("cosine-word"),
            city: MetricKind.parse("cosine-qgram:3"),
        }

    def cli_argv(self) -> list[str]:
        return [
            "distribution", "--input", str(self.csv_path), "--attrs", "Name,Street,City",
            "--metric", "cosine-qgram:3", "--levels", "10",
            "--out", str(self.workdir / "cli.dist"),
        ]

    def check_cli_output(self, results: dict) -> None:
        cache = self.workdir / "cli.dist"
        n = self.relation.tuple_count
        loaded = mdd.load_distribution(cache)
        self.ops.check(
            loaded.pair_total == n * (n - 1) // 2
            and [a.name for a in loaded.attribute_set] == ["Name", "Street", "City"],
            "CLI cache header",
        )
        self.check_round_trip(loaded, "the CLI cache", first=cache)

    def layer_extras(self, layers: dict, dist: StatDistribution) -> None:
        super().layer_extras(layers, dist)
        # The in-process equivalent of the CLI command, for cli.glue_s, and a
        # check that the CLI wrote the same distribution.
        start = perf_counter()
        qgram = mdd.build_distribution(
            self.relation, self.relation.schema, MetricKind.parse("cosine-qgram:3"), self.domain
        )
        layers["cli_equivalent.build_s"].append(perf_counter() - start)
        start = perf_counter()
        mdd.save_distribution(qgram, self.workdir / "qgram.dist")
        layers["cli_equivalent.save_s"].append(perf_counter() - start)
        self.ops.check(
            mdd.load_distribution(self.workdir / "cli.dist") == qgram,
            "CLI cache equals in-process build",
        )

    def glue_s(self, e2e: dict, extras: dict) -> float:
        return (
            e2e["cli_s"] - e2e["setup_s"]
            - extras["cli_equivalent.build_s"] - extras["cli_equivalent.save_s"]
        )


class SearchLattice(Workload):
    name = "search-lattice"
    lhs_names = ("L0", "L1", "L2", "L3", "L4")
    rhs_names = ("R",)
    min_support = Fraction(1, 25)
    approx_min_support = Fraction(1, 20)
    min_confidence = Fraction(1, 4)
    build_reps = 4
    setup_kind = "cache"
    cli_query = "eps"
    reliabilities = (0.95, 0.9, 0.8, 0.7, 0.6)

    def make_inputs(self) -> None:
        d = 4 if self.smoke else 10
        self.rhs_level = d - 2
        levels, counts = gen.planted_match_levels(
            np.random.default_rng(self.seed),
            20_000 if self.smoke else 3_000_000,
            self.reliabilities,
            d,
            match_share=0.08,
            zero_share=0.82,
        )
        self.cache_path = self.workdir / "lattice.dist"
        gen.write_cache(self.cache_path, [*self.lhs_names, *self.rhs_names], d, levels, counts)
        self.build_rows = gen.lowcard_rows(random.Random(self.seed), 30 if self.smoke else 400)

    @property
    def setup_path(self) -> Path:
        return self.cache_path

    def load(self) -> None:
        self.dist = mdd.load_distribution(self.cache_path)
        # The small build only keeps build_pairs_per_s defined here.
        self.relation = Relation.from_rows(["A0", "A1", "A2"], self.build_rows)

    def build_metrics(self):
        return MetricKind.parse("cosine-word")

    def query_dist(self, built: StatDistribution) -> StatDistribution:
        return self.dist

    def sizes(self) -> dict:
        sizes = super().sizes()
        sizes.update(records=self.dist.n, cache_pairs=self.dist.pair_total,
                     candidates=self.dist.domain.d ** len(self.lhs_names))
        return sizes

    def cli_argv(self) -> list[str]:
        return [
            "discover", "--dist", str(self.cache_path), "--lhs", ",".join(self.lhs_names),
            "--rhs", ",".join(self.rhs_names), "--rhs-levels", str(self.rhs_level),
            "--min-support", str(self.min_support), "--min-confidence", str(self.min_confidence),
            "--algorithm", self.cli_query, "--out", str(self.workdir / "cli.json"),
        ]

    def final_checks(self) -> None:
        """The search input is a synthetic cache with no relation behind it
        for the oracle; its outputs are checked in every session."""

    def glue_s(self, e2e: dict, extras: dict) -> float:
        return e2e["cli_s"] - e2e["setup_s"] - e2e["query_s.eps"]


WORKLOADS = {w.name: w for w in (PairsLowcard, PairsHighcard, SearchLattice)}
