"""Command line front end.

Commands:
    mdd distribution   build and cache the pairwise statistical distribution
    mdd discover       run a discovery algorithm, emit a JSON result document
    mdd verify         cross-check an algorithm against the brute-force oracle

Exit codes: 0 success (an empty, "infeasible" result is still success),
2 validation error, 3 I/O error, 4 candidate budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .discovery import _request_rules, _Rules, run_request
from .errors import (
    CandidateBudgetError,
    DistributionIOError,
    MddError,
    SchemaMismatchError,
    ValidationError,
)
from .lattice import DEFAULT_CANDIDATE_BUDGET
from .model import (
    Algorithm,
    AttributeId,
    DiscoveryRequest,
    EvalCounters,
    LevelDomain,
    Relation,
    StatDistribution,
    ThresholdPattern,
    to_fraction,
)
from .oracle import _oracle_rules, oracle_measures
from .simkit import MetricKind, discretize
from . import distribution as dist_ops

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_BUDGET = 4

RESULT_SCHEMA = "mdd-result-v1"

VERIFY_MAX_ROWS = 200
VERIFY_MAX_CANDIDATES = 10_000


def _read_csv(path: str) -> Relation:
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: CSV file has no header row") from None
            rows = [tuple(row) for row in reader]
    except OSError as exc:
        raise DistributionIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ValidationError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None
    width = len(header)
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValidationError(f"{path}:{i}: row has {len(row)} cells, header has {width}")
    return Relation.from_rows(header, rows)


def _split_names(raw: str, flag: str) -> list[str]:
    names = [part.strip() for part in raw.split(",")]
    if any(not n for n in names):
        raise ValidationError(f"{flag} has an empty attribute name in {raw!r}")
    return names


def _resolve_attrs(relation_like, names: Sequence[str]) -> list[AttributeId]:
    return [relation_like.attribute(n) for n in names]


class _AttrView:
    """Name lookup over a distribution's attribute set, matching Relation's."""

    def __init__(self, dist: StatDistribution) -> None:
        self._dist = dist

    def attribute(self, name: str) -> AttributeId:
        for a in self._dist.attribute_set:
            if a.name == name:
                return a
        raise SchemaMismatchError(
            f"attribute {name!r} not in distribution cache "
            f"({', '.join(a.name for a in self._dist.attribute_set)})"
        )


def _parse_metric(args) -> MetricKind:
    spec = args.metric.strip().lower()
    if spec == "cosine-qgram":
        if args.qgram is None:
            raise ValidationError("cosine-qgram needs --qgram <q> or an inline size like cosine-qgram:3")
        return MetricKind.cosine_qgrams(args.qgram)
    metric = MetricKind.parse(spec)
    if args.qgram is not None and metric.kind != "cosine-qgram":
        raise ValidationError(f"--qgram does not apply to metric {metric.kind}")
    if args.qgram is not None and args.qgram != metric.q:
        raise ValidationError(f"--qgram {args.qgram} conflicts with metric {metric.spec()}")
    return metric


def _rhs_pattern_from_args(args, rhs_attrs, domain: LevelDomain) -> ThresholdPattern:
    if (args.rhs_thresholds is None) == (args.rhs_levels is None):
        raise ValidationError("give exactly one of --rhs-thresholds or --rhs-levels")
    if args.rhs_levels is not None:
        parts = args.rhs_levels.split(",")
        if len(parts) != len(rhs_attrs):
            raise ValidationError("--rhs-levels must list one level per rhs attribute")
        try:
            levels = [int(p) for p in parts]
        except ValueError:
            raise ValidationError(f"--rhs-levels must be integers, got {args.rhs_levels!r}") from None
        for level in levels:
            domain.check_level(level, "--rhs-levels entry")
    else:
        parts = args.rhs_thresholds.split(",")
        if len(parts) != len(rhs_attrs):
            raise ValidationError("--rhs-thresholds must list one similarity per rhs attribute")
        levels = []
        for p in parts:
            sim = to_fraction(p.strip(), "--rhs-thresholds entry")
            if not 0 <= sim <= 1:
                raise ValidationError(f"rhs similarity {p.strip()} outside [0, 1]")
            levels.append(discretize(float(sim), domain))
    return ThresholdPattern.over(tuple(rhs_attrs), levels)


def _load_inputs(args) -> tuple[StatDistribution, DiscoveryRequest]:
    """The request and its distribution, the latter either from a cache file
    or built in-process from CSV."""
    if (args.input is None) == (args.dist is None):
        raise ValidationError("give exactly one of --input (CSV) or --dist (cache file)")
    if args.dist is not None:
        dist = dist_ops.load_distribution(args.dist)
        request = _build_request(args, _AttrView(dist), dist.domain)
        wanted = request.lhs + request.rhs
        if wanted != dist.attribute_set:
            dist = dist_ops.project(dist, wanted)
        return dist, request
    relation = _read_csv(args.input)
    domain = LevelDomain(args.levels)
    request = _build_request(args, relation, domain)
    metric = _parse_metric(args)
    dist = dist_ops.build_distribution(
        relation, request.lhs + request.rhs, metric, domain, workers=args.threads
    )
    return dist, request


def _levels_doc(pattern: ThresholdPattern) -> dict:
    return {a.name: level for a, level in pattern.items()}


def _similarity_doc(pattern: ThresholdPattern, domain: LevelDomain) -> dict:
    return {a.name: level / domain.max_level for a, level in pattern.items()}


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DistributionIOError(f"cannot write {out}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise DistributionIOError(f"cannot write to standard output: {exc}") from exc


def _discard_stdout() -> None:
    """Point standard output's file descriptor at the null device, so that
    the interpreter's flush at exit cannot fail again on what the buffer
    still holds."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def cmd_distribution(args) -> int:
    relation = _read_csv(args.input)
    domain = LevelDomain(args.levels)
    attrs = _resolve_attrs(relation, _split_names(args.attrs, "--attrs"))
    metric = _parse_metric(args)
    dist = dist_ops.build_distribution(
        relation, tuple(attrs), metric, domain, workers=args.threads
    )
    dist_ops.save_distribution(dist, args.out)
    _emit(f"n={dist.n} pair_total={dist.pair_total} d={domain.d} out={args.out}\n", None)
    return EXIT_OK


def _build_request(args, names, domain: LevelDomain) -> DiscoveryRequest:
    """The request the flags describe; ``names`` resolves attribute names (a
    Relation, or an _AttrView over a distribution)."""
    lhs = _resolve_attrs(names, _split_names(args.lhs, "--lhs"))
    rhs = _resolve_attrs(names, _split_names(args.rhs, "--rhs"))
    rhs_pattern = _rhs_pattern_from_args(args, rhs, domain)
    return DiscoveryRequest.build(
        lhs,
        rhs,
        rhs_pattern,
        to_fraction(args.min_support, "--min-support"),
        to_fraction(args.min_confidence, "--min-confidence"),
        Algorithm.parse(args.algorithm),
        None if args.epsilon is None else to_fraction(args.epsilon, "--epsilon"),
    )


def _nested(value, indent: int) -> str:
    """``value`` as json.dumps(doc, sort_keys=True, indent=2) writes it at
    ``indent`` spaces into the document (a JSON string holds no raw newline)."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + " " * indent)


def _measures(nums: list[int], dens: list[int]) -> tuple[list[str], list[str]]:
    """repr(float(f)) and str(f) of each f = Fraction(num, den), num and den
    coprime, as the document writes a measure and its exact string. Python's
    int division is correctly rounded at any size, as float(Fraction) is."""
    floats = [repr(n / d) for n, d in zip(nums, dens)]
    exact = [f"{n}/{d}" if d != 1 else str(n) for n, d in zip(nums, dens)]
    return floats, exact


def _rule_entries(rules: _Rules, domain: LevelDomain) -> str:
    """The entries of the ``mds`` array, as json.dumps(doc, sort_keys=True,
    indent=2) writes them there. What every rule shares (its rhs, its mode)
    is written once, and each lhs dict is joined from one fragment per
    (attribute, level), its keys in name order as sort_keys puts them."""
    attrs = rules.attributes
    levels = rules.levels()

    def lhs_dicts(value) -> list[str]:
        joined = np.full(rules.cells.size, "", dtype=object)
        for i in sorted(range(len(attrs)), key=lambda i: attrs[i].name):
            key = json.dumps(attrs[i].name)
            # a zero level is no entry
            parts = [""] + [f",\n        {key}: {value(level)}" for level in range(1, domain.d)]
            joined += np.array(parts, dtype=object)[levels[i]]
        return ["{" + text[1:] + "\n      }" if text else "{}" for text in joined.tolist()]

    mode = {
        "kind": rules.mode.kind,
        "prefix_k": rules.mode.prefix_k,
        "epsilon": None if rules.mode.epsilon is None else str(rules.mode.epsilon),
    }
    support_terms, confidence_terms = rules.measures()
    support, support_exact = _measures(*support_terms)
    confidence, confidence_exact = _measures(*confidence_terms)
    fields = zip(
        repeat('    {\n      "confidence": '),
        confidence,
        repeat(',\n      "confidence_exact": "'),
        confidence_exact,
        repeat('",\n      "lhs_levels": '),
        lhs_dicts(str),
        repeat(',\n      "lhs_similarities": '),
        lhs_dicts(lambda level: repr(level / domain.max_level)),
        repeat(
            f',\n      "mode": {_nested(mode, 6)}'
            f',\n      "rhs_levels": {_nested(_levels_doc(rules.rhs_pattern), 6)}'
            f',\n      "rhs_similarities": {_nested(_similarity_doc(rules.rhs_pattern, domain), 6)}'
            ',\n      "support": '
        ),
        support,
        repeat(',\n      "support_exact": "'),
        support_exact,
        repeat('"\n    }'),
    )
    return ",\n".join(map("".join, fields))


def _result_text(request: DiscoveryRequest, dist: StatDistribution, rules: _Rules) -> str:
    """The mdd-result-v1 document, byte for byte as json.dumps(doc,
    sort_keys=True, indent=2) + "\n" writes it. The header goes through
    json.dumps with an empty ``mds`` array, and the rules are spliced in."""
    domain = dist.domain
    counters = rules.counters
    header = {
        "schema": RESULT_SCHEMA,
        "status": "ok" if rules.cells.size else "infeasible",
        "request": {
            "lhs": [a.name for a in request.lhs],
            "rhs": [a.name for a in request.rhs],
            "rhs_levels": _levels_doc(request.rhs_pattern),
            "rhs_similarities": _similarity_doc(request.rhs_pattern, domain),
            "min_support": str(request.min_support),
            "min_confidence": str(request.min_confidence),
            "epsilon": None if request.epsilon is None else str(request.epsilon),
            "algorithm": request.algorithm.value,
            "levels": domain.d,
        },
        "distribution": {
            "n": dist.n,
            "pair_total": dist.pair_total,
            "d": domain.d,
            "fingerprint": dist.fingerprint,
        },
        "mode": "approximate" if request.algorithm.is_approximate else "exact",
        "mds": [],
        "counters": {
            "records_evaluated": counters.records_evaluated,
            "candidates_evaluated": counters.candidates_evaluated,
            "candidates_pruned_support": counters.candidates_pruned_support,
            "candidates_pruned_confidence": counters.candidates_pruned_confidence,
            "candidates_total": counters.candidates_total,
        },
    }
    text = json.dumps(header, sort_keys=True, indent=2)
    if rules.cells.size:
        # the top-level keys before "mds" hold numbers and one-line strings
        head, _, tail = text.partition('\n  "mds": []')
        text = head + '\n  "mds": [\n' + _rule_entries(rules, domain) + "\n  ]" + tail
    return text + "\n"


def cmd_discover(args) -> int:
    dist, request = _load_inputs(args)
    rules = _request_rules(
        dist, request, candidate_budget=args.candidate_budget, counters=EvalCounters()
    )
    _emit(_result_text(request, dist, rules), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    relation = _read_csv(args.input)
    if relation.tuple_count > VERIFY_MAX_ROWS:
        raise ValidationError(
            f"verify is capped at {VERIFY_MAX_ROWS} rows (got {relation.tuple_count}); "
            "it recomputes every pair from scratch"
        )
    domain = LevelDomain(args.levels)
    request = _build_request(args, relation, domain)
    lhs, rhs, rhs_pattern = request.lhs, request.rhs, request.rhs_pattern
    if domain.d ** len(lhs) > VERIFY_MAX_CANDIDATES:
        raise CandidateBudgetError(
            f"verify is capped at {VERIFY_MAX_CANDIDATES} candidates; reduce --levels or --lhs"
        )
    metric = _parse_metric(args)
    if request.algorithm.is_approximate:
        raise ValidationError(
            "verify compares exact measures; use an exact algorithm (ea, eps, epsc)"
        )

    dist = dist_ops.build_distribution(
        relation, tuple(lhs + rhs), metric, domain, workers=args.threads
    )
    engine = run_request(dist, request, candidate_budget=args.candidate_budget)
    truth = _oracle_rules(
        relation, lhs, rhs, rhs_pattern,
        request.min_support, request.min_confidence, metric, domain,
        candidate_cap=VERIFY_MAX_CANDIDATES,
    )
    if [(md.lhs_pattern, md.support, md.confidence) for md in engine] == truth:
        _emit(f"AGREEMENT: {len(engine)} rule(s), measures identical\n", None)
        return EXIT_OK

    oracle = {pattern: (sup, conf) for pattern, sup, conf in truth}
    engine_patterns = [md.lhs_pattern for md in engine]
    if engine_patterns != list(oracle):
        # the first pattern only the engine returned, else the first only the
        # oracle did; the oracle's pass measured the patterns it accepted
        sample = next(p for p in engine_patterns + list(oracle) if (p in oracle) != (p in engine_patterns))
        sup, conf = oracle[sample] if sample in oracle else oracle_measures(
            relation, lhs, rhs, sample, rhs_pattern, metric, domain
        )
        engine_md = next((m for m in engine if m.lhs_pattern == sample), None)
        lines = [
            "DISAGREEMENT",
            f"  pattern: {{{', '.join(f'{a.name}>={l}' for a, l in sample.items())}}}",
            f"  oracle: support={float(sup):.12g} confidence={float(conf):.12g}",
            f"  engine: support={float(engine_md.support):.12g} "
            f"confidence={float(engine_md.confidence):.12g}"
            if engine_md
            else "  engine: pattern not returned",
        ]
    else:
        md = next(md for md in engine if (md.support, md.confidence) != oracle[md.lhs_pattern])
        sup, conf = oracle[md.lhs_pattern]
        lines = [
            "DISAGREEMENT on measures",
            f"  pattern: {{{', '.join(f'{a.name}>={l}' for a, l in md.lhs_pattern.items())}}}",
            f"  oracle: support={float(sup):.12g} confidence={float(conf):.12g}",
            f"  engine: support={float(md.support):.12g} confidence={float(md.confidence):.12g}",
        ]
    _emit("\n".join(lines) + "\n", None)
    return 1


def _add_common_discovery_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lhs", required=True, help="comma-separated lhs attribute names")
    p.add_argument("--rhs", required=True, help="comma-separated rhs attribute names")
    p.add_argument("--rhs-thresholds", help="rhs similarities in [0,1], comma-separated")
    p.add_argument("--rhs-levels", help="rhs levels in 0..d-1, comma-separated")
    p.add_argument("--min-support", required=True, help="minimum support in (0,1]")
    p.add_argument("--min-confidence", required=True, help="minimum confidence in (0,1]")
    p.add_argument("--epsilon", help="relative error bound for approximate algorithms")
    p.add_argument(
        "--algorithm",
        default="epsc",
        help="ea | eps | epsc | ap | api | aps | apsi (default epsc)",
    )
    p.add_argument(
        "--candidate-budget",
        type=int,
        default=DEFAULT_CANDIDATE_BUDGET,
        help=(
            f"cap on d^|lhs| candidates (default {DEFAULT_CANDIDATE_BUDGET}); the "
            "exact and prefix engines take 16 bytes per candidate for their count cubes"
        ),
    )


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metric",
        default="cosine-word",
        help="cosine-word | cosine-qgram:<q> | edit (default cosine-word)",
    )
    p.add_argument("--qgram", type=int, help="gram size when --metric cosine-qgram")
    p.add_argument("--levels", type=int, default=10, help="level domain size d (default 10)")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="ignored, but must be >= 1: the build runs in one process (kept for compatibility)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdd",
        description="Discover similarity-threshold matching rules with support and confidence minimums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("distribution", help="build and cache the statistical distribution")
    p_dist.add_argument("--input", required=True, help="CSV file with a header row")
    p_dist.add_argument("--attrs", required=True, help="comma-separated attribute names")
    p_dist.add_argument("--out", required=True, help="cache file to write")
    _add_metric_flags(p_dist)
    p_dist.set_defaults(func=cmd_distribution)

    p_disc = sub.add_parser("discover", help="run a discovery algorithm")
    p_disc.add_argument("--input", help="CSV file (distribution built in-process)")
    p_disc.add_argument("--dist", help="distribution cache file from 'mdd distribution'")
    p_disc.add_argument("--out", help="write the JSON document here instead of stdout")
    _add_metric_flags(p_disc)
    _add_common_discovery_flags(p_disc)
    p_disc.set_defaults(func=cmd_discover)

    p_ver = sub.add_parser("verify", help="cross-check an algorithm against the brute-force oracle")
    p_ver.add_argument("--input", required=True, help="CSV file (desk scale)")
    _add_metric_flags(p_ver)
    _add_common_discovery_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:  # every command takes --threads
            raise ValidationError("workers must be >= 1")
        return args.func(args)
    except CandidateBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DistributionIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MddError as exc:  # ValidationError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
