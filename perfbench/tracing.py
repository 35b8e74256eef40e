"""Tracing used only by ``--trace 1`` runs.

Spans are recorded from the benchmark's own files around each public call it
makes into ``mdd``; nothing inside the package is patched except, for the
length of one traced build, the ``similarity`` name that
``mdd.distribution`` calls. Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from mdd import CandidateLattice


class NullTracer:
    """Tracing off: spans cost one ``nullcontext``."""

    enabled = False

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})


class Tracer:
    """Spans as dicts: id, name, parent id, start, end (perf_counter seconds)
    and optional attributes. ``inner`` maps a layer name to time this span
    spent in that layer as measured by a counting wrapper rather than by a
    child span (simkit inside a build, lattice inside an engine)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer (the span name's first dotted part): each span's
        duration minus its children's, with ``inner`` time moved from the
        span's layer to the layer it names."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += s["end"] - s["start"] - child_time[s["id"]]
            for other, seconds in s.get("inner", {}).items():
                out[layer] -= seconds
                out[other] += seconds
        return dict(out)


@dataclass
class SimilarityStats:
    calls: int = 0
    seconds: float = 0.0


@contextlib.contextmanager
def counting_similarity(stats: SimilarityStats):
    """Count and time every ``similarity`` call the in-process build makes.
    Yields False, and counts nothing, if ``mdd.distribution`` no longer looks
    the name up."""
    import mdd.distribution as dist_mod

    original = getattr(dist_mod, "similarity", None)
    if original is None:
        yield False
        return

    def similarity(a, b, metric):
        start = perf_counter()
        try:
            return original(a, b, metric)
        finally:
            stats.calls += 1
            stats.seconds += perf_counter() - start

    dist_mod.similarity = similarity
    try:
        yield True
    finally:
        dist_mod.similarity = original


@dataclass
class LatticeStats:
    is_pruned_calls: int = 0
    is_pruned_s: float = 0.0
    failures_recorded: int = 0
    busy_s: float = 0.0  # all time spent inside lattice methods


class TracedLattice(CandidateLattice):
    """A CandidateLattice that counts and times its own methods; passed to
    the public engines in place of the one ``run_request`` would make."""

    def __init__(self, attributes, domain, stats: LatticeStats) -> None:
        super().__init__(attributes, domain)
        self.stats = stats
        self._depth = 0

    @contextlib.contextmanager
    def _busy(self):
        start = perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.stats.busy_s += perf_counter() - start

    def is_pruned(self, levels):
        start = perf_counter()
        with self._busy():
            pruned = super().is_pruned(levels)
        self.stats.is_pruned_calls += 1
        self.stats.is_pruned_s += perf_counter() - start
        return pruned

    def record_failure(self, levels):
        self.stats.failures_recorded += 1
        with self._busy():
            super().record_failure(levels)

    def iter_levels(self, *, skip_pruned: bool = False):
        inner = super().iter_levels(skip_pruned=skip_pruned)
        while True:
            with self._busy():
                levels = next(inner, None)
            if levels is None:
                return
            yield levels
