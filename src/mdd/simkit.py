"""String similarity metrics and discretization into the level domain.

All metrics lowercase their inputs and operate on code-point sequences; no
further unicode normalization is applied, so results do not depend on locale.
Every metric returns a value in [0, 1], is symmetric, and maps identical
strings to 1.0. Two empty strings compare as 1.0 by convention.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .errors import SchemaMismatchError, ValidationError
from .model import AttributeId, LevelDomain

COSINE_WORD = "cosine-word"
COSINE_QGRAM = "cosine-qgram"
EDIT = "edit"


@dataclass(frozen=True)
class MetricKind:
    """Selector for one of the supported metrics."""

    kind: str
    q: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (COSINE_WORD, COSINE_QGRAM, EDIT):
            raise ValidationError(f"unknown metric kind {self.kind!r}")
        if self.kind == COSINE_QGRAM:
            if not isinstance(self.q, int) or self.q < 1:
                raise ValidationError("q-gram metric needs an integer q >= 1")
        elif self.q is not None:
            raise ValidationError(f"metric {self.kind} takes no q parameter")

    @classmethod
    def cosine_word_tokens(cls) -> "MetricKind":
        return cls(COSINE_WORD)

    @classmethod
    def cosine_qgrams(cls, q: int) -> "MetricKind":
        return cls(COSINE_QGRAM, q)

    @classmethod
    def normalized_edit_distance(cls) -> "MetricKind":
        return cls(EDIT)

    @classmethod
    def parse(cls, spec: str) -> "MetricKind":
        """Parse a CLI metric spec: cosine-word | cosine-qgram:<q> | edit."""
        spec = spec.strip().lower()
        if spec == COSINE_WORD:
            return cls.cosine_word_tokens()
        if spec == EDIT:
            return cls.normalized_edit_distance()
        if spec.startswith(COSINE_QGRAM):
            rest = spec[len(COSINE_QGRAM):]
            if rest.startswith(":"):
                try:
                    return cls.cosine_qgrams(int(rest[1:]))
                except ValueError:
                    raise ValidationError(f"bad q in metric spec {spec!r}") from None
            if rest == "":
                raise ValidationError("cosine-qgram needs a gram size, e.g. cosine-qgram:3")
        raise ValidationError(f"unknown metric spec {spec!r}")

    def spec(self) -> str:
        if self.kind == COSINE_QGRAM:
            return f"{COSINE_QGRAM}:{self.q}"
        return self.kind


MetricMap = Union[MetricKind, Mapping[AttributeId, MetricKind]]


def resolve_metrics(attrs: Sequence[AttributeId], metrics: MetricMap) -> tuple[MetricKind, ...]:
    """One metric per attribute: a single MetricKind applies to all of them,
    a mapping must name every one."""
    if isinstance(metrics, MetricKind):
        return (metrics,) * len(attrs)
    resolved = []
    for a in attrs:
        try:
            resolved.append(metrics[a])
        except KeyError:
            raise SchemaMismatchError(f"no metric configured for attribute {a.name}") from None
    return tuple(resolved)


def _word_tokens(s: str) -> Counter:
    tokens: Counter = Counter()
    current: list[str] = []
    for ch in s.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens["".join(current)] += 1
            current = []
    if current:
        tokens["".join(current)] += 1
    return tokens


def _qgrams(s: str, q: int) -> Counter:
    # No padding: strings shorter than q yield no grams.
    s = s.lower()
    return Counter(s[i : i + q] for i in range(len(s) - q + 1))


def _cosine(a: Counter, b: Counter) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(cnt * b[tok] for tok, cnt in a.items())
    if dot == 0:
        return 0.0
    sq = sum(c * c for c in a.values()) * sum(c * c for c in b.values())
    # Counts are integers, so the Cauchy-Schwarz equality case (the multisets
    # are scalar multiples of each other) is decidable exactly; sqrt rounding
    # must not pull an exact 1 below it.
    if dot * dot == sq:
        return 1.0
    return min(1.0, max(0.0, dot / math.sqrt(sq)))


def _levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def similarity(a: str, b: str, metric: MetricKind) -> float:
    """Similarity of two strings in [0, 1] under the selected metric."""
    if metric.kind == COSINE_WORD:
        return _cosine(_word_tokens(a), _word_tokens(b))
    if metric.kind == COSINE_QGRAM:
        return _cosine(_qgrams(a, metric.q), _qgrams(b, metric.q))
    a, b = a.lower(), b.lower()
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - _levenshtein(a, b) / longest


def discretize(sim: float, domain: LevelDomain) -> int:
    """Map a similarity in [0, 1] to a level via round-half-up of sim*(d-1).

    Monotone in sim, 0.0 maps to 0 and 1.0 maps to d-1.
    """
    if not 0.0 <= sim <= 1.0:
        raise ValidationError(f"similarity must lie in [0, 1], got {sim!r}")
    level = math.floor(sim * domain.max_level + 0.5)
    return min(domain.max_level, max(0, level))
