"""String similarity metrics and discretization into the level domain.

All metrics lowercase their inputs and operate on code-point sequences; no
further unicode normalization is applied, so results do not depend on locale.
Every metric returns a value in [0, 1], is symmetric, and maps identical
strings to 1.0. Two empty strings compare as 1.0 by convention.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence, Union

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
                    q = int(rest[1:])
                except ValueError:
                    raise ValidationError(f"bad q in metric spec {spec!r}") from None
                return cls.cosine_qgrams(q)
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


# Python's \w is exactly the characters where str.isalnum() holds, plus "_".
_WORD = re.compile(r"[^\W_]+")


def _qgrams(s: str, q: int) -> list[str]:
    # No padding: strings shorter than q yield no grams.
    return [s[i : i + q] for i in range(len(s) - q + 1)]


def tokenizer(metric: MetricKind) -> Callable[[str], list[str]]:
    """The function that lists the tokens a cosine ``metric`` counts in a
    lowercased string: the maximal runs of alphanumeric characters
    (``str.isalnum``) for ``cosine-word``, every q-character slice for
    ``cosine-qgram``."""
    if metric.kind == COSINE_WORD:
        return _WORD.findall
    return partial(_qgrams, q=metric.q)


def _cosine(a: tuple[Counter, int], b: tuple[Counter, int]) -> float:
    # distribution._cosine_rows computes these similarities, and their
    # discretize levels, for whole level matrices in numpy, from the same
    # tokenizer(); keep the two in step.
    (ca, sq_a), (cb, sq_b) = a, b
    if not ca and not cb:
        return 1.0
    if not ca or not cb:
        return 0.0
    if len(cb) < len(ca):
        ca, cb = cb, ca
    dot = sum(cnt * cb.get(tok, 0) for tok, cnt in ca.items())
    if dot == 0:
        return 0.0
    sq = sq_a * sq_b
    # Counts are integers, so the Cauchy-Schwarz equality case (the multisets
    # are scalar multiples of each other) is decidable exactly; sqrt rounding
    # must not pull an exact 1 below it.
    if dot * dot == sq:
        return 1.0
    return min(1.0, max(0.0, dot / math.sqrt(sq)))


def _char_masks(s: str) -> dict[str, int]:
    """Bit i of ``masks[ch]`` is set where ``s[i] == ch``."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(s):
        masks[ch] = masks.get(ch, 0) | 1 << i
    return masks


def _myers(masks: dict[str, int], m: int, text: str) -> int:
    """Levenshtein distance between an m-character pattern, given by its
    ``_char_masks``, and ``text``.

    Bit-parallel dynamic programming (Myers, JACM 1999, in Hyyro's
    formulation for global distance): bit i of ``pv``/``mv`` says whether the
    current DP column rises or falls by one between rows i and i+1. Python
    integers hold the whole column, so any pattern length is exact.
    Keep in step with distribution._edit_rows, its numpy form over value pairs.
    """
    if m == 0:
        return len(text)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for ch in text:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 of the DP is 0, 1, 2, ...: every step adds one there.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return score


def profile(value: str, metric: MetricKind) -> tuple:
    """The part of ``value`` that ``metric`` compares, computed once per value:
    the lowercased string and its character masks for ``edit``; the token or
    q-gram counts of the lowercased string and their squared norm for the
    cosine metrics."""
    s = value.lower()
    if metric.kind == EDIT:
        return s, _char_masks(s)
    counts = Counter(tokenizer(metric)(s))
    return counts, sum(c * c for c in counts.values())


def profile_similarity(a: tuple, b: tuple, metric: MetricKind) -> float:
    """Similarity in [0, 1] of two values given by their ``profile``."""
    if metric.kind != EDIT:
        return _cosine(a, b)
    # The longer string is the bit pattern, so the loop runs over the shorter.
    (longer, masks), (shorter, _) = (a, b) if len(a[0]) >= len(b[0]) else (b, a)
    if not longer:
        return 1.0
    return 1.0 - _myers(masks, len(longer), shorter) / len(longer)


def similarity(a: str, b: str, metric: MetricKind) -> float:
    """Similarity of two strings in [0, 1] under the selected metric."""
    return profile_similarity(profile(a, metric), profile(b, metric), metric)


def discretize(sim: float, domain: LevelDomain) -> int:
    """Map a similarity in [0, 1] to a level via round-half-up of sim*(d-1).

    Monotone in sim, 0.0 maps to 0 and 1.0 maps to d-1.
    """
    if not 0.0 <= sim <= 1.0:
        raise ValidationError(f"similarity must lie in [0, 1], got {sim!r}")
    level = math.floor(sim * domain.max_level + 0.5)
    return min(domain.max_level, max(0, level))
