"""Seeded input generators for the benchmark.

Every generator takes an explicit ``random.Random`` or numpy ``Generator``
built from ``--seed``, so one seed always yields the same files. The program
under test sees only what these functions write: a CSV with a header row, or
a ``#mdd-dist v1`` cache written here from the format description, without
calling into ``mdd``.
"""

from __future__ import annotations

import csv
import hashlib
import random

import numpy as np

LOWCARD_VOCAB = ["alpha", "beta", "gamma", "delta", "omega", "route 9", "route 66"]


def _perturb(rng: random.Random, base: str) -> str:
    """Drop a character, double a character, or add a short suffix."""
    edit = rng.randrange(3)
    if edit == 0 and len(base) > 1:
        pos = rng.randrange(len(base))
        return base[:pos] + base[pos + 1:]
    if edit == 1:
        pos = rng.randrange(len(base))
        return base[:pos] + base[pos] + base[pos:]
    return base + rng.choice([" x", "s", " jr"])


def _balanced(rng: random.Random, pool, n: int) -> list:
    """n items cycling through ``pool`` in its given order, then shuffled: the
    same multiset for every seed, so only the order and the pairing with
    other columns vary, and the work an input causes varies little."""
    items = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(items)
    return items


def lowcard_rows(rng: random.Random, n_rows: int, n_attrs: int = 3) -> list[list[str]]:
    """Values from a 7-word vocabulary, 40% of them perturbed: many repeated
    values, so a per-column memo answers most pair lookups. Every column
    holds each word equally often."""
    perturbed = round(0.4 * n_rows)
    columns = []
    for _ in range(n_attrs):
        values = [LOWCARD_VOCAB[i % len(LOWCARD_VOCAB)] for i in range(n_rows)]
        values = [_perturb(rng, v) for v in values[:perturbed]] + values[perturbed:]
        rng.shuffle(values)
        columns.append(values)
    return [list(row) for row in zip(*columns)]


_FIRST = (
    "james mary john patricia robert jennifer michael linda william elizabeth david "
    "barbara richard susan joseph jessica thomas sarah charles karen christopher nancy "
    "daniel lisa matthew betty anthony margaret mark sandra donald ashley steven "
    "kimberly paul emily andrew donna joshua michelle kenneth dorothy kevin carol brian "
    "amanda george melissa edward deborah ronald stephanie timothy rebecca jason sharon"
).split()
_LAST = (
    "smith johnson williams brown jones garcia miller davis rodriguez martinez "
    "hernandez lopez gonzalez wilson anderson thomas taylor moore jackson martin lee "
    "perez thompson white harris sanchez clark ramirez lewis robinson walker young "
    "allen king wright scott torres nguyen hill flores green adams nelson baker hall "
    "rivera campbell mitchell carter roberts gomez phillips evans turner diaz parker "
    "cruz edwards collins reyes stewart morris morales murphy cook rogers gutierrez "
    "ortiz morgan cooper peterson bailey reed kelly howard ramos kim cox ward richardson"
).split()
_STREET = (
    "main oak pine maple cedar elm washington lake hill park view sunset river "
    "church spring north south west east highland forest meadow willow mill ridge "
    "valley center union jackson lincoln franklin adams madison jefferson walnut "
    "chestnut cherry birch spruce locust laurel dogwood magnolia poplar sycamore"
).split()
_SUFFIX = ["st", "street", "ave", "avenue", "rd", "road", "blvd", "ln", "lane", "dr", "ct", "way"]
_SYLLABLES = (
    "ar bel cor dan el fen gar hol in jor kel lan mor nor or pel quin ros san "
    "tor ul ven wes yar zel ton ville burg field ford ham"
).split()
_CITY_TAILS = ["", "", " city", " springs", " falls", " heights", " park"]


def _typo(rng: random.Random, value: str) -> str:
    """One substitution, deletion, insertion or transposition."""
    if len(value) < 2:
        return value + rng.choice("aeiou")
    pos = rng.randrange(len(value) - 1)
    letter = rng.choice("abcdefghijklmnopqrstuvwxyz")
    kind = rng.randrange(4)
    if kind == 0:
        return value[:pos] + letter + value[pos + 1:]
    if kind == 1:
        return value[:pos] + value[pos + 1:]
    if kind == 2:
        return value[:pos] + letter + value[pos:]
    return value[:pos] + value[pos + 1] + value[pos] + value[pos + 2:]


def highcard_rows(rng: random.Random, n_rows: int) -> list[list[str]]:
    """Person-like (Name, Street, City) records: 80% distinct entities and
    the rest near-duplicates with typos, so most values are distinct and
    duplicate pairs agree across columns with typo-level noise. Name parts,
    street parts and city shapes are drawn balanced, which keeps string
    lengths, and so the cost of a pair, nearly the same for every seed."""
    n_cities = int(n_rows * 1.3)
    cities = [
        "".join(rng.sample(_SYLLABLES, parts)) + tail
        for parts, tail in zip(_balanced(rng, [2, 3], n_cities), _balanced(rng, _CITY_TAILS, n_cities))
    ]
    n_entities = int(n_rows * 0.8)
    firsts = _balanced(rng, _FIRST, n_entities)
    initials = _balanced(rng, [True, False], n_entities)
    lasts = _balanced(rng, _LAST, n_entities)
    streets = _balanced(rng, _STREET, n_entities)
    suffixes = _balanced(rng, _SUFFIX, n_entities)
    entities = [
        [
            f"{first[0] + '.' if initial else first} {last}",
            f"{rng.randint(1000, 9999)} {street} {suffix}",
            rng.choice(cities),
        ]
        for first, initial, last, street, suffix in zip(firsts, initials, lasts, streets, suffixes)
    ]
    rows = [list(e) for e in entities]
    n_dups = n_rows - n_entities
    typos = [_balanced(rng, [True, False], n_dups) for _ in range(3)]
    for k in range(n_dups):
        dup = list(rng.choice(entities))
        for c in range(3):
            if typos[c][k]:
                dup[c] = _typo(rng, dup[c])
        rows.append(dup)
    rng.shuffle(rows)
    return rows


def write_csv(path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def planted_match_levels(
    gen: np.random.Generator,
    pair_total: int,
    reliabilities: tuple[float, ...],
    d: int,
    match_share: float,
    zero_share: float,
    chunk: int = 500_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated level vectors of ``pair_total`` synthetic pairs over
    len(reliabilities) lhs columns and one rhs column.

    In a non-matching pair each column is at level 0 with probability
    ``zero_share`` and otherwise at a level skewed towards 1, never reaching
    the top two levels on the rhs. A ``match_share`` of the pairs match: the
    rhs is at one of the top two levels, and lhs column j is within three
    levels of the top with probability reliabilities[j] and behaves as in a
    non-match otherwise. Returns the distinct level vectors in lexicographic
    order and their counts; pairs are drawn in chunks to bound memory.
    """
    m = len(reliabilities) + 1
    top = d - 1
    counts = np.zeros(d**m, dtype=np.int64)

    def low(n: int, highest: int) -> np.ndarray:
        skewed = 1 + np.floor(highest * gen.random(n) ** 2).astype(np.int64)
        return np.where(gen.random(n) < zero_share, 0, skewed)

    left = pair_total
    while left:
        n = min(chunk, left)
        left -= n
        is_match = gen.random(n) < match_share
        keys = np.zeros(n, dtype=np.int64)
        for rel in reliabilities:
            high = top - np.floor(min(3, top) * gen.random(n) ** 2).astype(np.int64)
            agrees = is_match & (gen.random(n) < rel)
            keys = keys * d + np.where(agrees, high, low(n, top - 2))
        rhs_high = np.where(gen.random(n) < 0.95, top, top - 1)
        keys = keys * d + np.where(is_match, rhs_high, low(n, max(0, top - 3)))
        counts += np.bincount(keys, minlength=d**m)
    present = np.flatnonzero(counts)
    digits = np.empty((present.size, m), dtype=np.int64)
    rest = present.copy()
    for j in range(m - 1, -1, -1):
        digits[:, j] = rest % d
        rest //= d
    return digits, counts[present]


def write_cache(path, names: list[str], d: int, levels: np.ndarray, counts: np.ndarray) -> None:
    """Write a ``#mdd-dist v1`` cache: header, one ``levels...,count`` row per
    record, then a sha256 checksum line over everything before it."""
    fingerprint = hashlib.sha256(levels.tobytes() + counts.tobytes()).hexdigest()
    attrs = ",".join(f"{i}:{name}" for i, name in enumerate(names))
    lines = [
        f"#mdd-dist v1 d={d} pairs={int(counts.sum())} attrs={attrs} "
        f"metric=synthetic fingerprint={fingerprint}"
    ]
    lines.extend(
        ",".join(map(str, row)) + f",{count}" for row, count in zip(levels.tolist(), counts.tolist())
    )
    body = "\n".join(lines) + "\n"
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
        fh.write(f"#checksum={checksum}\n")
