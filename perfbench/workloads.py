"""Seeded problem generators and the benchmark's own problem-file writer.

Every workload has two tiers:

* a seeded tier, drawn fresh from ``--seed``: small problems whose cost
  hardly moves between draws;
* a fixed tier, drawn once from ``CORPUS_SEED``: the large problems,
  whose cost varies by 10x to 30x between draws.  ``--seed`` only
  renames their variables (and renumbers a chain's), which leaves the
  engine's work unchanged; polynomial files have no names, so the fixed
  polynomials are the same for every seed.

NOTES.md gives the measurements behind that split.  The same seed gives
the same file bytes; ``random.Random`` seeded with a string is stable
across interpreter runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("maps-sweep", "systems-chain", "permpoly-field")

#: Seed of the fixed tier: the criterion-03 acceptance corpus seed.
CORPUS_SEED = 74207281


@dataclass(frozen=True)
class Case:
    """One problem file and the commands run on it.

    ``inputs`` and ``outputs`` are variable names in declaration order.
    ``polys`` holds monomial masks over the inputs: a map's coordinates,
    or a system's equations ``f = 0``.  ``facts`` holds answers known by
    construction.
    """

    name: str
    kind: str  # "map", "system" or "poly"
    text: str
    commands: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    polys: tuple[frozenset, ...] = ()
    field_n: int = 0
    modulus: int = 0
    coeffs: tuple[tuple[int, int], ...] = ()  # (exponent, coefficient)
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------- writer


def _monomial_text(mask: int, names) -> str:
    if mask == 0:
        return "1"
    return "*".join(names[v] for v in range(mask.bit_length()) if mask >> v & 1)


def anf_text(monomials, names) -> str:
    """Sum of monomials; the zero polynomial is written ``1 + 1``.

    The library's own ``format_anf`` writes zero as ``0``, which its
    parser rejects, so the benchmark spells it in the grammar instead.
    """
    if not monomials:
        return "1 + 1"
    order = sorted(monomials, key=lambda m: (m == 0, m.bit_count(), m))
    return " + ".join(_monomial_text(m, names) for m in order)


def _xor_masks(masks) -> frozenset:
    acc: set[int] = set()
    for m in masks:
        acc ^= {m}
    return frozenset(acc)


def _tags(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(100, 1000), count)


# ------------------------------------------------------------ maps-sweep


def random_coordinate(rng: random.Random, n: int) -> frozenset:
    """Criterion-03 coordinate: 1..5 monomials of degree <= 3, 30% plus 1."""
    masks = []
    for _ in range(rng.randint(1, 5)):
        deg = rng.randint(0, min(3, n))
        m = 0
        for v in rng.sample(range(n), deg):
            m |= 1 << v
        masks.append(m)
    if rng.random() < 0.3:
        masks.append(0)
    return _xor_masks(masks)


def _map_case(label: str, n: int, coords, names_rng: random.Random) -> Case:
    m = len(coords)
    tags = _tags(names_rng, n + m)
    inputs = tuple(f"x{t}" for t in tags[:n])
    outputs = tuple(f"y{t}" for t in tags[n:])
    lines = [f"# maps-sweep {label}: n={n} m={m}", "vars: " + " ".join(inputs)]
    lines += [f"{y} = {anf_text(f, inputs)}" for y, f in zip(outputs, coords)]
    commands = ["invert" if m == n else "one2one", "goe" if m == n else "coi"]
    if n <= 6:
        commands.append("diag")
    return Case(
        name=label,
        kind="map",
        text="\n".join(lines) + "\n",
        commands=tuple(commands),
        inputs=inputs,
        outputs=outputs,
        polys=tuple(coords),
    )


#: Maps per (n, m) cell, m running over n..n+3.
MAPS_SEEDED = {3: 1, 4: 1}
MAPS_FIXED = {3: 2, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1}
#: Fixed-tier cells above n = 8, listed one by one.
MAPS_FIXED_LARGE = ((9, 10), (9, 12), (10, 12))


def maps_sweep(seed: int) -> list[Case]:
    rng = random.Random(f"maps-sweep:{seed}")
    fixed = random.Random(CORPUS_SEED)
    cases = []
    for n, per_cell in MAPS_SEEDED.items():
        for m in range(n, n + 4):
            for k in range(per_cell):
                coords = [random_coordinate(rng, n) for _ in range(m)]
                cases.append(_map_case(f"s{n}x{m}-{k}", n, coords, rng))
    cells = [
        (n, m) for n, c in MAPS_FIXED.items() for m in range(n, n + 4) for _ in range(c)
    ]
    cells += MAPS_FIXED_LARGE
    for i, (n, m) in enumerate(cells):
        coords = [random_coordinate(fixed, n) for _ in range(m)]
        cases.append(_map_case(f"f{n}x{m}-{i}", n, coords, rng))
    return cases


# --------------------------------------------------------- systems-chain

#: Chain lengths; each is built in all three variants this many times.
CHAIN_LENGTHS = {n: 2 for n in range(14, 23)} | {24: 1}


def _chain_case(n: int, variant: str, k: int, rng: random.Random) -> Case:
    """x_i + x_{i-1} = 1 along a path, variables renamed and renumbered by ``rng``.

    Equations stay in chain order: the engine packs factors by (support
    size, position), so shuffling them moves a pass's cost by 1.6x
    between seeds, while renumbering the variables does not.

    ``unique`` pins x_0 = b; ``multiple`` pins nothing (two solutions);
    ``none`` also pins x_{n-1} to the value the chain forbids.
    """
    b = rng.randint(0, 1)
    tags = _tags(rng, n)
    chain_names = [f"v{t}" for t in tags]  # chain position i -> name
    declared = list(range(n))
    rng.shuffle(declared)  # declared[j] = chain position of variable j
    index = {pos: j for j, pos in enumerate(declared)}
    inputs = tuple(chain_names[pos] for pos in declared)

    def var(pos: int) -> int:
        return 1 << index[pos]

    equations = [frozenset({var(i), var(i - 1), 0}) for i in range(1, n)]
    if variant in ("unique", "none"):
        equations.append(frozenset({var(0)} | ({0} if b else set())))
    if variant == "none":
        forbidden = 1 - (b + n - 1) % 2
        equations.append(frozenset({var(n - 1)} | ({0} if forbidden else set())))
    label = f"c{n}-{variant}-{k}"
    lines = [f"# systems-chain {label}", "vars: " + " ".join(inputs)]
    lines += [f"0 = {anf_text(f, inputs)}" for f in equations]
    facts: dict = {"status": variant}
    if variant == "unique":
        facts["solution"] = {chain_names[i]: (b + i) % 2 for i in range(n)}
        facts["count"] = 1
    else:
        facts["count"] = 2 if variant == "multiple" else 0
    return Case(
        name=label,
        kind="system",
        text="\n".join(lines) + "\n",
        commands=("unique", "implicants"),
        inputs=inputs,
        polys=tuple(equations),
        facts=facts,
    )


def systems_chain(seed: int) -> list[Case]:
    rng = random.Random(f"systems-chain:{seed}")
    return [
        _chain_case(n, variant, k, rng)
        for n, reps in CHAIN_LENGTHS.items()
        for k in range(reps)
        for variant in ("unique", "multiple", "none")
    ]


# --------------------------------------------------------- permpoly-field


def _clmul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def irreducibles(n: int) -> list[int]:
    """Every irreducible polynomial of degree n over GF(2), by trial division."""
    out = []
    for low in range(1, 1 << n, 2):
        m = (1 << n) | low
        if all(_mod(m, g) for d in range(1, n // 2 + 1) for g in range(1 << d, 1 << (d + 1))):
            out.append(m)
    return out


def field_mul(a: int, b: int, modulus: int) -> int:
    return _mod(_clmul(a, b), modulus)


def field_power(x: int, e: int, modulus: int) -> int:
    acc, base = 1, x
    while e:
        if e & 1:
            acc = field_mul(acc, base, modulus)
        base = field_mul(base, base, modulus)
        e >>= 1
    return acc


def _poly_case(label: str, n: int, rng: random.Random, modulus: int) -> Case:
    """A monomial c*X^d or a binomial X^d + c*X^e with random exponents."""
    top = (1 << n) - 1
    d = rng.randrange(2, top)
    if rng.random() < 0.5:
        if rng.random() < 0.5:  # half the monomials permute: gcd(d, 2^n - 1) = 1
            while math.gcd(d, top) != 1:
                d = rng.randrange(2, top)
        coeffs = ((d, rng.randrange(1, 1 << n)),)
    else:
        coeffs = ((d, 1), (rng.randrange(1, d), rng.randrange(1, 1 << n)))
    terms = []
    for e, c in coeffs:
        x = "X" if e == 1 else f"X^{e}"
        terms.append(x if c == 1 else f"{c:x}*{x}")
    text = (
        f"# permpoly-field {label}\n"
        f"field: n={n} modulus={modulus:b}\n"
        f"poly: {' + '.join(terms)}\n"
    )
    return Case(
        name=label,
        kind="poly",
        text=text,
        commands=("permpoly",),
        field_n=n,
        modulus=modulus,
        coeffs=coeffs,
    )


#: Polynomials per field degree.
POLY_SEEDED = {3: 10, 4: 10, 5: 8}
POLY_FIXED = {3: 20, 4: 20, 5: 16, 6: 2, 7: 24, 8: 2, 9: 1}


def permpoly_field(seed: int) -> list[Case]:
    rng = random.Random(f"permpoly-field:{seed}")
    fixed = random.Random(CORPUS_SEED)
    cases = []
    for n, count in POLY_SEEDED.items():
        moduli = irreducibles(n)
        for k in range(count):
            cases.append(_poly_case(f"s{n}-{k}", n, rng, rng.choice(moduli)))
    for n, count in POLY_FIXED.items():
        modulus = irreducibles(n)[0]
        for k in range(count):
            cases.append(_poly_case(f"f{n}-{k}", n, fixed, modulus))
    return cases


GENERATORS = {
    "maps-sweep": maps_sweep,
    "systems-chain": systems_chain,
    "permpoly-field": permpoly_field,
}


def generate(workload: str, seed: int) -> list[Case]:
    return GENERATORS[workload](seed)
