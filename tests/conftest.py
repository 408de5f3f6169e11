"""Shared corpus builders for randomized and pinned test systems."""

import random

from boolinv.algebra import Anf, BoolSystem, mask_of
from boolinv.maps import BoolMap


def shift_register_map() -> BoolMap:
    """(x1,x2,x3) -> (x2, x3, x1 + x2 x3): a nonsingular 3-bit shift rule."""
    uni = mask_of(range(3))
    x1, x2, x3 = (Anf.variable(v, uni) for v in range(3))
    return BoolMap.of([x2, x3, x1 ^ (x2 * x3)], 3)


def quad_map() -> BoolMap:
    """(x1,..,x4) -> (x1 x3, x2 x3, x1 x4, x2 x4 + 1): misses 6 outputs."""
    uni = mask_of(range(4))
    x1, x2, x3, x4 = (Anf.variable(v, uni) for v in range(4))
    return BoolMap.of([x1 * x3, x2 * x3, x1 * x4, (x2 * x4) ^ Anf.one(uni)], 4)


def identity_map(n: int) -> BoolMap:
    uni = mask_of(range(n))
    return BoolMap.of([Anf.variable(v, uni) for v in range(n)], n)


def random_anf(rng: random.Random, variables, max_monomials=6, max_degree=3) -> Anf:
    """Random polynomial over the given variables (may collapse to 0)."""
    uni = mask_of(variables)
    monomials = []
    for _ in range(rng.randint(1, max_monomials)):
        deg = rng.randint(0, min(max_degree, len(variables)))
        monomials.append(mask_of(rng.sample(list(variables), deg)))
    if rng.random() < 0.3:
        monomials.append(0)
    return Anf.from_monomials(monomials, uni)


def random_system(
    rng: random.Random, n_vars: int, n_factors: int, max_support: int = 4
) -> BoolSystem:
    """System of small-support factors; satisfiability not guaranteed."""
    uni = mask_of(range(n_vars))
    factors = []
    for _ in range(n_factors):
        k = rng.randint(1, min(max_support, n_vars))
        sup = rng.sample(range(n_vars), k)
        f = random_anf(rng, sup)
        if f.is_zero or f.is_one:
            f = f ^ Anf.variable(sup[0], mask_of(sup))
        factors.append(f.with_universe(uni))
    return BoolSystem(tuple(factors), uni)


def xor_pair_system(rng: random.Random, n: int) -> BoolSystem:
    """Random equations x_i + x_j = c and x_i = c: the shape that makes literals clash."""
    uni = mask_of(range(n))
    one = Anf.one(uni)
    factors = []
    for _ in range(rng.randint(2, n)):
        i, j = rng.sample(range(n), 2)
        f = Anf.variable(i, uni)
        if rng.random() < 0.8:
            f ^= Anf.variable(j, uni)
        factors.append(f ^ one if rng.random() < 0.5 else f)
    return BoolSystem(tuple(factors), uni)


def chain_system(n: int, variant: str, shuffle_seed: int | None = None) -> BoolSystem:
    """x_i + x_(i-1) = 1 for i = 1..n-1.

    ``pinned`` adds x_0 = 1 (one solution), ``free`` adds nothing (two),
    ``unsat`` pins both ends to values the chain forbids together.
    """
    uni = mask_of(range(n))
    x = [Anf.variable(v, uni) for v in range(n)]
    factors = [x[i] ^ x[i - 1] for i in range(1, n)]  # factor of x_i + x_(i-1) = 1
    if variant in ("pinned", "unsat"):
        factors.append(x[0])
    if variant == "unsat":
        # the chain makes x_(n-1) equal to 1 exactly when n is odd
        factors.append(~x[n - 1] if n % 2 else x[n - 1])
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(factors)
    return BoolSystem(tuple(factors), uni)


def random_map_coords(
    rng: random.Random, n_in: int, m_out: int, max_degree: int = 3
) -> list[Anf]:
    """Coordinate functions of a random sparse map on inputs 0..n_in-1."""
    uni = mask_of(range(n_in))
    coords = []
    for _ in range(m_out):
        f = random_anf(rng, range(n_in), max_monomials=5, max_degree=max_degree)
        coords.append(f.with_universe(uni))
    return coords


def random_permutation_coords(rng: random.Random, n: int) -> list[Anf]:
    """Coordinates of a guaranteed bijection on n bits.

    Built triangular (each output mixes only later inputs into its own),
    then output order is shuffled; both steps preserve bijectivity.
    """
    uni = mask_of(range(n))
    coords = []
    for i in range(n):
        f = Anf.variable(i, uni)
        later = list(range(i + 1, n))
        if later:
            g = random_anf(rng, later, max_monomials=3, max_degree=2)
            f = f ^ g.with_universe(uni)
        if rng.random() < 0.5:
            f = f ^ Anf.one(uni)
        coords.append(f)
    rng.shuffle(coords)
    return coords
