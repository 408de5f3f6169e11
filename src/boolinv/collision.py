"""Injectivity via the doubled-variable collision system F(X) = F(X~).

The argument copy X~ reuses each coordinate polynomial with every input
variable i replaced by n + i.  A map is one-to-one exactly when every
implicant of the collision system lies inside the diagonal x = x~; a
cube can only lie inside the diagonal by fixing both copies of every
variable to equal values, so the containment test is mask arithmetic
on the cover term: bit i of ``vars_mask & (vars_mask >> n)`` says both
copies of x_i are fixed, bit i of ``pos ^ (pos >> n)`` that they differ.
The method is exponential in n by nature and stays desk scale.
"""

from __future__ import annotations

from .algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, submasks
from .engine import DEFAULT_BOUND, implicants
from .maps import BoolMap, Verdict

#: diagonal_set materializes 2**n paired minterms; refuse beyond this.
DEFAULT_DIAGONAL_CAP = 16


def build_collision_system(F: BoolMap) -> BoolSystem:
    """Factors h_i = f_i(X) + f_i(X~) + 1, each 1 when the outputs agree."""
    n = F.n_in
    uni = (1 << 2 * n) - 1
    factors = tuple(
        Anf(f.monomials ^ frozenset(m << n for m in f.monomials) ^ {0}, uni)
        for f in F.coords
    )
    return BoolSystem(factors, uni)


def diagonal_set(n: int) -> tuple[Term, ...]:
    """The 2**n paired minterms forcing X = X~ = a, ascending in a."""
    if n > DEFAULT_DIAGONAL_CAP:
        raise ValueError(
            f"2**{n} paired minterms exceed the enumeration cap 2**{DEFAULT_DIAGONAL_CAP}"
        )
    full = (1 << 2 * n) - 1
    return tuple(Term.minterm(full, x | (x << n)) for x in submasks(full >> n))


def collision_implicants(F: BoolMap, bound: int = DEFAULT_BOUND) -> ImplicantSet:
    """Cover of the collision system, from ``implicants`` at ``bound``."""
    return implicants(build_collision_system(F), bound)


def _inside_diagonal(t: Term, n: int) -> int | None:
    """First variable index whose two copies are not pinned equal, if any."""
    vm, pos = t.vars_mask, t.pos
    both = vm & (vm >> n)
    bad = ((1 << n) - 1) & ~(both & ~(pos ^ (pos >> n)))
    return (bad & -bad).bit_length() - 1 if bad else None


def _witness_from_term(t: Term, v: int, n: int) -> tuple[Assignment, Assignment]:
    """A point of the cube with the two copies differing at variable v."""
    x_bit, s_bit = 1 << v, 1 << (n + v)
    vm, trues = t.vars_mask, t.pos
    if not vm & s_bit:  # x~_v free: set it opposite to x_v
        if not trues & x_bit:
            trues |= s_bit
    elif not vm & x_bit and not trues & s_bit:  # x_v free, x~_v = 0: set x_v = 1
        trues |= x_bit
    x_mask = (1 << n) - 1
    return (
        Assignment(x_mask, trues & x_mask),
        Assignment(x_mask, (trues >> n) & x_mask),
    )


def is_one_to_one_diagonal(F: BoolMap, bound: int = DEFAULT_BOUND) -> Verdict:
    """One-to-one iff the whole collision cover, at ``bound``, sits on the diagonal.

    A term inside the diagonal fixes both copies of every variable, so
    it is one diagonal minterm.  Every diagonal point solves the system
    and the cover is complete, so a positive verdict also needs 2**n
    distinct terms; anything else signals an engine defect.  The check
    is a count and runs at every n.
    """
    n = F.n_in
    cover = collision_implicants(F, bound)
    for t in cover.terms:
        v = _inside_diagonal(t, n)
        if v is not None:
            return Verdict(False, _witness_from_term(t, v, n), None)
    if len({t.pos for t in cover.terms}) != 1 << n:
        raise RuntimeError("diagonal-contained cover differs from the diagonal set")
    return Verdict(True, None, None)
