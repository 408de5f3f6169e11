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

from .algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, mask_of, submasks
from .engine import EngineConfig, implicants
from .maps import BoolMap, Verdict

#: diagonal_set materializes 2**n paired minterms; refuse beyond this.
DEFAULT_DIAGONAL_CAP = 16

#: When a positive verdict's cover is no bigger than this, cross-check
#: it against the diagonal set exactly.
_EXACT_FORM_CAP = 12


def _shift_to_shadow(f: Anf, n: int) -> Anf:
    return Anf(frozenset(m << n for m in f.monomials), f.universe << n)


def build_collision_system(F: BoolMap) -> BoolSystem:
    """Factors h_i = f_i(X) + f_i(X~) + 1, each 1 when the outputs agree."""
    n = F.n_in
    uni = mask_of(range(2 * n))
    factors = tuple(
        f.with_universe(uni) ^ _shift_to_shadow(f, n).with_universe(uni) ^ Anf.one(uni)
        for f in F.coords
    )
    return BoolSystem(factors, uni)


def diagonal_set(n: int) -> tuple[Term, ...]:
    """The 2**n paired minterms forcing X = X~ = a, ascending in a."""
    if n > DEFAULT_DIAGONAL_CAP:
        raise ValueError(
            f"2**{n} paired minterms exceed the enumeration cap 2**{DEFAULT_DIAGONAL_CAP}"
        )
    full = mask_of(range(2 * n))
    return tuple(Term.minterm(full, x | (x << n)) for x in submasks(full >> n))


def collision_implicants(
    F: BoolMap, cfg: EngineConfig | None = None
) -> ImplicantSet:
    return implicants(build_collision_system(F), cfg)


def _inside_diagonal(t: Term, n: int) -> int | None:
    """First variable index whose two copies are not pinned equal, if any."""
    vm, pos = t.vars_mask, t.pos
    both = vm & (vm >> n)
    bad = mask_of(range(n)) & ~(both & ~(pos ^ (pos >> n)))
    return (bad & -bad).bit_length() - 1 if bad else None


def _witness_from_term(t: Term, v: int, n: int) -> tuple[Assignment, Assignment]:
    """A point of the cube with the two copies differing at variable v."""
    x_bit, s_bit = 1 << v, 1 << (n + v)
    trues = t.pos
    if not t.vars_mask & x_bit and not t.vars_mask & s_bit:
        trues |= s_bit
    elif not t.vars_mask & s_bit:
        if not trues & x_bit:
            trues |= s_bit
    elif not t.vars_mask & x_bit:
        if not trues & s_bit:
            trues |= x_bit
    x_mask = mask_of(range(n))
    return (
        Assignment(x_mask, trues & x_mask),
        Assignment(x_mask, (trues >> n) & x_mask),
    )


def is_one_to_one_diagonal(F: BoolMap, cfg: EngineConfig | None = None) -> Verdict:
    """One-to-one iff the whole collision cover sits on the diagonal.

    On success with small n the cover is additionally compared with the
    explicit diagonal set: containment plus completeness leave no other
    possibility, so a mismatch signals an engine defect.
    """
    n = F.n_in
    cover = collision_implicants(F, cfg)
    for t in cover.terms:
        v = _inside_diagonal(t, n)
        if v is not None:
            return Verdict(False, _witness_from_term(t, v, n), None)
    if n <= _EXACT_FORM_CAP:
        expected = set(diagonal_set(n))
        if set(cover.terms) != expected:
            raise RuntimeError("diagonal-contained cover differs from the diagonal set")
    return Verdict(True, None, None)
