"""Injectivity via the doubled-variable collision system F(X) = F(X~).

The argument copy X~ reuses each coordinate polynomial with every input
variable i replaced by n + i.  A map is one-to-one exactly when every
implicant of the collision system lies inside the diagonal x = x~; a
cube can only lie inside the diagonal by fixing both copies of every
variable to equal values, so the containment test is structural.  The
method is exponential in n by nature and stays desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, mask_of, submasks
from .engine import EngineConfig, implicants
from .maps import BoolMap, Verdict

#: diagonal_set materializes 2**n paired minterms; refuse beyond this.
DEFAULT_DIAGONAL_CAP = 16

#: When a positive verdict's cover is no bigger than this, cross-check
#: it against the diagonal set exactly.
_EXACT_FORM_CAP = 12


@dataclass(frozen=True)
class CollisionSystem:
    """Constraints f_i(X) = f_i(X~) over the doubled universe."""

    base: BoolSystem
    n_in: int

    @property
    def x_universe(self) -> int:
        return mask_of(range(self.n_in))

    @property
    def shadow_universe(self) -> int:
        return mask_of(range(self.n_in, 2 * self.n_in))


@dataclass(frozen=True)
class DiagonalSet:
    """The 2**n paired minterms forcing X = X~ = a, ascending in a."""

    pairs: tuple[Term, ...]
    n_in: int

    def __len__(self) -> int:
        return len(self.pairs)


def _shift_to_shadow(f: Anf, n: int) -> Anf:
    return Anf(frozenset(m << n for m in f.monomials), f.universe << n)


def build_collision_system(F: BoolMap) -> CollisionSystem:
    """Factors h_i = f_i(X) + f_i(X~) + 1, each 1 when the outputs agree."""
    n = F.n_in
    uni = mask_of(range(2 * n))
    factors = tuple(
        f.with_universe(uni) ^ _shift_to_shadow(f, n).with_universe(uni) ^ Anf.one(uni)
        for f in F.coords
    )
    return CollisionSystem(BoolSystem(factors, uni), n)


def diagonal_set(n: int, cap: int = DEFAULT_DIAGONAL_CAP) -> DiagonalSet:
    """Explicit diagonal of the doubled space; size 2**n forces the cap."""
    if n > cap:
        raise ValueError(f"2**{n} paired minterms exceed the enumeration cap 2**{cap}")
    full = mask_of(range(2 * n))
    pairs = []
    for x in submasks(full >> n):
        trues = x | (x << n)
        pairs.append(Term(trues, full & ~trues))
    return DiagonalSet(tuple(pairs), n)


def collision_implicants(
    F: BoolMap, cfg: EngineConfig | None = None
) -> ImplicantSet:
    return implicants(build_collision_system(F).base, cfg)


def _inside_diagonal(t: Term, n: int) -> int | None:
    """First variable index whose two copies are not pinned equal, if any."""
    for v in range(n):
        x_bit, s_bit = 1 << v, 1 << (n + v)
        x_fixed = t.vars_mask & x_bit
        s_fixed = t.vars_mask & s_bit
        if not (x_fixed and s_fixed):
            return v
        if bool(t.pos & x_bit) != bool(t.pos & s_bit):
            return v
    return None


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
        expected = set(diagonal_set(n).pairs)
        if set(cover.terms) != expected:
            raise RuntimeError("diagonal-contained cover differs from the diagonal set")
    return Verdict(True, None, None)
