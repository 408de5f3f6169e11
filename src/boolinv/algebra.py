"""Canonical Boolean function and cube algebra over F2.

Variables are dense integer indices into an externally held name table.
Functions are kept in algebraic normal form (XOR of AND-monomials), terms
(cubes) as conjunctions of literals.  Everything here is immutable and
exact.  This module never materializes a truth table; the engine's leaf
and the oracle build their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class MissingVariableError(KeyError):
    """An evaluation point does not assign one of the required variables."""

    def __init__(self, var: int):
        super().__init__(var)
        self.var = var

    def __str__(self) -> str:
        return f"assignment does not cover variable {self.var}"


class OrthogonalityError(ValueError):
    """A family of terms claimed to be pairwise orthogonal is not."""


class Literal(NamedTuple):
    var: int
    polarity: int  # 1 = plain variable, 0 = complemented


def mask_of(vars: Iterable[int]) -> int:
    """Pack variable indices into a bitmask."""
    m = 0
    for v in vars:
        m |= 1 << v
    return m


def vars_of(mask: int) -> list[int]:
    """Unpack a bitmask into ascending variable indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _ContradictionType:
    """Singleton marker for an inconsistent literal conjunction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "CONTRADICTION"

    def __bool__(self) -> bool:
        return False


#: Returned by Term.conjoin when some variable occurs with both polarities.
#: A value, not an exception: orthogonality checks hit it on purpose.
CONTRADICTION = _ContradictionType()


@dataclass(frozen=True)
class Assignment:
    """Total assignment of bits to the variables in ``universe``.

    ``trues`` holds the variables set to 1; it must be a subset of the
    universe mask.
    """

    universe: int
    trues: int

    def __post_init__(self):
        if self.trues & ~self.universe:
            raise ValueError("assignment sets variables outside its universe")

    @classmethod
    def from_values(cls, values: dict[int, int]) -> "Assignment":
        uni = mask_of(values)
        trues = mask_of(v for v, b in values.items() if b)
        return cls(uni, trues)

    def value(self, var: int) -> int:
        if not (self.universe >> var) & 1:
            raise MissingVariableError(var)
        return (self.trues >> var) & 1

    def bits(self) -> tuple[int, ...]:
        """Values in ascending variable order."""
        return tuple((self.trues >> v) & 1 for v in vars_of(self.universe))

    def items(self) -> Iterator[tuple[int, int]]:
        for v in vars_of(self.universe):
            yield v, (self.trues >> v) & 1


@dataclass(frozen=True)
class Term:
    """Conjunction of literals (a cube): ``pos`` plain, ``neg`` complemented.

    The empty term (pos == neg == 0) is the constant 1.  At most one
    literal per variable: pos & neg == 0.
    """

    pos: int = 0
    neg: int = 0

    def __post_init__(self):
        if self.pos & self.neg:
            raise ValueError("variable with both polarities in one term")

    @classmethod
    def of(cls, *literals: tuple[int, int]) -> "Term":
        pos = mask_of(v for v, b in literals if b)
        neg = mask_of(v for v, b in literals if not b)
        return cls(pos, neg)

    @classmethod
    def minterm(cls, universe: int, trues: int) -> "Term":
        """The term fixing every universe variable to the given point."""
        return cls(trues & universe, universe & ~trues)

    @property
    def vars_mask(self) -> int:
        return self.pos | self.neg

    @property
    def is_one(self) -> bool:
        return self.pos == 0 and self.neg == 0

    def literal_count(self) -> int:
        return (self.pos | self.neg).bit_count()

    def literals(self) -> Iterator[Literal]:
        for v in vars_of(self.pos | self.neg):
            yield Literal(v, (self.pos >> v) & 1)

    def conjoin(self, other: "Term") -> "Term | _ContradictionType":
        """Product of two cubes; CONTRADICTION if satisfying sets are disjoint."""
        if (self.pos | other.pos) & (self.neg | other.neg):
            return CONTRADICTION
        return Term(self.pos | other.pos, self.neg | other.neg)

    def satisfies(self, a: Assignment) -> bool:
        return (self.pos & ~a.trues) == 0 and (self.neg & a.trues) == 0

    def satisfying_count(self, universe: int) -> int:
        """Number of points of the universe cube inside this cube."""
        if self.vars_mask & ~universe:
            raise ValueError("term uses a variable outside the universe")
        return 1 << (universe.bit_count() - self.literal_count())

    def fixes(self, universe: int) -> bool:
        """True when the term is a full minterm of the universe."""
        return self.vars_mask == universe

    def assignment(self, universe: int) -> Assignment:
        """The single point of a full minterm (free variables not allowed)."""
        if not self.fixes(universe):
            raise ValueError("term leaves universe variables free")
        return Assignment(universe, self.pos)

    def expand(self, universe: int) -> Iterator["Term"]:
        """All minterms of the universe contained in this cube, in canonical order."""
        free = vars_of(universe & ~self.vars_mask)
        for bits in itertools.product((0, 1), repeat=len(free)):
            pos, neg = self.pos, self.neg
            for v, b in zip(free, bits):
                if b:
                    pos |= 1 << v
                else:
                    neg |= 1 << v
            yield Term(pos, neg)

    def sort_key(self) -> tuple[int, ...]:
        """Canonical order: ``2*var + polarity`` per literal, ascending var.

        Orders terms exactly as ``tuple(self.literals())`` does.
        """
        pos = self.pos
        return tuple(2 * v + ((pos >> v) & 1) for v in vars_of(pos | self.neg))

    def to_anf(self, universe: int | None = None) -> "Anf":
        """The cube as a polynomial: product of x_i and (x_j + 1) factors."""
        if universe is None:
            universe = self.vars_mask
        f = Anf.one(universe)
        for v, b in self.literals():
            lit = Anf.variable(v, universe)
            f = f * (lit if b else lit ^ Anf.one(universe))
        return f


def _sorted_monomial(mask: int) -> tuple:
    # constant monomial renders last; others by (degree, variable tuple)
    if mask == 0:
        return (1, 0, ())
    return (0, mask.bit_count(), tuple(vars_of(mask)))


_ONE = frozenset((0,))  # monomials of the constant 1


@dataclass(frozen=True)
class Anf:
    """Boolean function in algebraic normal form.

    ``monomials`` is a set of variable bitmasks XORed together; the empty
    mask is the constant-1 monomial.  Duplicate monomials cancel, so the
    representation is canonical and equality is structural.  ``support``,
    the mask of the variables the monomials use, is computed once on
    construction and is not a field.
    """

    monomials: frozenset[int]
    universe: int

    def __post_init__(self):
        support = 0
        for m in self.monomials:
            support |= m
        if support & ~self.universe:
            raise ValueError("monomial uses a variable outside the universe")
        # not a field, so equality and hashing still see only the polynomial
        object.__setattr__(self, "support", support)

    @classmethod
    def from_monomials(cls, monomials: Iterable[int], universe: int | None = None) -> "Anf":
        acc: set[int] = set()
        for m in monomials:
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
        if universe is None:
            universe = 0
            for m in acc:
                universe |= m
        return cls(frozenset(acc), universe)

    @classmethod
    def zero(cls, universe: int = 0) -> "Anf":
        return cls(frozenset(), universe)

    @classmethod
    def one(cls, universe: int = 0) -> "Anf":
        return cls(frozenset((0,)), universe)

    @classmethod
    def variable(cls, var: int, universe: int | None = None) -> "Anf":
        m = 1 << var
        return cls(frozenset((m,)), universe if universe is not None else m)

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def is_one(self) -> bool:
        return self.monomials == _ONE

    def with_universe(self, universe: int) -> "Anf":
        return Anf(self.monomials, universe)

    def sorted_monomials(self) -> list[int]:
        return sorted(self.monomials, key=_sorted_monomial)

    def __xor__(self, other: "Anf") -> "Anf":
        return Anf(self.monomials ^ other.monomials, self.universe | other.universe)

    def __mul__(self, other: "Anf") -> "Anf":
        acc: set[int] = set()
        for m1 in self.monomials:
            for m2 in other.monomials:
                m = m1 | m2
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return Anf(frozenset(acc), self.universe | other.universe)

    def __invert__(self) -> "Anf":
        """Complement: f + 1."""
        return self ^ Anf.one(self.universe)

    def evaluate(self, a: Assignment) -> int:
        """XOR over monomials of the AND of assigned bits."""
        missing = self.universe & ~a.universe
        if missing:
            raise MissingVariableError(vars_of(missing)[0])
        acc = 0
        trues = a.trues
        for m in self.monomials:
            if m & trues == m:
                acc ^= 1
        return acc

    def ratio(self, t: Term) -> "Anf":
        """Cofactor of the function on the subcube where ``t`` holds.

        Variables fixed by the term are substituted (plain literal -> 1,
        complemented -> 0) and drop out of the result's universe.
        """
        acc: set[int] = set()
        for m in self.monomials:
            if m & t.neg:
                continue  # a factor substituted to 0 kills the monomial
            m &= ~t.pos
            if m in acc:
                acc.remove(m)
            else:
                acc.add(m)
        return Anf(frozenset(acc), self.universe & ~t.vars_mask)


@dataclass(frozen=True)
class BoolSystem:
    """Constraint set ``h_1 * h_2 * ... * h_k = 1`` over a declared universe.

    An equation f = 0 enters as the factor h = f + 1.
    """

    factors: tuple[Anf, ...]
    universe: int

    def __post_init__(self):
        for h in self.factors:
            if h.support & ~self.universe:
                raise ValueError("factor uses a variable outside the system universe")

    @classmethod
    def of(cls, factors: Iterable[Anf], universe: int | None = None) -> "BoolSystem":
        fs = tuple(factors)
        if universe is None:
            universe = 0
            for h in fs:
                universe |= h.support
        return cls(fs, universe)

    @property
    def support(self) -> int:
        s = 0
        for h in self.factors:
            s |= h.support
        return s

    def ratio(self, t: Term) -> "BoolSystem":
        """Cofactor every factor by the term; universe loses the fixed variables."""
        return BoolSystem(
            tuple(h.ratio(t) for h in self.factors), self.universe & ~t.vars_mask
        )

    def satisfied_by(self, a: Assignment) -> bool:
        return all(h.evaluate(a) == 1 for h in self.factors)


@dataclass(frozen=True)
class ImplicantSet:
    """A family of terms covering a system's solution set.

    Producers guarantee the cover is complete and pairwise orthogonal;
    ``is_pairwise_orthogonal`` and the exhaustive validator audit it.
    """

    terms: tuple[Term, ...]
    universe: int

    def __len__(self) -> int:
        return len(self.terms)

    def satisfying_total(self) -> int:
        return sum(t.satisfying_count(self.universe) for t in self.terms)

    def is_pairwise_orthogonal(self) -> bool:
        return self._orthogonality_violation() is None

    def _orthogonality_violation(self) -> tuple[int, int] | None:
        ts = self.terms
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                if ts[i].conjoin(ts[j]) is not CONTRADICTION:
                    return (i, j)
        return None

    def expand_minterms(self, cap: int = 1 << 20) -> list[Term]:
        """Every cube blown out to full universe minterms, canonically sorted."""
        if self.satisfying_total() > cap:
            raise ValueError(f"expansion would exceed {cap} minterms")
        out: list[Term] = []
        for t in self.terms:
            out.extend(t.expand(self.universe))
        out.sort(key=Term.sort_key)
        return out


def term_conjoin(t1: Term, t2: Term) -> Term | _ContradictionType:
    """Product of two terms; CONTRADICTION when their cubes are disjoint."""
    return t1.conjoin(t2)


def is_implicant(t: Term, sys: BoolSystem) -> bool:
    """True when every point of the cube satisfies every factor.

    Equivalent to the cofactor of each factor by the term being the
    constant 1, which is a structural check on canonical ANF.
    """
    if t.vars_mask & ~sys.universe:
        raise ValueError("term uses a variable outside the system universe")
    return all(h.ratio(t).is_one for h in sys.factors)


def og_sum_is_tautology(s: ImplicantSet) -> bool:
    """Whether an orthogonal family covers the whole universe cube.

    For pairwise-orthogonal terms the union is exact, so the cover is the
    full cube iff the counted sizes add up to 2^|universe|.  The
    orthogonality precondition is audited and violations raise.
    """
    bad = s._orthogonality_violation()
    if bad is not None:
        raise OrthogonalityError(f"terms {bad[0]} and {bad[1]} overlap")
    return s.satisfying_total() == 1 << s.universe.bit_count()
