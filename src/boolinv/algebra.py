"""Canonical Boolean function and cube algebra over F2.

Variables are dense integer indices into an externally held name table.
Functions are kept in algebraic normal form (XOR of AND-monomials), terms
(cubes) as conjunctions of literals.  Everything here is immutable and
exact.  This module never materializes a truth table; the engine's leaf
and the oracle build their own.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator


class MissingVariableError(KeyError):
    """An evaluation point does not assign one of the required variables."""

    def __init__(self, var: int):
        super().__init__(var)
        self.var = var

    def __str__(self) -> str:
        return f"assignment does not cover variable {self.var}"


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


def submasks(mask: int) -> list[int]:
    """Every submask of ``mask`` in canonical order.

    The lowest variable is the most significant digit and 0 comes before
    1, so the points of a cube come out in the order of their minterms'
    ``Term.sort_key``.  The list is built by doubling: for each variable,
    highest first, it is followed by a copy with that variable set.
    """
    out = [0]
    while mask:
        bit = 1 << (mask.bit_length() - 1)
        mask ^= bit
        out += [p | bit for p in out]
    return out


#: ``bytes.translate`` table from the digits "0" and "1" to the bytes 0 and 1.
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(bits: int, size: int) -> bytes:
    """Byte i is bit i of ``bits``, 0 or 1, padded with zeros to ``size`` bytes.

    The bytes select for ``itertools.compress`` and multiply in ``map``,
    so a truth table picks or sets its points at C speed.
    """
    return format(bits, f"0{size}b")[::-1].encode().translate(_FLAGS)


class Value:
    """Base of the immutable value classes.

    A subclass's fields are its annotated attributes, in order, after
    those of its bases.  It lists them in ``__slots__`` and sets each
    once in ``__init__`` with ``self._set(name, value)``; no attribute can
    be assigned or deleted afterwards.  Equality compares the fields of
    two instances of the same class, the hash is the hash of the field
    tuple, and the repr names every field.  A slot that is not a field,
    such as a value derived from the fields, takes no part in these.
    """

    __slots__ = ()
    _fields = ()
    _set = object.__setattr__  # bound to an instance, it bypasses __setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        get = attrgetter(*fields)
        # the field tuple, also for a class of one field
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class Assignment(Value):
    """Total assignment of bits to the variables in ``universe``.

    ``trues`` holds the variables set to 1; it must be a subset of the
    universe mask.
    """

    __slots__ = ("universe", "trues")
    universe: int
    trues: int

    def __init__(self, universe: int, trues: int):
        if trues & ~universe:
            raise ValueError("assignment sets variables outside its universe")
        self._set("universe", universe)
        self._set("trues", trues)

    @classmethod
    def from_values(cls, values: dict[int, int]) -> "Assignment":
        uni = mask_of(values)
        trues = mask_of(v for v, b in values.items() if b)
        return cls(uni, trues)

    def value(self, var: int) -> int:
        if not (self.universe >> var) & 1:
            raise MissingVariableError(var)
        return (self.trues >> var) & 1

    def items(self) -> Iterator[tuple[int, int]]:
        for v in vars_of(self.universe):
            yield v, (self.trues >> v) & 1


class Term(Value):
    """Conjunction of literals (a cube): ``pos`` plain, ``neg`` complemented.

    The empty term (pos == neg == 0) is the constant 1.  At most one
    literal per variable: pos & neg == 0.
    """

    __slots__ = ("pos", "neg")
    pos: int
    neg: int

    def __init__(self, pos: int = 0, neg: int = 0):
        if pos & neg:
            raise ValueError("variable with both polarities in one term")
        self._set("pos", pos)
        self._set("neg", neg)

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
        """All minterms of the universe contained in this cube, in canonical order.

        The cube's 2**free points are listed first, by ``submasks``.
        """
        free = universe & ~self.vars_mask
        for s in submasks(free):
            yield Term(self.pos | s, self.neg | (free ^ s))

    def sort_key(self) -> tuple[int, ...]:
        """Canonical order: ``2*var + polarity`` per literal, ascending var.

        Orders terms exactly as their tuples of ``(var, polarity)`` pairs,
        ascending var, with polarity 1 for a plain literal.
        """
        pos = self.pos
        return tuple(2 * v + ((pos >> v) & 1) for v in vars_of(pos | self.neg))


def _sorted_monomial(mask: int) -> tuple:
    # constant monomial renders last; others by (degree, variable tuple)
    if mask == 0:
        return (1, 0, ())
    return (0, mask.bit_count(), tuple(vars_of(mask)))


_ONE = frozenset((0,))  # monomials of the constant 1


class Anf(Value):
    """Boolean function in algebraic normal form.

    ``monomials`` is a set of variable bitmasks XORed together; the empty
    mask is the constant-1 monomial.  Duplicate monomials cancel, so the
    representation is canonical and equality is structural.  ``support``,
    the mask of the variables the monomials use, is computed once on
    construction and is not a field.
    """

    __slots__ = ("monomials", "universe", "support", "__weakref__")
    monomials: frozenset[int]
    universe: int

    def __init__(self, monomials: frozenset[int], universe: int):
        support = 0
        for m in monomials:
            support |= m
        if support & ~universe:
            raise ValueError("monomial uses a variable outside the universe")
        self._set("monomials", monomials)
        self._set("universe", universe)
        self._set("support", support)

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
        return self if universe == self.universe else Anf(self.monomials, universe)

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


class BoolSystem(Value):
    """Constraint set ``h_1 * h_2 * ... * h_k = 1`` over a declared universe.

    An equation f = 0 enters as the factor h = f + 1.  ``support``, the
    mask of the variables the factors use, is computed once on
    construction and is not a field.
    """

    __slots__ = ("factors", "universe", "support")
    factors: tuple[Anf, ...]
    universe: int

    def __init__(self, factors: tuple[Anf, ...], universe: int):
        support = 0
        for h in factors:
            support |= h.support
        if support & ~universe:
            raise ValueError("factor uses a variable outside the system universe")
        self._set("factors", factors)
        self._set("universe", universe)
        self._set("support", support)

    @classmethod
    def of(cls, factors: Iterable[Anf], universe: int | None = None) -> "BoolSystem":
        fs = tuple(factors)
        if universe is None:
            universe = 0
            for h in fs:
                universe |= h.support
        return cls(fs, universe)

    def ratio(self, t: Term) -> "BoolSystem":
        """Cofactor every factor by the term; universe loses the fixed variables."""
        return BoolSystem(
            tuple(h.ratio(t) for h in self.factors), self.universe & ~t.vars_mask
        )

    def satisfied_by(self, a: Assignment) -> bool:
        return all(h.evaluate(a) == 1 for h in self.factors)


class ImplicantSet(Value):
    """A family of terms covering a system's solution set.

    Producers guarantee the cover is complete and pairwise orthogonal;
    the audits in ``oracle`` check it.
    """

    __slots__ = ("terms", "universe")
    terms: tuple[Term, ...]
    universe: int

    def __init__(self, terms: tuple[Term, ...], universe: int):
        self._set("terms", terms)
        self._set("universe", universe)

    def __len__(self) -> int:
        return len(self.terms)

    def satisfying_total(self) -> int:
        return sum(t.satisfying_count(self.universe) for t in self.terms)
