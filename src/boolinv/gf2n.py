"""GF(2^n) arithmetic and the permutation-polynomial decision.

Field elements are coefficient bit vectors in the polynomial basis
{1, a, ..., a^(n-1)} packed into ints (bit i = coefficient of a^i).
A univariate polynomial over the field expands into n Boolean
coordinate functions, and the polynomial permutes the field exactly
when that square map is invertible.  The graph cover of that map has
one output word per field point, and the word is the packed value
p(x), so the decision reads the value table directly: p permutes the
field when its 2^n values are distinct.  A ``UniPoly`` holds only its
nonzero terms, so a polynomial costs O(terms) to build and to read,
whatever its degree.

The value table works on plain ints.  It builds exp/log tables of the
multiplicative group from a primitive element, so each nonzero term
c*X^e is worth ``exp[(log c + e*log x) mod (2^n - 1)]`` at every x != 0
and the whole table costs O(2^n) per term, whatever the degree.
``coordinate_functions`` lifts the same table to the Boolean map: the
values are written out as binary digits once, each output bit's truth
table is a slice of them, and ``moebius``, the engine's bit-sliced
binary Moebius transform inside one big int, turns it into ANF.  The
oracle's list-based ``TruthTable.to_anf`` is the independent reference
for it, and ``UniPoly.evaluate`` (Horner over ``FieldElem``) for the
values; this module does not import the oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .algebra import Anf, Value, bit_flags, mask_of
from .engine import moebius
from .maps import BoolMap

#: Everything here enumerates 2**n field points; stay at desk scale.
MAX_DEGREE = 16

#: Cap on nonzero terms times field points, the cost of a value table; it
#: admits a dense polynomial up to n = 12.  The CLI's ``permpoly`` applies
#: it through ``check_term_points``; the functions of this module do not.
MAX_TERM_POINTS = 1 << 24

#: The same cap for the CLI's ``oracle``, whose Horner sweep costs a few
#: microseconds per term and point; it admits a dense polynomial up to n = 10.
MAX_ORACLE_TERM_POINTS = 1 << 20


def _clmul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while (da := a.bit_length()) >= dm:
        a ^= m << (da - dm)
    return a


def _is_irreducible(m: int, n: int) -> bool:
    """Trial division by every odd polynomial of degree 1..n//2.

    ``m`` has constant term 1, so x does not divide it, and neither does
    any multiple of x: an even polynomial.
    """
    if m.bit_length() != n + 1 or not m & 1:
        return False
    for d in range(1, n // 2 + 1):
        for g in range((1 << d) | 1, 1 << (d + 1), 2):
            if _poly_mod(m, g) == 0:
                return False
    return True


class FieldSpec(Value):
    """Degree and monic irreducible modulus of one binary field."""

    __slots__ = ("n", "modulus")
    n: int
    modulus: int

    def __init__(self, n: int, modulus: int):
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}")
        if not _is_irreducible(modulus, n):
            raise ValueError(f"modulus {modulus:#b} is not irreducible of degree {n}")
        self._set("n", n)
        self._set("modulus", modulus)

    @classmethod
    def default(cls, n: int) -> "FieldSpec":
        """Lowest irreducible polynomial of degree n, found by search."""
        return _default_spec(n)

    @property
    def order(self) -> int:
        return 1 << self.n

    def element(self, value: int) -> "FieldElem":
        return FieldElem(self, value)

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)


class FieldElem(Value):
    """Packed basis coefficients; arithmetic is mod the field's modulus."""

    __slots__ = ("spec", "value")
    spec: FieldSpec
    value: int

    def __init__(self, spec: FieldSpec, value: int):
        if not 0 <= value < spec.order:
            raise ValueError(f"value {value} outside the field of {spec.order}")
        self._set("spec", spec)
        self._set("value", value)

    def _check(self, other: "FieldElem") -> None:
        if self.spec != other.spec:
            raise ValueError("operands belong to different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.spec, self.value ^ other.value)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        prod = _clmul(self.value, other.value)
        return FieldElem(self.spec, _poly_mod(prod, self.spec.modulus))

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            raise ValueError("negative exponents not supported")
        acc = FieldElem(self.spec, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    @property
    def is_zero(self) -> bool:
        return self.value == 0


@lru_cache(maxsize=None)
def _default_spec(n: int) -> FieldSpec:
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"extension degree must be in 1..{MAX_DEGREE}")
    for low in range(1, 1 << n, 2):
        m = (1 << n) | low
        if _is_irreducible(m, n):
            return FieldSpec(n, m)
    raise AssertionError("unreachable: irreducibles exist for every degree")


class UniPoly(Value):
    """Univariate polynomial held as its nonzero terms.

    ``terms`` lists the nonzero ``(exponent, coefficient)`` pairs in
    rising exponent, so a polynomial costs O(terms) whatever its degree.
    ``coefficients``, the dense tuple indexed by exponent, is derived on
    each read and is not a field.
    """

    __slots__ = ("spec", "terms")
    spec: FieldSpec
    terms: tuple[tuple[int, FieldElem], ...]

    def __init__(self, spec: FieldSpec, terms: tuple[tuple[int, FieldElem], ...]):
        terms, above = tuple(terms), -1
        for term in terms:
            if type(term) is not tuple or len(term) != 2:
                raise ValueError(
                    "terms must be (exponent, FieldElem) pairs; use UniPoly.of for dense coefficients"
                )
            e, c = term
            if not (c.spec is spec or c.spec == spec):
                raise ValueError("coefficient from a different field")
            if e <= above or not c.value:
                raise ValueError("terms must be nonzero and in rising exponent")
            above = e
        self._set("spec", spec)
        self._set("terms", terms)

    @classmethod
    def of(cls, spec: FieldSpec, values) -> "UniPoly":
        """The polynomial with coefficient ``values[e]`` at X^e."""
        return cls(spec, tuple((e, FieldElem(spec, v)) for e, v in enumerate(values) if v))

    @classmethod
    def monomial(cls, spec: FieldSpec, e: int, coeff: int = 1) -> "UniPoly":
        return cls(spec, ((e, FieldElem(spec, coeff)),) if coeff else ())

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    @property
    def coefficients(self) -> tuple[FieldElem, ...]:
        """Every coefficient up to the degree, zeros included."""
        dense = [self.spec.zero()] * (self.degree + 1)
        for e, c in self.terms:
            dense[e] = c
        return tuple(dense)

    def evaluate(self, x: FieldElem) -> FieldElem:
        """Horner's rule over the nonzero terms.

        The step between two terms multiplies by x**gap, each distinct
        gap raised once, so a sparse polynomial costs a few products per
        term whatever its degree and a dense one costs one product per
        coefficient.
        """
        if x.spec != self.spec:
            raise ValueError("point from a different field")
        acc, above, steps = self.spec.zero(), max(self.degree, 0), {}
        for e, c in reversed(self.terms):
            gap = above - e
            if gap not in steps:
                steps[gap] = x**gap
            acc = acc * steps[gap] + c
            above = e
        return acc * x**above


@lru_cache(maxsize=32)
def _exp_log(spec: FieldSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Powers of a primitive element, and their inverse (log[0] is unused).

    The element x is not primitive for every irreducible modulus (under
    0b11111 it has order 5), so the candidates 1, 2, 3, ... are tried in
    turn.  A candidate g has order 2^n - 1 exactly when g^((2^n - 1)/p)
    is not 1 for any prime p dividing 2^n - 1, so only the first one that
    passes has its powers walked.  The tables are cached per field, so
    they are tuples that no caller can change.
    """
    q = spec.order - 1
    primes, rest = [], q
    for p in range(2, q + 1):
        if p * p > rest:
            break
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    if rest > 1:
        primes.append(rest)
    one = spec.one()
    g = next(
        g for g in range(1, spec.order) if all(spec.element(g) ** (q // p) != one for p in primes)
    )
    exp, y = [1], g
    while y != 1:
        exp.append(y)
        y = _poly_mod(_clmul(y, g), spec.modulus)
    log = [0] * spec.order
    for i, y in enumerate(exp):
        log[y] = i
    return tuple(exp), tuple(log)


def check_term_points(p: UniPoly, limit: int = MAX_TERM_POINTS) -> None:
    """Refuse ``p`` when its nonzero terms times field points exceed ``limit``."""
    if len(p.terms) << p.spec.n > limit:
        raise ValueError(
            f"{len(p.terms)} nonzero terms over 2^{p.spec.n} field points exceed "
            f"the limit of 2^{limit.bit_length() - 1} term evaluations"
        )


def _value_table(p: UniPoly) -> list[int]:
    """``p(x)`` for every field point x, indexed by the packed value of x."""
    spec = p.spec
    q = spec.order - 1
    exp, log = _exp_log(spec)
    by_log = [0] * q  # by_log[i] = p(exp[i]) minus the constant term
    for e, c in p.terms:
        if e:
            lc, step = log[c.value], e % q
            by_log = [y ^ exp[(lc + step * i) % q] for i, y in enumerate(by_log)]
    c0 = p.terms[0][1].value if p.terms and not p.terms[0][0] else 0
    values = [c0] * spec.order
    for i, y in enumerate(by_log):
        values[exp[i]] ^= y
    return values


def coordinate_functions(p: UniPoly) -> BoolMap:
    """Expand x -> p(x) into n Boolean coordinates over the basis.

    Input bit i is the coefficient of a^i in x; output bit j likewise.
    Each output truth table is converted to ANF, so evaluating the
    returned map on the bits of x reproduces the bits of p(x) exactly.
    """
    n = p.spec.n
    # n binary digits per point, highest point and highest bit first
    digits = "".join(map(f"{{:0{n}b}}".format, reversed(_value_table(p))))
    uni = mask_of(range(n))
    monomials = range(1 << n)
    coords = []
    for j in range(n):
        table = int(digits[n - 1 - j :: n], 2)  # bit j of every value
        anf = bit_flags(moebius(table, n), 1 << n)  # byte i: the coefficient of monomial i
        coords.append(Anf(frozenset(compress(monomials, anf)), uni))
    return BoolMap.of(coords, n)


def is_permutation_polynomial(p: UniPoly) -> bool:
    """Whether x -> p(x) is a bijection of the field.

    The values of p are the output words of ``coordinate_functions(p)``,
    one per field point, so this is that square map's invertibility
    verdict, read without the lift: all 2^n words must be distinct.
    """
    return len(set(_value_table(p))) == p.spec.order
