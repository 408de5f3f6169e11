"""Boolean maps and the graph-system analyses built on the implicant engine.

A map F: F2^n -> F2^m is held as m coordinate polynomials over input
variables 0..n-1.  Output variables take the ids n..n+m-1, appended
after the inputs.  The graph system h_i = f_i + y_i + 1 is satisfied
exactly by the pairs (x, F(x)); each cover term is the paper's
r_i(X)·s_i(Y), an input cube times one output point.  Since h_i fixes
y_i = f_i(x), F is constant on each term's input cube; the inputs the
map does not read are free in every term.  When the inputs it reads fit
the bound, the cover has one term per point x of them, in canonical
order, with output point F(x); past it, a term may also leave free a
read input that F ignores under the term's other literals.  The
verdicts read only the output words, y_j at bit j as
``BoolMap.evaluate`` packs them.  The engine's functional scan of the
coordinates gives them, in chunks of at most 2^DEFAULT_BOUND points,
without building the graph system or making terms, so the verdicts
take no bound.  Injectivity counts the distinct words.
On a shortfall it names the points of the first repeated word, found
from the words' indices, or else point 0 and the point that differs
from it in the lowest free input.  The complement is answered in
output words.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress

from .algebra import Anf, Assignment, BoolSystem, ImplicantSet, Value, submasks
from .engine import DEFAULT_BOUND, _functional_scan, implicants

#: Explicit complement-of-image points are materialized only when the output
#: space has at most this many points.
DEFAULT_MAX_POINTS = 1 << 20

#: ``bytes.translate`` table that swaps the flags 0 and 1.
_NOT = bytes.maketrans(b"\0\1", b"\1\0")


class NonSquareMapError(ValueError):
    """Square-map analysis applied to a map with m_out != n_in.

    ``advice`` names what applies to the map instead.
    """

    def __init__(self, n_in: int, m_out: int, advice: str):
        super().__init__(f"map has {n_in} inputs and {m_out} outputs; {advice}")


class BoolMap(Value):
    """Tuple of coordinate functions over inputs 0..n_in-1.

    Each coordinate is stored over the input universe.
    """

    __slots__ = ("coords", "n_in")
    coords: tuple[Anf, ...]
    n_in: int

    def __init__(self, coords: tuple[Anf, ...], n_in: int):
        x_universe = (1 << n_in) - 1
        self._set("coords", tuple(f.with_universe(x_universe) for f in coords))
        self._set("n_in", n_in)

    @classmethod
    def of(cls, coords, n_in: int) -> "BoolMap":
        return cls(tuple(coords), n_in)

    @property
    def m_out(self) -> int:
        return len(self.coords)

    @property
    def x_universe(self) -> int:
        return (1 << self.n_in) - 1

    @property
    def y_universe(self) -> int:
        return ((1 << self.m_out) - 1) << self.n_in

    def evaluate(self, a: Assignment) -> int:
        """Output packed with coordinate j at bit j."""
        y = 0
        for j, f in enumerate(self.coords):
            y |= f.evaluate(a) << j
        return y


class Verdict(Value):
    """Injectivity decision with a colliding input pair when negative."""

    __slots__ = ("one_to_one", "witness", "y_minterm_count")
    one_to_one: bool
    witness: tuple[Assignment, Assignment] | None
    y_minterm_count: int | None

    def __init__(
        self,
        one_to_one: bool,
        witness: tuple[Assignment, Assignment] | None,
        y_minterm_count: int | None,
    ):
        if one_to_one == (witness is not None):
            raise ValueError("witness must be present exactly when not one-to-one")
        self._set("one_to_one", one_to_one)
        self._set("witness", witness)
        self._set("y_minterm_count", y_minterm_count)


class Uniqueness(Enum):
    NONE = "none"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


class UniqueSolutionResult(Value):
    __slots__ = ("status", "assignment")
    status: Uniqueness
    assignment: Assignment | None

    def __init__(self, status: Uniqueness, assignment: Assignment | None = None):
        if (status is Uniqueness.UNIQUE) == (assignment is None):
            raise ValueError("assignment must accompany UNIQUE and only UNIQUE")
        self._set("status", status)
        self._set("assignment", assignment)


class ComplementResult(Value):
    """Outputs with no preimage: explicit points plus the image minterms.

    Both are output words packed as ``BoolMap.evaluate`` packs them,
    y_j at bit j, in canonical order: y_0 is the most significant digit,
    the order of ``submasks``.  ``image`` holds the distinct words of the
    image minterms s_i; y has no preimage exactly when s_i'(y) = 1 for
    every i.  ``points`` holds the other words, or is None when the
    output space exceeds the enumeration cap; ``image`` and ``size`` are
    always available.
    """

    __slots__ = ("size", "image", "points")
    size: int
    image: tuple[int, ...]
    points: tuple[int, ...] | None

    def __init__(self, size: int, image: tuple[int, ...], points: tuple[int, ...] | None):
        self._set("size", size)
        self._set("image", image)
        self._set("points", points)

    @property
    def is_empty(self) -> bool:
        return self.size == 0


def build_graph_system(F: BoolMap) -> BoolSystem:
    """Factors h_i = f_i + y_i + 1, each 1 exactly when y_i = f_i(x)."""
    uni = F.x_universe | F.y_universe
    factors = tuple(
        Anf(f.monomials ^ {1 << (F.n_in + j), 0}, uni) for j, f in enumerate(F.coords)
    )
    return BoolSystem(factors, uni)


def graph_implicants(F: BoolMap, bound: int = DEFAULT_BOUND) -> ImplicantSet:
    """Cover of the graph system at ``bound``; every term fixes every output variable.

    A free output variable in a sound cover term is impossible: every
    factor depends linearly on its y_i, so the cofactor could not be
    constant 1.  The guard stays as a cheap internal consistency check.
    """
    cover = implicants(build_graph_system(F), bound)
    y_mask = F.y_universe
    for t in cover.terms:
        if y_mask & ~t.vars_mask:
            raise RuntimeError(f"graph cover term {t} leaves an output variable free")
    return cover


def _one_to_one_verdict(F: BoolMap) -> Verdict:
    """Count the distinct output points; on a shortfall, name a collision.

    Two terms sharing one output point have disjoint input cubes by
    orthogonality, so their points collide; the first repeated output
    wins.  Otherwise, when the map ignores an input, the first cube,
    that of point 0, collides within itself on its lowest free input.
    """
    words = _functional_scan(F.coords, DEFAULT_BOUND)
    count = len(set(words))
    if count == 1 << F.n_in:
        return Verdict(True, None, count)
    read = 0
    for f in F.coords:
        read |= f.support
    first: dict[int, int] = {}  # word -> index of its first point
    for i, y in enumerate(words):
        j = first.setdefault(y, i)
        if j != i:
            points = submasks(read)
            pair = points[j], points[i]
            break
    else:
        free = F.x_universe & ~read
        pair = (0, free & -free) if free else None
    if pair is None:
        raise RuntimeError("non-injective map without extractable witness")
    witness = tuple(Assignment(F.x_universe, x) for x in pair)
    return Verdict(False, witness, count)


def is_invertible_square(F: BoolMap) -> Verdict:
    """Bijectivity of a square map: all 2^n output minterms must appear."""
    if F.m_out != F.n_in:
        raise NonSquareMapError(F.n_in, F.m_out, "use is_one_to_one_general for non-square maps")
    return _one_to_one_verdict(F)


def is_one_to_one_general(F: BoolMap) -> Verdict:
    """Injectivity for any arity: 2^n distinct output minterms required.

    With m < n the count cannot reach 2^n, so the verdict is negative a
    priori; the output words are still scanned for the witness pair and
    the distinct-minterm count.
    """
    return _one_to_one_verdict(F)


def _image_complement(F: BoolMap, max_points: int) -> ComplementResult:
    m = F.m_out
    words = set(_functional_scan(F.coords, DEFAULT_BOUND))
    if (1 << m) > max_points:
        row = f"0{m}b"
        image = tuple(sorted(words, key=lambda w: format(w, row)[::-1]))
        return ComplementResult(size=(1 << m) - len(image), image=image, points=None)
    order = submasks((1 << m) - 1)  # every word in canonical order
    hit = bytes(map(words.__contains__, order))
    image = tuple(compress(order, hit))
    points = tuple(compress(order, hit.translate(_NOT)))
    return ComplementResult(size=len(points), image=image, points=points)


def goe(F: BoolMap, max_points: int = DEFAULT_MAX_POINTS) -> ComplementResult:
    """Outputs of a square map with no preimage; empty iff invertible."""
    if F.m_out != F.n_in:
        raise NonSquareMapError(F.n_in, F.m_out, "use coi for non-square maps")
    return _image_complement(F, max_points)


def coi(F: BoolMap, max_points: int = DEFAULT_MAX_POINTS) -> ComplementResult:
    """Complement of the image for any arity; coincides with goe when m = n."""
    return _image_complement(F, max_points)


def unique_solution(sys: BoolSystem, bound: int = DEFAULT_BOUND) -> UniqueSolutionResult:
    """Classify a system as unsolvable, uniquely solvable, or neither.

    Unique solvability is equivalent to the cover, from ``implicants`` at
    ``bound``, being one single term that fixes every universe variable.
    """
    cover = implicants(sys, bound)
    if not cover.terms:
        return UniqueSolutionResult(Uniqueness.NONE)
    if len(cover.terms) == 1 and cover.terms[0].fixes(sys.universe):
        return UniqueSolutionResult(
            Uniqueness.UNIQUE, cover.terms[0].assignment(sys.universe)
        )
    return UniqueSolutionResult(Uniqueness.MULTIPLE)
