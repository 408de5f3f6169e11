"""Boolean maps and the graph-system analyses built on the implicant engine.

A map F: F2^n -> F2^m is held as m coordinate polynomials over input
variables 0..n-1.  Output variables take the ids n..n+m-1, appended
after the inputs.  The graph system h_i = f_i + y_i + 1 is satisfied
exactly by the pairs (x, F(x)); each cover term is the paper's
r_i(X)·s_i(Y), an input cube times one output point.  The cover is read
in place with masks: ``t.pos & F.x_universe`` is the plain part of the
input cube and ``t.pos & F.y_universe`` names the output point, which
decides injectivity, image and the complement of the image without
enumerating inputs.  The complement is answered in output words,
``t.pos >> n_in``, the packing of ``BoolMap.evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import Anf, Assignment, BoolSystem, ImplicantSet, submasks
from .engine import EngineConfig, implicants

#: Explicit complement-of-image points are materialized only below this.
DEFAULT_MAX_POINTS = 1 << 20


class NonSquareMapError(ValueError):
    """Square-map analysis applied to a map with m_out != n_in."""

    def __init__(self, n_in: int, m_out: int):
        super().__init__(
            f"map has {n_in} inputs and {m_out} outputs; "
            "use is_one_to_one_general for non-square maps"
        )


@dataclass(frozen=True)
class BoolMap:
    """Tuple of coordinate functions over inputs 0..n_in-1."""

    coords: tuple[Anf, ...]
    n_in: int

    def __post_init__(self):
        normalized = tuple(f.with_universe(self.x_universe) for f in self.coords)
        object.__setattr__(self, "coords", normalized)

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

    def y_var(self, j: int) -> int:
        return self.n_in + j

    def evaluate(self, a: Assignment) -> int:
        """Output packed with coordinate j at bit j."""
        y = 0
        for j, f in enumerate(self.coords):
            y |= f.evaluate(a) << j
        return y


@dataclass(frozen=True)
class Verdict:
    """Injectivity decision with a colliding input pair when negative."""

    one_to_one: bool
    witness: tuple[Assignment, Assignment] | None
    y_minterm_count: int | None

    def __post_init__(self):
        if self.one_to_one == (self.witness is not None):
            raise ValueError("witness must be present exactly when not one-to-one")


class Uniqueness(Enum):
    NONE = "none"
    UNIQUE = "unique"
    MULTIPLE = "multiple"


@dataclass(frozen=True)
class UniqueSolutionResult:
    status: Uniqueness
    assignment: Assignment | None = None

    def __post_init__(self):
        if (self.status is Uniqueness.UNIQUE) == (self.assignment is None):
            raise ValueError("assignment must accompany UNIQUE and only UNIQUE")


@dataclass(frozen=True)
class ComplementResult:
    """Outputs with no preimage: explicit points plus the image minterms.

    Both are output words packed as ``BoolMap.evaluate`` packs them,
    y_j at bit j, in canonical order: y_0 is the most significant digit,
    the order of ``submasks``.  ``image`` holds the distinct words of the
    image minterms s_i; y has no preimage exactly when s_i'(y) = 1 for
    every i.  ``points`` holds the other words, or is None when the
    output space exceeds the enumeration cap; ``image`` and ``size`` are
    always available.
    """

    size: int
    image: tuple[int, ...]
    points: tuple[int, ...] | None

    @property
    def is_empty(self) -> bool:
        return self.size == 0


def build_graph_system(F: BoolMap) -> BoolSystem:
    """Factors h_i = f_i + y_i + 1, each 1 exactly when y_i = f_i(x)."""
    uni = F.x_universe | F.y_universe
    factors = tuple(
        f.with_universe(uni) ^ Anf.variable(F.y_var(j), uni) ^ Anf.one(uni)
        for j, f in enumerate(F.coords)
    )
    return BoolSystem(factors, uni)


def graph_implicants(F: BoolMap, cfg: EngineConfig | None = None) -> ImplicantSet:
    """Cover of the graph system; every term fixes every output variable.

    A free output variable in a sound cover term is impossible: every
    factor depends linearly on its y_i, so the cofactor could not be
    constant 1.  The guard stays as a cheap internal consistency check.
    """
    cover = implicants(build_graph_system(F), cfg)
    y_mask = F.y_universe
    for t in cover.terms:
        if y_mask & ~t.vars_mask:
            raise RuntimeError(f"graph cover term {t} leaves an output variable free")
    return cover


def _collision_witness(
    cover: ImplicantSet, F: BoolMap
) -> tuple[Assignment, Assignment] | None:
    """Two distinct inputs with equal output, read off the graph cover.

    Either two terms share one output point (their input cubes are
    disjoint by orthogonality), or some input cube has a free variable
    and collides within itself.
    """
    x_mask, y_mask = F.x_universe, F.y_universe
    first_x_by_y: dict[int, int] = {}
    for t in cover.terms:
        y, x = t.pos & y_mask, t.pos & x_mask
        if y in first_x_by_y:
            return Assignment(x_mask, first_x_by_y[y]), Assignment(x_mask, x)
        first_x_by_y[y] = x
    for t in cover.terms:
        free = x_mask & ~t.vars_mask
        if free:
            x = t.pos & x_mask
            return Assignment(x_mask, x), Assignment(x_mask, x | (free & -free))
    return None


def _one_to_one_verdict(F: BoolMap, cfg: EngineConfig | None) -> Verdict:
    cover = graph_implicants(F, cfg)
    y_mask = F.y_universe
    count = len({t.pos & y_mask for t in cover.terms})
    if count == 1 << F.n_in:
        return Verdict(True, None, count)
    witness = _collision_witness(cover, F)
    if witness is None:
        raise RuntimeError("non-injective map without extractable witness")
    return Verdict(False, witness, count)


def is_invertible_square(F: BoolMap, cfg: EngineConfig | None = None) -> Verdict:
    """Bijectivity of a square map: all 2^n output minterms must appear."""
    if F.m_out != F.n_in:
        raise NonSquareMapError(F.n_in, F.m_out)
    return _one_to_one_verdict(F, cfg)


def is_one_to_one_general(F: BoolMap, cfg: EngineConfig | None = None) -> Verdict:
    """Injectivity for any arity: 2^n distinct output minterms required.

    With m < n the count cannot reach 2^n, so the verdict is negative a
    priori; the cover is still built to extract the witness pair and
    the distinct-minterm count.
    """
    return _one_to_one_verdict(F, cfg)


def _image_complement(
    F: BoolMap, cfg: EngineConfig | None, max_points: int
) -> ComplementResult:
    n, m = F.n_in, F.m_out
    hit = {t.pos >> n for t in graph_implicants(F, cfg).terms}
    row = f"0{m}b"
    image = tuple(sorted(hit, key=lambda w: format(w, row)[::-1]))
    points: tuple[int, ...] | None = None
    if (1 << m) <= max_points:
        points = tuple(w for w in submasks((1 << m) - 1) if w not in hit)
    return ComplementResult(size=(1 << m) - len(hit), image=image, points=points)


def goe(
    F: BoolMap,
    cfg: EngineConfig | None = None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ComplementResult:
    """Outputs of a square map with no preimage; empty iff invertible."""
    if F.m_out != F.n_in:
        raise NonSquareMapError(F.n_in, F.m_out)
    return _image_complement(F, cfg, max_points)


def coi(
    F: BoolMap,
    cfg: EngineConfig | None = None,
    max_points: int = DEFAULT_MAX_POINTS,
) -> ComplementResult:
    """Complement of the image for m >= n; coincides with goe when m = n."""
    if F.m_out < F.n_in:
        raise ValueError(
            f"complement-of-image analysis expects at least {F.n_in} outputs, "
            f"got {F.m_out}"
        )
    return _image_complement(F, cfg, max_points)


def unique_solution(
    sys: BoolSystem, cfg: EngineConfig | None = None
) -> UniqueSolutionResult:
    """Classify a system as unsolvable, uniquely solvable, or neither.

    Unique solvability is equivalent to the cover being one single term
    that fixes every universe variable.
    """
    cover = implicants(sys, cfg)
    if not cover.terms:
        return UniqueSolutionResult(Uniqueness.NONE)
    if len(cover.terms) == 1 and cover.terms[0].fixes(sys.universe):
        return UniqueSolutionResult(
            Uniqueness.UNIQUE, cover.terms[0].assignment(sys.universe)
        )
    return UniqueSolutionResult(Uniqueness.MULTIPLE)
