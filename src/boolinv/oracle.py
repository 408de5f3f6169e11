"""Exhaustive ground truth for small instances.

Truth tables are single big integers: bit ``i`` holds the function value
at point ``i``, where bit ``k`` of the point index is the value of the
k-th smallest universe variable.  Everything here is brute force by
design; it exists to validate the symbolic machinery, so it shares no
logic with it beyond ANF evaluation semantics.

``validate_implicant_set`` and the ``brute_*`` readers use truth tables.
The cover audits ``is_implicant``, ``og_sum_is_tautology`` (the paper's
"orthogonal sum is 1" condition) and the pairwise orthogonality check
build none: they use cofactors, literal masks and point counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from .algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, Value, vars_of

if TYPE_CHECKING:  # pragma: no cover
    from .maps import BoolMap


@lru_cache(maxsize=None)
def _var_pattern(k: int, n: int) -> int:
    """Truth table of the k-th variable over 2**n points."""
    half = 1 << k
    period = half << 1
    block = ((1 << half) - 1) << half
    reps = (1 << n) // period
    return block * (((1 << (reps * period)) - 1) // ((1 << period) - 1))


def _point_trues(universe: int, index: int) -> int:
    trues = 0
    for k, v in enumerate(vars_of(universe)):
        if (index >> k) & 1:
            trues |= 1 << v
    return trues


def point_assignment(universe: int, index: int) -> Assignment:
    """Decode a truth-table point index into an assignment."""
    return Assignment(universe, _point_trues(universe, index))


class TruthTable(Value):
    """Dense 2**n-entry table packed into one integer."""

    __slots__ = ("bits", "universe")
    bits: int
    universe: int

    def __init__(self, bits: int, universe: int):
        self._set("bits", bits)
        self._set("universe", universe)

    @property
    def size(self) -> int:
        return 1 << self.universe.bit_count()

    @classmethod
    def from_anf(cls, f: Anf) -> "TruthTable":
        n = f.universe.bit_count()
        pos = {v: k for k, v in enumerate(vars_of(f.universe))}
        full = (1 << (1 << n)) - 1
        acc = 0
        for m in f.monomials:
            tt = full
            for v in vars_of(m):
                tt &= _var_pattern(pos[v], n)
            acc ^= tt
        return cls(acc, f.universe)

    @classmethod
    def from_term(cls, t: Term, universe: int) -> "TruthTable":
        n = universe.bit_count()
        pos = {v: k for k, v in enumerate(vars_of(universe))}
        full = (1 << (1 << n)) - 1
        tt = full
        for v in vars_of(t.pos):
            tt &= _var_pattern(pos[v], n)
        for v in vars_of(t.neg):
            tt &= full ^ _var_pattern(pos[v], n)
        return cls(tt, universe)

    @classmethod
    def from_system(cls, sys: BoolSystem) -> "TruthTable":
        """Conjunction of all factors: 1 exactly on the solution set."""
        n = sys.universe.bit_count()
        acc = (1 << (1 << n)) - 1
        for h in sys.factors:
            acc &= cls.from_anf(h.with_universe(sys.universe)).bits
        return cls(acc, sys.universe)

    def to_anf(self) -> Anf:
        """Invert the evaluation map (binary Moebius transform)."""
        n = self.universe.bit_count()
        size = 1 << n
        a = [(self.bits >> i) & 1 for i in range(size)]
        for k in range(n):
            step = 1 << k
            for i in range(size):
                if i & step:
                    a[i] ^= a[i ^ step]
        vs = vars_of(self.universe)
        monomials = []
        for i in range(size):
            if a[i]:
                m = 0
                for k in range(n):
                    if (i >> k) & 1:
                        m |= 1 << vs[k]
                monomials.append(m)
        return Anf(frozenset(monomials), self.universe)

    def count(self) -> int:
        return self.bits.bit_count()

    def points(self) -> Iterator[int]:
        """Indices of set entries, ascending."""
        bits = self.bits
        i = 0
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            yield i
            bits ^= low


class ValidationReport(Value):
    """Outcome of exhaustively auditing an implicant cover."""

    __slots__ = ("sound", "orthogonal", "complete", "unsound_term", "overlap", "missing_point")
    sound: bool
    orthogonal: bool
    complete: bool
    unsound_term: tuple[int, Assignment] | None
    overlap: tuple[int, int, Assignment] | None
    missing_point: Assignment | None

    def __init__(
        self,
        sound: bool,
        orthogonal: bool,
        complete: bool,
        unsound_term: tuple[int, Assignment] | None = None,
        overlap: tuple[int, int, Assignment] | None = None,
        missing_point: Assignment | None = None,
    ):
        self._set("sound", sound)
        self._set("orthogonal", orthogonal)
        self._set("complete", complete)
        self._set("unsound_term", unsound_term)
        self._set("overlap", overlap)
        self._set("missing_point", missing_point)

    @property
    def ok(self) -> bool:
        return self.sound and self.orthogonal and self.complete


def validate_implicant_set(
    cover: ImplicantSet, sys: BoolSystem, cap: int = 24
) -> ValidationReport:
    """Check soundness, pairwise orthogonality and completeness by truth table.

    Soundness: every term lies inside the solution set.  Orthogonality:
    no two terms share a point.  Completeness: the union hits every
    solution.  The first counterexample of each kind is decoded.
    """
    if cover.universe != sys.universe:
        raise ValueError("cover and system universes differ")
    n = sys.universe.bit_count()
    if n > cap:
        raise ValueError(f"{n} variables exceeds the exhaustive cap {cap}")
    sol = TruthTable.from_system(sys).bits
    sound, orthogonal = True, True
    unsound_term = overlap = None
    union = 0
    for idx, t in enumerate(cover.terms):
        tt = TruthTable.from_term(t, sys.universe).bits
        if sound and tt & ~sol:
            bad = (tt & ~sol) & -(tt & ~sol)
            sound = False
            unsound_term = (idx, point_assignment(sys.universe, bad.bit_length() - 1))
        if orthogonal and tt & union:
            shared = (tt & union) & -(tt & union)
            point = shared.bit_length() - 1
            prev = next(
                j
                for j, s in enumerate(cover.terms[:idx])
                if _term_hits(s, sys.universe, point)
            )
            orthogonal = False
            overlap = (prev, idx, point_assignment(sys.universe, point))
        union |= tt
    missing = sol & ~union
    complete = missing == 0
    missing_point = None
    if not complete:
        low = missing & -missing
        missing_point = point_assignment(sys.universe, low.bit_length() - 1)
    return ValidationReport(sound, orthogonal, complete, unsound_term, overlap, missing_point)


def _term_hits(t: Term, universe: int, point: int) -> bool:
    return t.satisfies(point_assignment(universe, point))


class OrthogonalityError(ValueError):
    """A family of terms claimed to be pairwise orthogonal is not."""


def _orthogonality_violation(ts: Sequence[Term]) -> tuple[int, int] | None:
    """The first pair of terms with no clashing literal, so sharing a point."""
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            a, b = ts[i], ts[j]
            if not (a.pos | b.pos) & (a.neg | b.neg):
                return (i, j)
    return None


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
    bad = _orthogonality_violation(s.terms)
    if bad is not None:
        raise OrthogonalityError(f"terms {bad[0]} and {bad[1]} overlap")
    return s.satisfying_total() == 1 << s.universe.bit_count()


def solution_count(sys: BoolSystem, cap: int = 24) -> int:
    n = sys.universe.bit_count()
    if n > cap:
        raise ValueError(f"{n} variables exceeds the exhaustive cap {cap}")
    return TruthTable.from_system(sys).count()


def brute_solutions(sys: BoolSystem, cap: int = 24) -> list[Assignment]:
    """All satisfying points in ascending point-index order."""
    n = sys.universe.bit_count()
    if n > cap:
        raise ValueError(f"{n} variables exceeds the exhaustive cap {cap}")
    tt = TruthTable.from_system(sys)
    return [point_assignment(sys.universe, i) for i in tt.points()]


def _outputs(F: "BoolMap", cap: int) -> Iterator[int]:
    """F(x) with coordinate j at bit j, x ascending; the cap is checked on first read."""
    if F.n_in > cap:
        raise ValueError(f"{F.n_in} inputs exceeds the exhaustive cap {cap}")
    n_bytes = ((1 << F.n_in) + 7) // 8
    views = [TruthTable.from_anf(f).bits.to_bytes(n_bytes, "little") for f in F.coords]
    for x in range(1 << F.n_in):
        byte, shift = x >> 3, x & 7
        y = 0
        for j, view in enumerate(views):
            y |= ((view[byte] >> shift) & 1) << j
        yield y


def brute_image(F: "BoolMap", cap: int = 16) -> frozenset[int]:
    """Every attained output, packed with coordinate j at bit j."""
    return frozenset(_outputs(F, cap))


def brute_image_count(F: "BoolMap", cap: int = 24) -> int:
    """Distinct outputs; bitset-backed so it scales past set overhead."""
    outputs = _outputs(F, cap)
    m = len(F.coords)
    if m > 24:
        return len(set(outputs))
    seen = bytearray(1 << max(m - 3, 0))
    count = 0
    for y in outputs:
        byte, bit = y >> 3, 1 << (y & 7)
        if not seen[byte] & bit:
            seen[byte] |= bit
            count += 1
    return count


def brute_injective(
    F: "BoolMap", cap: int = 16
) -> tuple[bool, tuple[Assignment, Assignment] | None]:
    """Scan for a collision; the witness pair is in input-scan order."""
    universe = (1 << F.n_in) - 1
    seen: dict[int, int] = {}
    for x, y in enumerate(_outputs(F, cap)):
        if y in seen:
            return False, (
                point_assignment(universe, seen[y]),
                point_assignment(universe, x),
            )
        seen[y] = x
    return True, None
