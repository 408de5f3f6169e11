"""Computation of complete orthogonal implicant covers.

The decomposition is one loop over an explicit stack of branches, each
a seed cube held as its two masks with the system cofactored by it, so
its depth is not bounded by the interpreter's.  A step either scans the
system as one leaf, or picks variable-disjoint small-support factors,
solves each by minterm enumeration and crosses their covers one factor
at a time from the seed, in breadth-first order over shared variables.
It cofactors the other (residual) factors as it goes, so a partial
branch is dropped as soon as a residual factor becomes 0 or two of them
force one variable both ways, the unit propagation of DPLL.  A residual
factor that is one literal is settled by its mask, with no cofactor.
Every live cross term goes back on the stack with its residual system,
or, when no residual factor is left, is itself a cover term.  When no
factor is small enough the step makes a Boole-Shannon split, crossing
the split variable's two literals the same way.

The leaf is bit-sliced: each factor over a scan of k variables becomes
a 2**k-bit truth table held in one integer.  Each monomial sets its bit
of a coefficient table, and the k shift-and-XOR steps of the Moebius
transform turn that into the truth table; ``gf2n`` runs the same
transform the other way.  Usually the scan is the whole support: each
factor's table is transformed on its own and ANDed into the leaf's as
it comes, and the satisfying minterms are read off the set bits.
When every factor has a variable of its own that occurs in
it only as a lone monomial, as each y_j does in the graph factor
f_j(X) + y_j + 1, the factor fixes that variable as a function of the
others.  The scan then runs over the other variables only, every point
is a solution, and each solved variable is read off its own factor's
table.  So the graph system of a map with n inputs is one scan of 2**n
points, whatever its number of outputs, and the bound counts scanned
variables, not the support.  The map verdicts need no terms at all.
The solved columns of a graph system are the truth tables of the map's
coordinates, so ``_functional_scan`` scans the coordinates themselves
and transposes their tables into one output word per point.  The map
verdicts call it with ``DEFAULT_BOUND``: a map reading k > 12 inputs is
scanned in 2**(k - 12) chunks, one per point of its lowest read
variables, and the words come out as those of one scan.
The decomposition collects its terms unordered and the top level sorts
them once, so output order is canonical.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from operator import mul, or_
from sys import byteorder
from typing import Iterable, Sequence

from .algebra import Anf, BoolSystem, ImplicantSet, Term, Value, bit_flags, mask_of, submasks, vars_of

#: Largest number of variables one leaf scan enumerates.
DEFAULT_BOUND = 12

#: Largest accepted enumeration bound: a leaf truth table holds 2**k bits.
MAX_BOUND = 20

_ONE = Anf.one()  # what a settled literal factor cofactors to


class BoundExceededError(ValueError):
    """Leaf scan over too many variables for enumeration; decompose instead."""

    def __init__(self, size: int, bound: int):
        super().__init__(
            f"a scan of {size} variables exceeds the enumeration bound {bound}; "
            "use implicants() to decompose the system first"
        )
        self.size = size
        self.bound = bound


class EngineConfig(Value):
    """Solver knobs: the most variables one leaf scan enumerates."""

    __slots__ = ("base_bound_m",)
    base_bound_m: int

    def __init__(self, base_bound_m: int = DEFAULT_BOUND):
        if not 1 <= base_bound_m <= MAX_BOUND:
            raise ValueError(
                f"bound must be at least 1 and at most {MAX_BOUND}, got {base_bound_m}"
            )
        self._set("base_bound_m", base_bound_m)


class ClusterPlan(Value):
    """Partition of factor indices chosen for one decomposition step.

    ``disjoint_factors`` have pairwise disjoint supports, each within the
    enumeration bound.  When none fits, it is empty, every factor is
    residual, and the step splits on ``split_var`` instead.
    """

    __slots__ = ("disjoint_factors", "residual", "split_var")
    disjoint_factors: tuple[int, ...]
    residual: tuple[int, ...]
    split_var: int | None

    def __init__(
        self,
        disjoint_factors: tuple[int, ...],
        residual: tuple[int, ...],
        split_var: int | None = None,
    ):
        self._set("disjoint_factors", disjoint_factors)
        self._set("residual", residual)
        self._set("split_var", split_var)


@lru_cache(maxsize=None)
def _index_patterns(k: int) -> tuple[int, ...]:
    """For each bit b of the point index, the table over 2**k points that is 1 where it is 1."""
    patterns = []
    for b in range(k):
        half = 1 << b
        pattern = ((1 << half) - 1) << half  # one period: half zeros, then half ones
        width = half << 1
        while width < 1 << k:
            pattern |= pattern << width
            width <<= 1
        patterns.append(pattern)
    return tuple(patterns)


def moebius(bits: int, n: int) -> int:
    """Binary Moebius transform of a table over 2**n points; it is its own inverse.

    Bit i of ``bits`` is the value at point i.  Read as a truth table it
    gives the ANF coefficient table: bit i of the result is the
    coefficient of the monomial whose variables are the set bits of i.
    Read as a coefficient table it gives the truth table.  Each step XORs
    the half with index bit b clear into the half with it set, all points
    at once.
    """
    shift = 1
    for pattern in _index_patterns(n):
        bits ^= (bits << shift) & pattern
        shift <<= 1
    return bits


def _factor_table(
    monomials: Iterable[int],
    points: list[int],
    lo: int | None,
    index_bit: dict[int, int] | None,
) -> int:
    """Truth table over the points of a leaf scan of the XOR of ``monomials``.

    ``points[i]`` holds the scanned variables true at point i, as
    ``submasks`` lists them, and every monomial is one of them.  The
    coefficient table has bit i set when ``points[i]`` is a monomial, and
    one Moebius transform turns it into the truth table.  When the scan
    is the run of variables from ``lo`` up, the point order reverses the
    run's bits, and reversal undoes itself, so monomial m sits at
    ``points[m >> lo] >> lo``.  Any other scan (``lo`` None) has
    ``index_bit``, the bit of the point index of each scanned variable's
    bit, and m sits at the OR of those of its variables.
    """
    coefficients = 0
    if lo is not None:
        for m in monomials:
            coefficients |= 1 << (points[m >> lo] >> lo)
    else:
        for m in monomials:
            i = 0
            while m:
                low = m & -m
                i |= index_bit[low]
                m ^= low
            coefficients |= 1 << i
    return moebius(coefficients, len(points).bit_length() - 1)


def _leaf_scan(factors: tuple[Anf, ...]) -> tuple[int, tuple[int, ...] | None]:
    """The variables a leaf scan enumerates, and each factor's solved variable.

    A variable is private-linear when it occurs in exactly one factor and
    only as a monomial of its own there, as y_j does in the graph factor
    f_j(X) + y_j + 1.  The factor is 1 exactly when that variable is 1
    plus the rest of the factor, a function of the other variables.  The
    highest-indexed private-linear variable is the factor's solved one.
    When every factor has one, the scan skips the solved variables;
    otherwise it runs over the whole support and the tuple is None.
    The scanned and solved variables together are the support.
    """
    seen = shared = 0
    for h in factors:
        shared |= seen & h.support
        seen |= h.support
    solved = []
    scanned = seen
    for h in factors:
        private = h.support & ~shared
        if private:
            for m in h.monomials:
                if m & (m - 1):  # a product of two or more variables
                    private &= ~m
        if not private:
            scanned, solved = seen, None
            break
        p = private.bit_length() - 1
        solved.append(p)
        scanned ^= 1 << p
    return scanned, solved if solved is None else tuple(solved)


def _scan_points(scanned: int, k: int) -> tuple[list[int], int | None, dict[int, int] | None]:
    """The points of a scan of the k variables of ``scanned``, and ``_factor_table``'s placement."""
    lo, index_bit = scanned.bit_length() - k, None
    if scanned >> lo != (1 << k) - 1:  # the scanned variables are not one run
        lo = None
        index_bit = {1 << v: 1 << (k - 1 - j) for j, v in enumerate(vars_of(scanned))}
    return submasks(scanned), lo, index_bit


#: ``memoryview.cast`` format of the native unsigned integer of each width.
_WORD_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _words(columns: list[int], size: int) -> Sequence[int]:
    """The transpose of the tables: word i has bit j from bit i of ``columns[j]``.

    Each column's digits go into one buffer at a stride of ``width``
    digits, a slot per point, highest point first.  Up to 64 columns one
    ``int`` reads the buffer, and its bytes are the words as native 8-,
    16-, 32- or 64-bit integers; wider words are read one slot at a time.
    """
    m = len(columns)
    width = m if m > 64 else max(8, 1 << (m - 1).bit_length())
    digits = bytearray(b"0") * (size * width)
    for j, column in enumerate(columns):
        # character c of the column is its bit at point size - 1 - c
        digits[width - 1 - j :: width] = format(column, f"0{size}b").encode()
    if m > 64:
        return [int(digits[s : s + m], 2) for s in range((size - 1) * m, -1, -m)]
    # the integer holds word i from bit i * width up
    data = int(digits, 2).to_bytes(size * width // 8, byteorder)
    words = memoryview(data).cast(_WORD_FORMAT[width])
    return words if byteorder == "little" else words[::-1]


def _functional_scan(coords: tuple[Anf, ...], bound: int) -> list[int]:
    """Each point's word over the variables the coordinates read.

    Word i packs each coordinate's value at point i of ``submasks`` of
    the OR of their supports, coordinate j at bit j: for a map that is
    ``BoolMap.evaluate`` at the point.  Those are the solved columns of
    the functional scan of the graph system, whose factor
    f_j(X) + y_j + 1 fixes y_j = f_j(x), and the points come in
    canonical term order.  No ``Term`` is made.

    The scan runs in chunks of 2**``bound`` points when the coordinates
    read more than ``bound`` (1..MAX_BOUND) variables: for each point of
    the lowest read variables past ``bound``, in canonical order, the
    others are scanned in the coordinates cofactored by it.  Those seed
    variables are the most significant digits of the point order, so the
    chunks give the words of one scan, element for element, at every
    width.  The cofactors are made one seed variable at a time on a
    stack, so chunks share those of their common prefix.
    """
    scanned = 0
    for f in coords:
        scanned |= f.support
    seed_vars = vars_of(scanned)[: max(0, scanned.bit_count() - bound)]
    rest = scanned & ~mask_of(seed_vars)
    points, lo, index_bit = _scan_points(rest, rest.bit_count())
    words: list[int] = []
    stack = [(0, coords)]  # seed variables fixed, the cofactors
    while stack:
        depth, fs = stack.pop()
        if depth == len(seed_vars):
            columns = [_factor_table(f.monomials, points, lo, index_bit) for f in fs]
            words += _words(columns, len(points))
            continue
        bit = 1 << seed_vars[depth]
        for t in (Term(bit, 0), Term(0, bit)):  # the 0 branch is popped first
            stack.append((depth + 1, tuple(f.ratio(t) if f.support & bit else f for f in fs)))
    return words


def impl_for_simple(f: Anf | BoolSystem, bound: int = DEFAULT_BOUND) -> ImplicantSet:
    """All satisfying minterms of ``f``, or of the AND of a system's factors.

    The scan runs over ``f.support``, the first (lowest-index) variable as
    the most significant bit of the point index, so ascending points come
    out in the canonical term order used everywhere else.  Variables the
    conjunction does not depend on are left free, which makes the result
    the minterms over the support of the product polynomial.

    When every factor has a solved variable (see ``_leaf_scan``), the
    scan runs over the other variables only and ``bound`` limits their
    number.  Every point is then a solution, with each solved variable
    read off its own factor, and every support variable is essential.
    """
    factors = f.factors if isinstance(f, BoolSystem) else (f,)
    scanned, solved = _leaf_scan(factors)
    k = scanned.bit_count()
    if k > bound or k > MAX_BOUND:
        raise BoundExceededError(k, min(bound, MAX_BOUND))
    points, lo, index_bit = _scan_points(scanned, k)  # trues of the scanned variables
    size = 1 << k
    essential = scanned
    if solved is not None:
        trues = points
        for h, p in zip(factors, solved):
            bit = 1 << p
            essential |= bit
            # p is one plus the rest of its factor: its monomial gives way to 1
            column = _factor_table(h.monomials ^ {bit, 0}, points, lo, index_bit)
            trues = list(map(or_, trues, map(mul, bit_flags(column, size), repeat(bit))))
    else:
        table = (1 << size) - 1
        for h in factors:
            table &= _factor_table(h.monomials, points, lo, index_bit)
            if not table:
                return ImplicantSet((), 0)
        patterns = _index_patterns(k)
        for j, v in enumerate(vars_of(scanned)):
            b = k - 1 - j  # the point-index bit of v
            p = patterns[b]
            low = table & ~p
            if low == (table & p) >> (1 << b):
                table = low  # keep the points with v = 0; v stays free
                essential ^= 1 << v
        trues = compress(points, bit_flags(table, size))
    out = [Term(t, essential ^ t) for t in trues]
    if solved and scanned and min(solved) < scanned.bit_length() - 1:
        out.sort(key=Term.sort_key)  # a solved variable precedes a scanned one
    return ImplicantSet(tuple(out), essential)


def select_disjoint_clusters(sys: BoolSystem, cfg: EngineConfig) -> ClusterPlan:
    """Greedy smallest-support-first packing of variable-disjoint factors.

    Factors are scanned by (support size, index).  A factor is admitted
    when it fits the bound and shares no variable with those already
    admitted.  If nothing fits the bound at all, the plan is a Shannon
    split with every factor residual, on the variable occurring in the
    most factors (lowest index on ties).
    """
    if not sys.factors:
        raise ValueError("cannot plan an empty factor list")
    order = sorted(range(len(sys.factors)), key=lambda i: (sys.factors[i].support.bit_count(), i))
    admitted: list[int] = []
    taken = 0
    for i in order:
        s = sys.factors[i].support
        if s.bit_count() <= cfg.base_bound_m and not (s & taken):
            admitted.append(i)
            taken |= s
    if not admitted:
        counts: dict[int, int] = {}
        for h in sys.factors:
            for v in vars_of(h.support):
                counts[v] = counts.get(v, 0) + 1
        split = min(counts, key=lambda v: (-counts[v], v))
        return ClusterPlan((), tuple(range(len(sys.factors))), split_var=split)
    packed = set(admitted)
    rest = tuple(i for i in range(len(sys.factors)) if i not in packed)
    return ClusterPlan(tuple(admitted), rest)


def _crossing_order(
    packed: tuple[int, ...], factor_vars: list[list[int]], occurs: dict[int, list[int]]
) -> list[int]:
    """Packed factor indices in breadth-first order over shared variables.

    The search runs through packed and residual factors alike, from each
    packed factor not reached yet in plan order, so consecutive packed
    factors meet the same residual factors whatever the equation order.
    The search stops once every packed factor is in the order.  With one
    packed factor it stops at its start, and with no residual factor each
    search reaches only its start, so the order is the plan order.
    """
    is_packed = set(packed)
    seen: set[int] = set()
    done_vars: set[int] = set()
    order = []
    for start in packed:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for i in queue:  # the loop also visits what it appends
            if i in is_packed:
                order.append(i)
                if len(order) == len(packed):
                    return order
            for v in factor_vars[i]:
                if v not in done_vars:
                    done_vars.add(v)
                    for k in occurs[v]:
                        if k not in seen:
                            seen.add(k)
                            queue.append(k)
    return order


def _cofactor_near(
    res: dict[int, Anf], near: Iterable[int], t: Term, occurs: dict[int, list[int]]
) -> dict[int, Anf] | None:
    """``res`` with its factors in ``near`` that ``t`` touches cofactored by ``t``.

    Constant-1 cofactors leave the map.  None when the branch is dead: a
    cofactor is 0, or a cofactor that is a single literal meets the
    opposite literal on the same variable.  A touched factor that is
    itself a single literal, x_v or x_v + 1, is settled by its mask with
    no ``Anf.ratio``: its cofactor is 0 when ``t`` fixes v the other way,
    and 1 otherwise, so it leaves the map.
    """
    mask = t.vars_mask
    changed = {}
    for k in near:
        h = res.get(k)
        if h is None or not (s := h.support) & mask:
            continue
        if s & (s - 1):
            h = h.ratio(t)
            if h.is_zero:
                return None
        elif (0 in h.monomials) == bool(s & t.pos):  # x_v + 1 with v = 1, or x_v with v = 0
            return None
        else:
            h = _ONE
        changed[k] = h
    if not changed:
        return res
    for h in changed.values():
        s = h.support
        if s and not s & (s - 1):  # h is x_v or x_v + 1
            for j in occurs[s.bit_length() - 1]:
                g = changed[j] if j in changed else res.get(j)
                if g is not None and g.support == s and g.monomials != h.monomials:
                    return None
    out = dict(res)
    for k, h in changed.items():
        if h.is_one:
            del out[k]
        else:
            out[k] = h
    return out


def _solve(branches: Iterable[tuple[int, int, BoolSystem]], cfg: EngineConfig) -> list[Term]:
    """Each seed ANDed with each cover term of the system under it.

    A branch is a seed cube, as its ``pos`` and ``neg`` masks, and the
    system cofactored by it, which no longer mentions the seed's
    variables, so no product is a contradiction.  A branch is one leaf
    when its support is within the bound; a wider one still is when the
    functional scan ``_leaf_scan`` finds is.  A constant-1 factor has no
    solved variable, so the entry branches drop theirs, as
    ``_cofactor_near`` does for every later branch; a 0 factor needs no
    check, since a leaf's table or a packed cover of it is empty.  Every
    other step has one shape.  It indexes the factors that use each
    variable and crosses the covers of its plan starting from its own
    seed: those of the packed factors in ``_crossing_order``, or for a
    Shannon split the two literals of the split variable.  A packed
    cover's neighbours, taken as the cross reaches it, are the other
    factors that share a variable with it, so all are residual, since
    packed factors share none; a split's are the factors using its
    variable.  After each cover only its neighbours are cofactored, in
    each branch's map of residual factors, and a branch is dropped as
    soon as one of them is 0 or two single-literal cofactors clash; once
    every branch is dropped, no further cover is solved.  A dropped
    branch has an unsatisfiable residual, so the cover is the one the
    full product of the crossed covers gives.  The live branches go
    straight on the stack, except one with no residual factor left: its
    cross term is a cover term, so it goes into the cover with no leaf
    scan, and it counts as a leaf.  Terms come in canonical order: one
    leaf scan makes its terms so, and the terms of more than one leaf
    are sorted once at the end.
    """
    bound = cfg.base_bound_m
    out: list[Term] = []
    leaves = 0
    stack = [
        (pos, neg, BoolSystem(tuple(h for h in sys.factors if not h.is_one), sys.universe))
        for pos, neg, sys in branches
    ]
    while stack:
        pos, neg, sys = stack.pop()
        factors = sys.factors
        if sys.support.bit_count() <= bound or _leaf_scan(factors)[0].bit_count() <= bound:
            leaves += 1
            terms = impl_for_simple(sys, bound).terms
            if pos | neg:
                out.extend(Term(pos | s.pos, neg | s.neg) for s in terms)
            else:  # the empty seed: the leaf's terms are already the products
                out.extend(terms)
            continue
        plan = select_disjoint_clusters(sys, cfg)
        factor_vars = [vars_of(h.support) for h in factors]
        occurs: dict[int, list[int]] = {}  # variable -> indices of the factors using it
        for i, vs in enumerate(factor_vars):
            for v in vs:
                occurs.setdefault(v, []).append(i)
        if plan.split_var is None:
            covers = (
                (
                    impl_for_simple(factors[i], bound).terms,
                    {k for v in factor_vars[i] for k in occurs[v] if k != i},  # its neighbours
                )
                for i in _crossing_order(plan.disjoint_factors, factor_vars, occurs)
            )
        else:
            bit = 1 << plan.split_var
            covers = (((Term(0, bit), Term(bit, 0)), occurs[plan.split_var]),)
        partial = [(pos, neg, {i: factors[i] for i in plan.residual})]
        for terms, near in covers:
            # crossed covers have disjoint supports, so their terms never clash
            partial = [
                (pos | t.pos, neg | t.neg, sub)
                for pos, neg, res in partial
                for t in terms
                if (sub := _cofactor_near(res, near, t, occurs)) is not None
            ]
            if not partial:
                break
        for pos, neg, res in partial:
            if res:
                residual = BoolSystem(tuple(res.values()), sys.universe & ~(pos | neg))
                stack.append((pos, neg, residual))
            else:
                leaves += 1
                out.append(Term(pos, neg))
    if leaves > 1:
        out.sort(key=Term.sort_key)
    return out


def implicants(sys: BoolSystem, cfg: EngineConfig | None = None) -> ImplicantSet:
    """Complete orthogonal implicant cover of the system's solution set.

    Empty result means the system is unsatisfiable.  Terms come back in
    canonical order, so equal inputs give byte-equal outputs.
    """
    cfg = cfg or EngineConfig()
    return ImplicantSet(tuple(_solve([(0, 0, sys)], cfg)), sys.universe)


def compose_product(
    seed: ImplicantSet, sys_g: BoolSystem, cfg: EngineConfig | None = None
) -> ImplicantSet:
    """Implicants of (cover's function) AND (system), built per seed term.

    For each seed term the system is cofactored and solved;
    branches whose cofactored system is unsatisfiable vanish on their
    own.  The result is complete and orthogonal for the conjunction.
    """
    cfg = cfg or EngineConfig()
    universe = seed.universe | sys_g.universe
    out = _solve([(t.pos, t.neg, sys_g.ratio(t)) for t in seed.terms], cfg)
    return ImplicantSet(tuple(out), universe)
