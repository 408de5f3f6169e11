"""Computation of complete orthogonal implicant covers.

The solver picks variable-disjoint small-support factors and solves each
by minterm enumeration.  It crosses their covers one factor at a time,
in breadth-first order over shared variables, and cofactors the other
(residual) factors as it goes, so a partial branch is dropped as soon
as a residual factor becomes 0 or two of them force one variable both
ways, the unit propagation of DPLL.  It then goes on with the residual
system under every live cross term.  When no factor is small enough it
falls back to a Boole-Shannon split, crossing the split variable's two
literals the same way.  The decomposition runs on an explicit stack, so
its depth is not bounded by the interpreter's.

The leaf is bit-sliced: each factor over a scan of k variables becomes
a 2**k-bit truth table held in one integer, built from cached per-variable
bit patterns.  Usually the scan is the whole support: the factor tables
are ANDed and the satisfying minterms are read off the set bits.  When
every factor has a variable of its own that occurs in it only as a lone
monomial, as each y_j does in the graph factor f_j(X) + y_j + 1, the
factor fixes that variable as a function of the others.  The scan then
runs over the other variables only, every point is a solution, and each
solved variable is read off its own factor's table.  So the graph system
of a map with n inputs is one scan of 2**n points, whatever its number
of outputs, and the bound counts scanned variables, not the support.
The decomposition collects its terms unordered and the top level sorts
them once, so output order is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .algebra import Anf, BoolSystem, ImplicantSet, Term, vars_of

#: Largest number of variables one leaf scan enumerates.
DEFAULT_BOUND = 12

#: Largest accepted enumeration bound: a leaf truth table holds 2**k bits.
MAX_BOUND = 20


class BoundExceededError(ValueError):
    """Leaf scan over too many variables for enumeration; decompose instead."""

    def __init__(self, size: int, bound: int):
        super().__init__(
            f"a scan of {size} variables exceeds the enumeration bound {bound}; "
            "use implicants() to decompose the system first"
        )
        self.size = size
        self.bound = bound


@dataclass(frozen=True)
class EngineConfig:
    """Solver knobs: the most variables one leaf scan enumerates."""

    base_bound_m: int = DEFAULT_BOUND

    def __post_init__(self):
        if self.base_bound_m < 1:
            raise ValueError("base_bound_m must be at least 1")
        if self.base_bound_m > MAX_BOUND:
            raise ValueError(f"base_bound_m must be at most {MAX_BOUND}")


@dataclass(frozen=True)
class ClusterPlan:
    """Partition of factor indices chosen for one decomposition step.

    ``disjoint_factors`` have pairwise disjoint supports, each within the
    enumeration bound, except when ``split_var`` is set: then no factor
    fit the bound, the smallest is listed alone, and the recursion must
    branch on ``split_var`` instead of enumerating.
    """

    disjoint_factors: tuple[int, ...]
    residual: tuple[int, ...]
    split_var: int | None = None


@lru_cache(maxsize=None)
def _index_pattern(b: int, k: int) -> int:
    """Table over 2**k points that is 1 where bit ``b`` of the point index is 1."""
    half = 1 << b
    pattern = ((1 << half) - 1) << half  # one period: half zeros, then half ones
    width = half << 1
    while width < 1 << k:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _factor_table(monomials: Iterable[int], index_bit: dict[int, int], k: int) -> int:
    """Truth table over 2**k points of the XOR of ``monomials``."""
    full = (1 << (1 << k)) - 1
    acc = 0
    for m in monomials:
        t = full
        for v in vars_of(m):
            t &= _index_pattern(index_bit[v], k)
        acc ^= t
    return acc


def _leaf_scan(factors: tuple[Anf, ...]) -> tuple[int, list[int] | None]:
    """The variables a leaf scan enumerates, and each factor's solved variable.

    A variable is private-linear when it occurs in exactly one factor and
    only as a monomial of its own there, as y_j does in the graph factor
    f_j(X) + y_j + 1.  The factor is 1 exactly when that variable is 1
    plus the rest of the factor, a function of the other variables.  The
    highest-indexed private-linear variable is the factor's solved one.
    When every factor has one, the scan skips the solved variables;
    otherwise it runs over the whole support and the list is None.
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
            return seen, None
        p = private.bit_length() - 1
        solved.append(p)
        scanned ^= 1 << p
    return scanned, solved


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
    support = f.support
    scanned, solved = _leaf_scan(factors)
    k = scanned.bit_count()
    limit = min(bound, MAX_BOUND)
    if k > limit:
        raise BoundExceededError(k, limit)
    vs = vars_of(scanned)
    index_bit = {v: k - 1 - j for j, v in enumerate(vs)}
    points = [0]  # trues of the scanned variables at each point index
    for v in reversed(vs):
        bit = 1 << v
        points += [t | bit for t in points]
    if solved is not None:
        for h, p in zip(factors, solved):
            bit = 1 << p
            rest = _factor_table(h.monomials - {bit}, index_bit, k)
            column = format(rest, f"0{1 << k}b")[::-1]  # character i: rest at point i
            # p = rest + 1
            points = [t | bit if c == "0" else t for t, c in zip(points, column)]
        out = [Term(t, support ^ t) for t in points]
        if vs and min(solved) < vs[-1]:
            out.sort(key=Term.sort_key)  # a solved variable precedes a scanned one
        return ImplicantSet(tuple(out), support)
    table = (1 << (1 << k)) - 1
    for h in factors:
        table &= _factor_table(h.monomials, index_bit, k)
        if not table:
            return ImplicantSet((), 0)
    essential = support
    for v in vs:
        b = index_bit[v]
        p = _index_pattern(b, k)
        low = table & ~p
        if low == (table & p) >> (1 << b):
            table = low  # keep the points with v = 0; v stays free
            essential ^= 1 << v
    bits = format(table, "b")[::-1]  # character i is the value at point i
    out = []
    i = bits.find("1")
    while i >= 0:
        trues = points[i]
        out.append(Term(trues, essential & ~trues))
        i = bits.find("1", i + 1)
    return ImplicantSet(tuple(out), essential)


def select_disjoint_clusters(sys: BoolSystem, cfg: EngineConfig) -> ClusterPlan:
    """Greedy smallest-support-first packing of variable-disjoint factors.

    Factors are scanned by (support size, index).  A factor is admitted
    when it fits the bound and shares no variable with those already
    admitted.  If nothing fits the bound at all, the smallest factor is
    returned alone with a Shannon split variable: the variable occurring
    in the most factors (lowest index on ties).
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
        smallest = order[0]
        counts: dict[int, int] = {}
        for h in sys.factors:
            for v in vars_of(h.support):
                counts[v] = counts.get(v, 0) + 1
        split = min(counts, key=lambda v: (-counts[v], v))
        rest = tuple(i for i in range(len(sys.factors)) if i != smallest)
        return ClusterPlan((smallest,), rest, split_var=split)
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
    opposite literal on the same variable.
    """
    mask = t.vars_mask
    changed = {}
    for k in near:
        h = res.get(k)
        if h is not None and h.support & mask:
            h = h.ratio(t)
            if h.is_zero:
                return None
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


def _branches(sys: BoolSystem, cfg: EngineConfig) -> list[tuple[Term, BoolSystem]]:
    """Orthogonal seed terms with the live residual system under each.

    The covers are crossed one at a time, each partial branch carrying
    its seed and the cofactors of the residual factors that are not
    constant 1.  After each cover only the residual factors sharing a
    variable with it are cofactored, and a branch is dropped as soon as
    one of them is 0 or two single-literal cofactors clash.  A dropped
    branch has an unsatisfiable residual, so the cover is the one the
    full product of the crossed covers gives.  The covers are those of
    the packed factors, or for a Shannon split the two literals of the
    split variable, with every factor residual.
    """
    plan = select_disjoint_clusters(sys, cfg)
    factors = sys.factors
    split = plan.split_var
    residual = plan.residual if split is None else range(len(factors))
    occurs: dict[int, list[int]] = {}  # variable -> indices of the factors using it
    if residual:
        factor_vars = [vars_of(h.support) for h in factors]
        for i, vs in enumerate(factor_vars):
            for v in vs:
                occurs.setdefault(v, []).append(i)
    if split is None:
        order = plan.disjoint_factors
        near: dict[int, list[int]] = {}  # packed factor -> residual factors sharing a variable
        if residual:
            is_residual = set(residual)
            for i in order:
                near[i] = list({k for v in factor_vars[i] for k in occurs[v] if k in is_residual})
            if len(order) > 1:
                order = _crossing_order(order, factor_vars, occurs)
        covers = (
            (impl_for_simple(factors[i], cfg.base_bound_m).terms, near.get(i, ())) for i in order
        )
    else:
        bit = 1 << split
        covers = (((Term(0, bit), Term(bit, 0)), occurs[split]),)
    partial = [(0, 0, {i: factors[i] for i in residual})]
    for terms, near_i in covers:
        grown = []
        for pos, neg, res in partial:
            for t in terms:
                sub = _cofactor_near(res, near_i, t, occurs)
                if sub is not None:
                    # crossed covers have disjoint supports, so their terms never clash
                    grown.append((pos | t.pos, neg | t.neg, sub))
        partial = grown
    return [
        (Term(pos, neg), BoolSystem(tuple(res.values()), sys.universe & ~(pos | neg)))
        for pos, neg, res in partial
    ]


def _live(sys: BoolSystem) -> BoolSystem | None:
    """The system without its constant-1 factors; None when a factor is 0."""
    factors = tuple(h for h in sys.factors if not h.is_one)
    for h in factors:
        if h.is_zero:
            return None
    return BoolSystem(factors, sys.universe)


def _solve(branches: Iterable[tuple[Term, BoolSystem]], cfg: EngineConfig) -> list[Term]:
    """Each seed ANDed with each cover term of the system under it.

    That system is cofactored by its seed and no longer mentions the
    seed's variables, so no product is a contradiction.  The entry
    branches are made live here; those ``_branches`` returns already
    are.  An explicit stack replaces recursion, so the depth of the
    decomposition is not limited by the interpreter's.  Terms come in
    canonical order: one leaf scan makes its terms so, and the terms of
    more than one leaf are sorted once at the end.
    """
    out: list[Term] = []
    leaves = 0
    stack = [(seed, live) for seed, sys in branches if (live := _live(sys)) is not None]
    while stack:
        seed, sys = stack.pop()
        if _leaf_scan(sys.factors)[0].bit_count() <= cfg.base_bound_m:
            leaves += 1
            terms = impl_for_simple(sys, cfg.base_bound_m).terms
            if seed.pos | seed.neg:
                out.extend(Term(seed.pos | s.pos, seed.neg | s.neg) for s in terms)
            else:  # the empty seed: the leaf's terms are already the products
                out.extend(terms)
        else:
            for t, sub in _branches(sys, cfg):
                stack.append((Term(seed.pos | t.pos, seed.neg | t.neg), sub))
    if leaves > 1:
        out.sort(key=Term.sort_key)
    return out


def implicants(sys: BoolSystem, cfg: EngineConfig | None = None) -> ImplicantSet:
    """Complete orthogonal implicant cover of the system's solution set.

    Empty result means the system is unsatisfiable.  Terms come back in
    canonical order, so equal inputs give byte-equal outputs.
    """
    cfg = cfg or EngineConfig()
    return ImplicantSet(tuple(_solve([(Term(), sys)], cfg)), sys.universe)


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
    out = _solve([(t, sys_g.ratio(t)) for t in seed.terms], cfg)
    return ImplicantSet(tuple(out), universe)
