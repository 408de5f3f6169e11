"""Recursive computation of complete orthogonal implicant covers.

The solver picks variable-disjoint small-support factors, solves each by
minterm enumeration, crosses the results, and recurses on the remaining
factors cofactored by every cross term.  When no factor is small enough
it falls back to a Boole-Shannon split.

The leaf is bit-sliced: each factor over a support of k variables becomes
a 2**k-bit truth table held in one integer, built from cached per-variable
bit patterns; the factor tables are ANDed and the satisfying minterms are
read off the set bits.  The recursion returns its terms unordered and the
top level sorts them once, so output order is canonical and runs are
reproducible at any parallelism level.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .algebra import Anf, BoolSystem, ImplicantSet, Term, vars_of

#: Largest support handled by direct minterm enumeration.
DEFAULT_BOUND = 12

#: Largest accepted enumeration bound: a leaf truth table holds 2**k bits.
MAX_BOUND = 20


class BoundExceededError(ValueError):
    """Function support too large for enumeration; decompose instead."""

    def __init__(self, size: int, bound: int):
        super().__init__(
            f"support of {size} variables exceeds the enumeration bound {bound}; "
            "use implicants() to decompose the system first"
        )
        self.size = size
        self.bound = bound


@dataclass(frozen=True)
class EngineConfig:
    """Solver knobs.

    ``deterministic`` is accepted for interface stability but output is
    canonically ordered unconditionally; there is no unordered fast path.
    """

    base_bound_m: int = DEFAULT_BOUND
    parallelism: int = 1
    deterministic: bool = True

    def __post_init__(self):
        if self.base_bound_m < 1:
            raise ValueError("base_bound_m must be at least 1")
        if self.base_bound_m > MAX_BOUND:
            raise ValueError(f"base_bound_m must be at most {MAX_BOUND}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


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


def impl_for_simple(f: Anf | BoolSystem, bound: int = DEFAULT_BOUND) -> ImplicantSet:
    """All satisfying minterms of ``f``, or of the AND of a system's factors.

    The scan runs over ``f.support``, the first (lowest-index) variable as
    the most significant bit of the point index, so ascending points come
    out in the canonical term order used everywhere else.  Variables the
    conjunction does not depend on are left free, which makes the result
    the minterms over the support of the product polynomial.
    """
    support = f.support
    k = support.bit_count()
    limit = min(bound, MAX_BOUND)
    if k > limit:
        raise BoundExceededError(k, limit)
    factors = f.factors if isinstance(f, BoolSystem) else (f,)
    vs = vars_of(support)
    index_bit = {v: k - 1 - j for j, v in enumerate(vs)}
    full = (1 << (1 << k)) - 1
    table = full
    for h in factors:
        acc = 0
        for m in h.monomials:
            t = full
            for v in vars_of(m):
                t &= _index_pattern(index_bit[v], k)
            acc ^= t
        table &= acc
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
    var_of_bit = [1 << v for v in reversed(vs)]
    bits = format(table, "b")[::-1]  # character i is the value at point i
    out = []
    i = bits.find("1")
    while i >= 0:
        trues = 0
        rest = i
        while rest:
            low = rest & -rest
            trues |= var_of_bit[low.bit_length() - 1]
            rest ^= low
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
    rest = tuple(i for i in range(len(sys.factors)) if i not in set(admitted))
    return ClusterPlan(tuple(admitted), rest)


def _branches(sys: BoolSystem, cfg: EngineConfig) -> list[tuple[Term, BoolSystem]]:
    """Orthogonal seed terms with the residual system under each."""
    plan = select_disjoint_clusters(sys, cfg)
    if plan.split_var is not None:
        v = plan.split_var
        return [
            (t, sys.ratio(t)) for t in (Term.of((v, 0)), Term.of((v, 1)))
        ]
    per_factor = [
        impl_for_simple(sys.factors[i], cfg.base_bound_m).terms
        for i in plan.disjoint_factors
    ]
    residual = tuple(sys.factors[i] for i in plan.residual)
    out = []
    for combo in itertools.product(*per_factor):
        # packed factors have disjoint supports, so their terms never clash
        pos = neg = 0
        for part in combo:
            pos |= part.pos
            neg |= part.neg
        t = Term(pos, neg)
        sub = BoolSystem(
            tuple(h.ratio(t) for h in residual), sys.universe & ~t.vars_mask
        )
        out.append((t, sub))
    return out


def _live(sys: BoolSystem) -> BoolSystem | None:
    """The system without its constant-1 factors; None when a factor is 0."""
    factors = tuple(h for h in sys.factors if not h.is_one)
    for h in factors:
        if h.is_zero:
            return None
    return BoolSystem(factors, sys.universe)


def _cross(branches: Iterable[tuple[Term, BoolSystem]], cfg: EngineConfig) -> list[Term]:
    """Each seed ANDed with each cover term of the system under it.

    That system is cofactored by its seed and no longer mentions the
    seed's variables, so no product is a contradiction.
    """
    return [seed.conjoin(s) for seed, sub in branches for s in _solve(sub, cfg)]


def _solve(sys: BoolSystem, cfg: EngineConfig) -> list[Term]:
    """Cover terms of the system; canonical order only when one leaf scan made them."""
    live = _live(sys)
    if live is None:
        return []
    if live.support.bit_count() <= cfg.base_bound_m:
        return list(impl_for_simple(live, cfg.base_bound_m).terms)
    return _cross(_branches(live, cfg), cfg)


def implicants(sys: BoolSystem, cfg: EngineConfig | None = None) -> ImplicantSet:
    """Complete orthogonal implicant cover of the system's solution set.

    Empty result means the system is unsatisfiable.  Terms come back in
    canonical order whatever the parallelism, so equal inputs give
    byte-equal outputs.
    """
    cfg = cfg or EngineConfig()
    # constant factors have empty support, so this is the support _solve sees
    if sys.support.bit_count() <= cfg.base_bound_m:
        # at most one leaf scan, whose minterms come in canonical order
        return ImplicantSet(tuple(_solve(sys, cfg)), sys.universe)
    if cfg.parallelism > 1 and (live := _live(sys)) is not None:
        with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
            chunks = pool.map(lambda b: _cross((b,), cfg), _branches(live, cfg))
            terms = [t for chunk in chunks for t in chunk]
    else:
        terms = _solve(sys, cfg)
    terms.sort(key=Term.sort_key)
    return ImplicantSet(tuple(terms), sys.universe)


def compose_product(
    seed: ImplicantSet, sys_g: BoolSystem, cfg: EngineConfig | None = None
) -> ImplicantSet:
    """Implicants of (cover's function) AND (system), built per seed term.

    For each seed term the system is cofactored and solved recursively;
    branches whose cofactored system is unsatisfiable vanish on their
    own.  The result is complete and orthogonal for the conjunction.
    """
    cfg = cfg or EngineConfig()
    universe = seed.universe | sys_g.universe
    out = _cross(((t, sys_g.ratio(t)) for t in seed.terms), cfg)
    out.sort(key=Term.sort_key)
    return ImplicantSet(tuple(out), universe)
