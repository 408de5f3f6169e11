"""Implicant engine: base case, clustering, splitting, pruning, determinism."""

import gc
import itertools
import json
import random
import time
import weakref

import pytest

from collections import Counter
from functools import reduce

import boolinv.engine

from boolinv.algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, mask_of, vars_of
from boolinv.cli import main
from boolinv.engine import (
    DEFAULT_BOUND,
    MAX_BOUND,
    BoundExceededError,
    ClusterPlan,
    _cofactor_near,
    _leaf_scan,
    check_bound,
    compose_product,
    impl_for_simple,
    implicants,
    select_disjoint_clusters,
)
from boolinv.maps import BoolMap, Uniqueness, build_graph_system, unique_solution
from boolinv.oracle import solution_count, validate_implicant_set

from conftest import (
    chain_system,
    random_anf,
    random_map_coords,
    random_system,
    xor_pair_system,
)

# variable ids: inputs first, then outputs
X1, X2, X3, X4 = 0, 1, 2, 3


def _graph_vars(n: int, m: int):
    xs = list(range(n))
    ys = list(range(n, n + m))
    return xs, ys


def _graph_factor(f: Anf, y: int, uni: int) -> Anf:
    # h = f + y + 1 so that h = 1 exactly on the graph of y = f(x)
    return f.with_universe(uni) ^ Anf.variable(y, uni) ^ Anf.one(uni)


def fsr_graph_system() -> BoolSystem:
    """Graph of the 3-bit shift map (x1,x2,x3) -> (x2, x3, x1 + x2 x3)."""
    (x1, x2, x3), (y1, y2, y3) = _graph_vars(3, 3)
    uni = mask_of(range(6))
    mk = lambda v: Anf.variable(v, uni)
    f1, f2, f3 = mk(x2), mk(x3), mk(x1) ^ (mk(x2) * mk(x3))
    return BoolSystem(
        (
            _graph_factor(f1, y1, uni),
            _graph_factor(f2, y2, uni),
            _graph_factor(f3, y3, uni),
        ),
        uni,
    )


def quad_graph_system() -> BoolSystem:
    """Graph of (x1 x3, x2 x3, x1 x4, x2 x4 + 1) on 4 inputs."""
    (x1, x2, x3, x4), ys = _graph_vars(4, 4)
    uni = mask_of(range(8))
    mk = lambda v: Anf.variable(v, uni)
    coords = [
        mk(x1) * mk(x3),
        mk(x2) * mk(x3),
        mk(x1) * mk(x4),
        (mk(x2) * mk(x4)) ^ Anf.one(uni),
    ]
    return BoolSystem(
        tuple(_graph_factor(f, y, uni) for f, y in zip(coords, ys)), uni
    )


def test_impl_for_simple_single_literal():
    s = impl_for_simple(Anf.variable(X1))
    assert s.terms == (Term.of((X1, 1)),)
    assert s.universe == 1 << X1


def test_impl_for_simple_xor():
    f = Anf.variable(X1) ^ Anf.variable(X2)
    s = impl_for_simple(f)
    # ascending binary value, first variable most significant
    assert s.terms == (Term.of((X1, 0), (X2, 1)), Term.of((X1, 1), (X2, 0)))


def test_impl_for_simple_equality_factor():
    # h = x2 + y1 + 1 is 1 exactly when y1 copies x2
    y1 = 3
    f = Anf.variable(X2) ^ Anf.variable(y1) ^ Anf.one()
    s = impl_for_simple(f)
    assert s.terms == (Term.of((X2, 0), (y1, 0)), Term.of((X2, 1), (y1, 1)))


def test_impl_for_simple_constants():
    assert impl_for_simple(Anf.one()).terms == (Term(),)
    assert impl_for_simple(Anf.zero()).terms == ()


def _cyclic_products(n: int) -> Anf:
    """x_0 x_1 + x_1 x_2 + ... + x_(n-1) x_0: no variable is linear, so a scan covers all n."""
    return Anf.from_monomials([(1 << v) | (1 << (v + 1) % n) for v in range(n)], mask_of(range(n)))


def test_impl_for_simple_bound():
    with pytest.raises(BoundExceededError):
        impl_for_simple(_cyclic_products(4), bound=3)


def test_impl_for_simple_refuses_support_beyond_max_bound():
    with pytest.raises(BoundExceededError):
        impl_for_simple(_cyclic_products(MAX_BOUND + 1), bound=MAX_BOUND + 5)


def _pointwise_minterms(factors: tuple[Anf, ...]) -> ImplicantSet:
    """Minterms of the factors' product, scanned point by point with evaluate.

    The scan runs over the support of the product polynomial, first
    variable most significant; variables outside it are held at 0.
    """
    uni = 0
    for h in factors:
        uni |= h.universe
    product = reduce(Anf.__mul__, factors, Anf.one(uni))
    support = product.support
    vs = vars_of(support)
    out = []
    for bits in itertools.product((0, 1), repeat=len(vs)):
        trues = mask_of(v for v, b in zip(vs, bits) if b)
        point = Assignment(uni, trues)
        if all(h.evaluate(point) for h in factors):
            out.append(Term(trues, support & ~trues))
    return ImplicantSet(tuple(out), support)


def _renumbered_graph_system(rng: random.Random, n: int, m: int) -> BoolSystem:
    """Graph system of a random map with y_j numbered j and x_i numbered m + i."""
    uni = mask_of(range(n + m))
    factors = []
    for j, f in enumerate(random_map_coords(rng, n, m)):
        g = Anf.from_monomials([mono << m for mono in f.monomials], uni)
        factors.append(g ^ Anf.variable(j, uni) ^ Anf.one(uni))
    return BoolSystem(tuple(factors), uni)


def test_impl_for_simple_matches_pointwise_scan(monkeypatch):
    rng = random.Random(2307)
    systems = []
    for _ in range(300):
        pool = rng.sample(range(24), rng.randint(0, 12))
        factors = []
        for _ in range(rng.randint(1, 3)):
            sup = rng.sample(pool, rng.randint(len(pool) // 2, len(pool)))
            f = random_anf(rng, sup, max_monomials=8)
            if rng.random() < 0.5:  # spread the support over every drawn variable
                f ^= Anf.from_monomials([1 << v for v in sup], mask_of(sup))
            factors.append(f)
        systems.append(factors)
    # graph systems, scanned over the inputs only, and the same with the
    # outputs numbered first, so that the scan's points need the sort
    sorted_scans = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12 - n)
        graph = build_graph_system(BoolMap.of(random_map_coords(rng, n, m), n))
        renumbered = _renumbered_graph_system(rng, n, m)
        scanned, solved = _leaf_scan(renumbered.factors)
        sorted_scans += scanned >> min(solved) > 0  # a scanned variable above a solved one
        systems += [list(graph.factors), list(renumbered.factors)]
    assert sorted_scans > 0
    for factors in systems:
        minterms = _pointwise_minterms(tuple(factors))
        assert impl_for_simple(BoolSystem.of(factors)) == minterms  # terms and their order
        if len(factors) == 1:
            assert impl_for_simple(factors[0]) == minterms

    leaves = []  # a graph system within the bound is one scan over its inputs

    def counting_leaf(f, bound=boolinv.engine.DEFAULT_BOUND):
        leaves.append(f)
        return impl_for_simple(f, bound)

    monkeypatch.setattr(boolinv.engine, "impl_for_simple", counting_leaf)
    F = BoolMap.of(random_map_coords(rng, 10, 10), 10)
    cover = implicants(build_graph_system(F))
    assert len(leaves) == 1
    assert len(cover) == 1 << 10


def test_impl_for_simple_leaves_inessential_variables_free():
    x, y = Anf.variable(X1, 0b11), Anf.variable(X2, 0b11)
    x_or_y = x ^ y ^ (x * y)
    # (x or y) and x is x alone: y stays free and the cover lives over {x}
    s = impl_for_simple(BoolSystem.of([x_or_y, x]))
    assert s == ImplicantSet((Term.of((X1, 1)),), 1 << X1)
    assert s == _pointwise_minterms((x_or_y, x))


def test_a_constant_one_factor_leaves_a_wide_functional_system_one_leaf(monkeypatch):
    graph = build_graph_system(BoolMap.of(random_map_coords(random.Random(20), 6, 10), 6))
    uni = graph.universe
    assert graph.support.bit_count() > boolinv.engine.DEFAULT_BOUND  # one leaf only when functional
    with_one = BoolSystem(graph.factors[:3] + (Anf.one(uni),) + graph.factors[3:], uni)
    with_zero = BoolSystem(with_one.factors + (Anf.zero(uni),), uni)
    cover = implicants(graph)
    leaves = []

    def counting_leaf(f, bound=boolinv.engine.DEFAULT_BOUND):
        leaves.append(f)
        return impl_for_simple(f, bound)

    monkeypatch.setattr(boolinv.engine, "impl_for_simple", counting_leaf)
    assert implicants(with_one) == cover
    assert len(leaves) == 1
    assert implicants(with_zero) == ImplicantSet((), uni)
    seed = ImplicantSet((Term(0, 1), Term(1, 0)), 1)  # x0' and x0
    assert compose_product(seed, with_one) == compose_product(seed, graph)


@pytest.mark.parametrize("solve", [impl_for_simple, implicants])
def test_a_solved_system_keeps_no_reference_to_its_factors(solve):
    uni = mask_of([X1, X2, X3])
    f = Anf.variable(X1, uni) ^ Anf.variable(X3, uni)
    factor = weakref.ref(f)
    sys = BoolSystem((f, Anf.variable(X2, uni)), uni)
    assert _leaf_scan(sys.factors) == (1 << X1, (X3, X2))  # one functional scan over X1
    cover = solve(sys)
    assert cover.terms == (Term.of((X1, 0), (X2, 1), (X3, 1)), Term.of((X1, 1), (X2, 1), (X3, 0)))
    del f, sys
    gc.collect()
    assert factor() is None


def test_select_prefers_small_disjoint_supports():
    uni = mask_of([X1, X2])
    x1, x2 = Anf.variable(X1, uni), Anf.variable(X2, uni)
    sys = BoolSystem.of([x1, x2, x1 ^ x2], universe=uni)
    plan = select_disjoint_clusters(sys, DEFAULT_BOUND)
    assert plan == ClusterPlan((0, 1), (2,), split_var=None)


def test_select_on_shift_graph():
    plan = select_disjoint_clusters(fsr_graph_system(), DEFAULT_BOUND)
    assert plan.disjoint_factors == (0, 1)
    assert plan.residual == (2,)
    assert plan.split_var is None


def test_select_single_factor():
    sys = BoolSystem.of([Anf.variable(X1)])
    plan = select_disjoint_clusters(sys, DEFAULT_BOUND)
    assert plan == ClusterPlan((0,), (), split_var=None)


def test_select_flags_split_when_nothing_fits():
    uni = mask_of(range(4))
    mk = lambda v: Anf.variable(v, uni)
    f = mk(X1) ^ mk(X2) ^ mk(X3)
    g = mk(X2) ^ mk(X3) ^ mk(X4)
    sys = BoolSystem.of([f, g], universe=uni)
    plan = select_disjoint_clusters(sys, 2)
    assert plan.disjoint_factors == ()
    assert plan.residual == (0, 1)  # a split cofactors every factor
    # x2 and x3 occur twice; tie broken toward the lower index
    assert plan.split_var == X2


def test_compose_product_disjoint_variables():
    seed = ImplicantSet((Term.of((X1, 1)),), 1 << X1)
    sys = BoolSystem.of([Anf.variable(X2)])
    out = compose_product(seed, sys)
    assert out.terms == (Term.of((X1, 1), (X2, 1)),)


def test_compose_product_prunes_dead_branch():
    seed = ImplicantSet((Term.of((X1, 0)), Term.of((X1, 1))), 1 << X1)
    sys = BoolSystem.of([Anf.variable(X1)])
    out = compose_product(seed, sys)
    assert out.terms == (Term.of((X1, 1)),)


def test_compose_product_on_shift_graph_seed():
    # seeding with the orthogonal cover {x2, x2'x3, x2'x3'} of constant 1
    seed = ImplicantSet(
        (Term.of((X2, 1)), Term.of((X2, 0), (X3, 1)), Term.of((X2, 0), (X3, 0))),
        mask_of([X2, X3]),
    )
    sys = fsr_graph_system()
    out = compose_product(seed, sys)
    assert len(out) == 8
    uni = sys.universe
    assert all(t.fixes(uni) for t in out.terms)
    y_mask = mask_of([3, 4, 5])
    y_parts = {t.pos & y_mask for t in out.terms}
    assert len(y_parts) == 8  # every output minterm is reached


def test_implicants_on_shift_graph_all_outputs():
    out = implicants(fsr_graph_system())
    assert len(out) == 8
    y_mask = mask_of([3, 4, 5])
    assert {t.pos & y_mask for t in out.terms} == {
        mask_of([v for v, b in zip((3, 4, 5), bits) if b])
        for bits in itertools.product((0, 1), repeat=3)
    }


def test_implicants_unsatisfiable():
    x1 = Anf.variable(X1)
    sys = BoolSystem.of([x1, ~x1])
    assert implicants(sys).terms == ()


def test_implicants_quad_graph_output_projection():
    # the 4-input quadratic map reaches 10 of the 16 outputs
    out = implicants(quad_graph_system())
    assert len(out) == 16
    y_mask = mask_of(range(4, 8))
    assert len({t.pos & y_mask for t in out.terms}) == 10


def _points(cover: ImplicantSet) -> list[Term]:
    """Every universe minterm inside the cover's cubes, in canonical order."""
    return sorted((p for t in cover.terms for p in t.expand(cover.universe)), key=Term.sort_key)


def _product(a: Term, b: Term) -> Term:
    """Conjunction of two cubes; Term raises if a variable clashes."""
    return Term(a.pos | b.pos, a.neg | b.neg)


def test_implicants_solution_set_independent_of_bound():
    sys = quad_graph_system()
    base = _points(implicants(sys, 12))
    for m in (2, 3, 4, 6):
        got = _points(implicants(sys, m))
        assert got == base


def test_implicants_cover_is_valid_on_random_corpus():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 8)
        sys = random_system(rng, n, rng.randint(1, 5))
        cover = implicants(sys, rng.choice((2, 3, 12)))
        rep = validate_implicant_set(cover, sys)
        assert rep.ok, rep
        assert cover.satisfying_total() == solution_count(sys)


def test_disjoint_product_law():
    rng = random.Random(7)
    for _ in range(10):
        a = random_system(rng, 4, 2)
        b_raw = random_system(rng, 4, 2)
        shift = 4
        uni_b = b_raw.universe << shift
        b = BoolSystem(
            tuple(
                Anf(frozenset(m << shift for m in f.monomials), uni_b)
                for f in b_raw.factors
            ),
            uni_b,
        )
        uni = a.universe | b.universe
        combined = BoolSystem(
            tuple(f.with_universe(uni) for f in a.factors + b.factors), uni
        )
        ia, ib = implicants(a), implicants(b)
        expected = sorted(
            (_product(ta, tb) for ta in ia.terms for tb in ib.terms),
            key=Term.sort_key,
        )
        assert list(implicants(combined).terms) == expected


def test_check_bound():
    with pytest.raises(ValueError, match="^bound must be at least 1 and at most 20, got 0$"):
        check_bound(0)
    check_bound(1)
    check_bound(MAX_BOUND)
    with pytest.raises(ValueError, match="^bound must be at least 1 and at most 20, got 21$"):
        check_bound(MAX_BOUND + 1)
    sys = fsr_graph_system()
    with pytest.raises(ValueError, match="^bound must be at least 1 and at most 20, got 0$"):
        implicants(sys, 0)
    seed = implicants(sys)
    with pytest.raises(ValueError, match="^bound must be at least 1 and at most 20, got 21$"):
        compose_product(seed, sys, 21)


def _product_cross_cover(sys: BoolSystem, bound: int) -> ImplicantSet:
    """The cover built with the full product of the packed covers.

    Every combination of packed cover terms is formed first, and the
    residual factors are cofactored by it afterwards, so no branch is
    dropped before it is solved.  Same plan, leaf and final sort as the
    engine, which count the variables a leaf scan enumerates.
    """

    def solve(s: BoolSystem) -> list[Term]:
        factors = tuple(h for h in s.factors if not h.is_one)
        if any(h.is_zero for h in factors):
            return []
        live = BoolSystem(factors, s.universe)
        if _leaf_scan(live.factors)[0].bit_count() <= bound:
            return list(impl_for_simple(live, bound).terms)
        plan = select_disjoint_clusters(live, bound)
        if plan.split_var is not None:
            seeds = [Term.of((plan.split_var, 0)), Term.of((plan.split_var, 1))]
            branches = [(t, live.ratio(t)) for t in seeds]
        else:
            covers = [impl_for_simple(live.factors[i], bound).terms for i in plan.disjoint_factors]
            residual = [live.factors[i] for i in plan.residual]
            branches = []
            for combo in itertools.product(*covers):
                t = reduce(_product, combo, Term())
                sub = BoolSystem(tuple(h.ratio(t) for h in residual), live.universe & ~t.vars_mask)
                branches.append((t, sub))
        return [_product(seed, x) for seed, sub in branches for x in solve(sub)]

    terms = solve(sys)
    if _leaf_scan(sys.factors)[0].bit_count() > bound:
        terms.sort(key=Term.sort_key)
    return ImplicantSet(tuple(terms), sys.universe)


def test_pruned_cross_matches_product_cross(monkeypatch):
    splits = []  # the engine's Shannon split plans, which share the cross loop

    def counting_plan(sys, bound):
        plan = select_disjoint_clusters(sys, bound)
        splits.append(plan.split_var is not None)
        return plan

    monkeypatch.setattr(boolinv.engine, "select_disjoint_clusters", counting_plan)
    rng = random.Random(4)
    systems = []
    for k in range(300):
        n = rng.randint(4, 22)
        if k % 3:
            support = rng.choice((2, 3, 4))
            systems.append(random_system(rng, n, rng.randint(2, n // 2 + 2), support))
        else:
            systems.append(xor_pair_system(rng, n))
    for _ in range(60):
        n = rng.randint(3, 7)
        coords = random_map_coords(rng, n, rng.randint(n, n + 2))
        systems.append(build_graph_system(BoolMap.of(coords, n)))
    empty = 0
    for sys in systems:
        for bound in (12, 4, 2):
            cover = implicants(sys, bound)
            assert cover == _product_cross_cover(sys, bound)  # terms and their order
            empty += not cover.terms
    assert sum(splits) > 0
    assert 0 < empty < len(systems) * 3  # satisfiable and unsatisfiable cases both occur


def _cofactor_near_by_ratio(res, near, t, occurs):
    """``_cofactor_near`` with every touched neighbour cofactored by ``Anf.ratio``."""
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


def test_cofactor_near_matches_cofactoring_by_ratio():
    rng = random.Random(28)
    kinds = Counter()
    for _ in range(4000):
        n = rng.randint(2, 7)
        uni = mask_of(range(n))
        res = {}
        for k in range(rng.randint(1, 8)):
            kind = rng.choice(("literal", "literal", "constant", "wide"))
            if kind == "literal":
                h = Anf.variable(rng.randrange(n), uni)
                res[k] = ~h if rng.random() < 0.5 else h
            elif kind == "constant":
                res[k] = rng.choice((Anf.zero(uni), Anf.one(uni)))
            else:
                res[k] = random_anf(rng, rng.sample(range(n), rng.randint(2, n))).with_universe(uni)
        occurs = {}  # as in the step: variable -> the factors using it
        for k, h in res.items():
            for v in vars_of(h.support):
                occurs.setdefault(v, []).append(k)
        near = rng.sample(range(10), rng.randint(0, 10))  # some indices are not in the map
        fixed = rng.sample(range(n), rng.randint(1, n))
        t = Term.of(*((v, rng.getrandbits(1)) for v in fixed))
        got = _cofactor_near(res, near, t, occurs)
        assert got == _cofactor_near_by_ratio(res, near, t, occurs)
        touched_literal = any(
            k in res and res[k].support & t.vars_mask and res[k].support.bit_count() == 1
            for k in near
        )
        kinds[touched_literal, got is None] += 1
    assert min(kinds[key] for key in itertools.product((False, True), repeat=2)) > 100


def test_a_dead_cross_solves_no_further_cover(monkeypatch):
    # x_i + x_(i+1) = 1 over 30 variables, with the factors x0 and x0 + 1
    uni = mask_of(range(30))
    x = [Anf.variable(v, uni) for v in range(30)]
    sys = BoolSystem(tuple(x[i] ^ x[i + 1] for i in range(29)) + (x[0], ~x[0]), uni)
    leaves = []

    def counting_leaf(f, bound=boolinv.engine.DEFAULT_BOUND):
        leaves.append(f)
        return impl_for_simple(f, bound)

    monkeypatch.setattr(boolinv.engine, "impl_for_simple", counting_leaf)
    assert implicants(sys, 4) == ImplicantSet((), uni)
    # the cross starts from x0, whose one term makes x0 + 1 zero: no other packed factor is solved
    assert leaves == [x[0]]


@pytest.mark.parametrize("bound", [12, 1])
def test_a_chain_settles_literal_residuals_without_ratio(monkeypatch, bound):
    ratio = Anf.ratio
    supports = []

    def recording_ratio(self, t):
        supports.append(self.support.bit_count())
        return ratio(self, t)

    monkeypatch.setattr(Anf, "ratio", recording_ratio)
    for variant in ("pinned", "free", "unsat"):
        implicants(chain_system(30, variant), bound)
    # the wide residuals x_i + x_(i-1) are cofactored; the literals they become are settled
    assert supports and 1 not in supports


def _ladder(n: int) -> BoolSystem:
    """Two chains a (0..n/2-1) and b (n/2..n-1) joined by rungs a_i + b_i = 1, a_0 = 1."""
    half = n // 2
    uni = mask_of(range(2 * half))
    a = [Anf.variable(v, uni) for v in range(half)]
    b = [Anf.variable(half + v, uni) for v in range(half)]
    factors = [a[i] ^ a[i - 1] for i in range(1, half)]
    factors += [b[i] ^ b[i - 1] for i in range(1, half)]
    factors += [a[i] ^ b[i] for i in range(half)]
    factors.append(a[0])
    return BoolSystem(tuple(factors), uni)


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_long_chains_and_ladders_decide_fast(n):
    alternating = Assignment(mask_of(range(n)), mask_of(range(0, n, 2)))
    half = n // 2
    rails = mask_of(range(0, half, 2)) | mask_of(range(half + 1, 2 * half, 2))
    ladder_point = Assignment(mask_of(range(2 * half)), rails)
    cases = [
        (chain_system(n, "pinned"), Uniqueness.UNIQUE, alternating),
        (chain_system(n, "pinned", shuffle_seed=n), Uniqueness.UNIQUE, alternating),
        (chain_system(n, "free"), Uniqueness.MULTIPLE, None),
        (chain_system(n, "free", shuffle_seed=n + 1), Uniqueness.MULTIPLE, None),
        (chain_system(n, "unsat"), Uniqueness.NONE, None),
        (chain_system(n, "unsat", shuffle_seed=n + 2), Uniqueness.NONE, None),
        (_ladder(n), Uniqueness.UNIQUE, ladder_point),
    ]
    for sys, status, point in cases:
        started = time.perf_counter()
        res = unique_solution(sys)
        elapsed = time.perf_counter() - started
        assert res.status is status
        assert res.assignment == point
        assert elapsed < 1.0


@pytest.mark.parametrize("bound", [12, 1])
def test_deep_chain_decides_through_cli(tmp_path, capsys, bound):
    # at --bound 1 every step of the decomposition fixes one variable,
    # so the depth exceeds the interpreter's recursion limit
    n = 1500
    lines = ["vars: " + " ".join(f"x{i}" for i in range(n)), "0 = x0 + 1"]
    lines += [f"0 = x{i} + x{i - 1} + 1" for i in range(1, n)]
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(lines) + "\n")
    code = main(["unique", str(path), "--bound", str(bound), "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "unique"
    assert doc["assignment"] == {f"x{i}": (i + 1) % 2 for i in range(n)}
