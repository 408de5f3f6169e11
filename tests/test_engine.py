"""Implicant engine: base case, clustering, splitting, determinism."""

import itertools
import random

import pytest

from functools import reduce

from boolinv.algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, mask_of, vars_of
from boolinv.engine import (
    MAX_BOUND,
    BoundExceededError,
    ClusterPlan,
    EngineConfig,
    compose_product,
    impl_for_simple,
    implicants,
    select_disjoint_clusters,
)
from boolinv.oracle import solution_count, validate_implicant_set

from conftest import random_anf, random_system

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


def test_impl_for_simple_bound():
    uni = mask_of(range(4))
    f = Anf.from_monomials([1 << v for v in range(4)], uni)
    with pytest.raises(BoundExceededError):
        impl_for_simple(f, bound=3)


def test_impl_for_simple_refuses_support_beyond_max_bound():
    uni = mask_of(range(MAX_BOUND + 1))
    f = Anf.from_monomials([1 << v for v in range(MAX_BOUND + 1)], uni)
    with pytest.raises(BoundExceededError):
        impl_for_simple(f, bound=MAX_BOUND + 5)


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


def test_impl_for_simple_matches_pointwise_scan():
    rng = random.Random(2307)
    for _ in range(300):
        pool = rng.sample(range(24), rng.randint(0, 12))
        factors = []
        for _ in range(rng.randint(1, 3)):
            sup = rng.sample(pool, rng.randint(len(pool) // 2, len(pool)))
            f = random_anf(rng, sup, max_monomials=8)
            if rng.random() < 0.5:  # spread the support over every drawn variable
                f ^= Anf.from_monomials([1 << v for v in sup], mask_of(sup))
            factors.append(f)
        expected = _pointwise_minterms(tuple(factors))
        assert impl_for_simple(BoolSystem.of(factors)) == expected
        if len(factors) == 1:
            assert impl_for_simple(factors[0]) == expected


def test_impl_for_simple_leaves_inessential_variables_free():
    x, y = Anf.variable(X1, 0b11), Anf.variable(X2, 0b11)
    x_or_y = x ^ y ^ (x * y)
    # (x or y) and x is x alone: y stays free and the cover lives over {x}
    s = impl_for_simple(BoolSystem.of([x_or_y, x]))
    assert s == ImplicantSet((Term.of((X1, 1)),), 1 << X1)
    assert s == _pointwise_minterms((x_or_y, x))


def test_select_prefers_small_disjoint_supports():
    uni = mask_of([X1, X2])
    x1, x2 = Anf.variable(X1, uni), Anf.variable(X2, uni)
    sys = BoolSystem.of([x1, x2, x1 ^ x2], universe=uni)
    plan = select_disjoint_clusters(sys, EngineConfig())
    assert plan == ClusterPlan((0, 1), (2,), split_var=None)


def test_select_on_shift_graph():
    plan = select_disjoint_clusters(fsr_graph_system(), EngineConfig())
    assert plan.disjoint_factors == (0, 1)
    assert plan.residual == (2,)
    assert plan.split_var is None


def test_select_single_factor():
    sys = BoolSystem.of([Anf.variable(X1)])
    plan = select_disjoint_clusters(sys, EngineConfig())
    assert plan == ClusterPlan((0,), (), split_var=None)


def test_select_flags_split_when_nothing_fits():
    uni = mask_of(range(4))
    mk = lambda v: Anf.variable(v, uni)
    f = mk(X1) ^ mk(X2) ^ mk(X3)
    g = mk(X2) ^ mk(X3) ^ mk(X4)
    sys = BoolSystem.of([f, g], universe=uni)
    plan = select_disjoint_clusters(sys, EngineConfig(base_bound_m=2))
    assert plan.disjoint_factors == (0,)
    assert plan.residual == (1,)
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


def test_implicants_solution_set_independent_of_bound():
    sys = quad_graph_system()
    base = implicants(sys, EngineConfig(base_bound_m=12)).expand_minterms()
    for m in (2, 3, 4, 6):
        got = implicants(sys, EngineConfig(base_bound_m=m)).expand_minterms()
        assert got == base


def test_implicants_cover_is_valid_on_random_corpus():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 8)
        sys = random_system(rng, n, rng.randint(1, 5))
        cover = implicants(sys, EngineConfig(base_bound_m=rng.choice((2, 3, 12))))
        rep = validate_implicant_set(cover, sys)
        assert rep.ok, rep
        assert cover.satisfying_total() == solution_count(sys)


def test_implicants_deterministic_across_parallelism():
    rng = random.Random(99)
    for _ in range(10):
        sys = random_system(rng, rng.randint(4, 9), rng.randint(2, 5))
        runs = [
            implicants(sys, EngineConfig(base_bound_m=3, parallelism=p))
            for p in (1, 2, 8)
        ]
        assert runs[0] == runs[1] == runs[2]


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
            (ta.conjoin(tb) for ta in ia.terms for tb in ib.terms),
            key=Term.sort_key,
        )
        assert list(implicants(combined).terms) == expected


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(base_bound_m=0)
    with pytest.raises(ValueError):
        EngineConfig(parallelism=0)
    assert EngineConfig(base_bound_m=MAX_BOUND).base_bound_m == MAX_BOUND
    with pytest.raises(ValueError, match="at most"):
        EngineConfig(base_bound_m=MAX_BOUND + 1)
