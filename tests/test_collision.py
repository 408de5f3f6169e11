"""Collision-system method: doubled variables, diagonal containment."""

import itertools
import random

import pytest

import boolinv.collision
from boolinv.algebra import (
    Anf,
    BoolSystem,
    ImplicantSet,
    Term,
    mask_of,
)
from boolinv.collision import (
    _inside_diagonal,
    _witness_from_term,
    build_collision_system,
    collision_implicants,
    diagonal_set,
    is_one_to_one_diagonal,
)
from boolinv.maps import BoolMap, is_one_to_one_general
from boolinv.oracle import is_implicant

from conftest import (
    identity_map,
    quad_map,
    random_map_coords,
    shift_register_map,
)


def test_build_single_projection():
    uni = mask_of(range(1))
    F = BoolMap.of([Anf.variable(0, uni)], 1)
    sys_ = build_collision_system(F)
    assert sys_.universe == 0b11
    assert sys_.factors[0].monomials == frozenset((0b01, 0b10, 0))


def test_build_shift_map_shadows_nonlinear_terms():
    sys_ = build_collision_system(shift_register_map())
    # third factor: x1 + x2 x3 + x1~ + x2~ x3~ + 1
    assert sys_.factors[2].monomials == frozenset(
        (1 << 0, 0b110, 1 << 3, 0b110000, 0)
    )
    quad = build_collision_system(quad_map())
    # f4 = x2 x4 + 1: the constants of both copies cancel and h4 keeps its + 1
    assert quad.factors[3].monomials == frozenset((0b1010, 0b1010 << 4, 0))
    assert all(h.universe == quad.universe == 0xFF for h in quad.factors)


def test_build_and_factor_shares_monomial_shape():
    uni = mask_of(range(2))
    F = BoolMap.of([Anf.variable(0, uni) * Anf.variable(1, uni)], 2)
    sys_ = build_collision_system(F)
    assert sys_.factors[0].monomials == frozenset((0b0011, 0b1100, 0))


def test_diagonal_set_n1():
    assert diagonal_set(1) == (Term(pos=0, neg=0b11), Term(pos=0b11, neg=0))


def test_diagonal_set_n2_contains_mixed_minterm():
    d = diagonal_set(2)
    assert len(d) == 4
    # x1 x2' x1~ x2~'
    assert Term(pos=0b0101, neg=0b1010) in d


def test_diagonal_set_sizes_and_cap():
    for n in range(0, 11):
        assert len(diagonal_set(n)) == 1 << n
    assert diagonal_set(0) == (Term(),)
    for n in range(0, 7):
        full = mask_of(range(2 * n))
        expected = []
        for bits in itertools.product((0, 1), repeat=n):  # x1 most significant
            trues = sum((1 << v) | (1 << (n + v)) for v, b in enumerate(bits) if b)
            expected.append(Term(trues, full & ~trues))
        assert diagonal_set(n) == tuple(expected)
    with pytest.raises(ValueError):
        diagonal_set(17)


def test_shift_map_one_to_one_by_diagonal():
    v = is_one_to_one_diagonal(shift_register_map())
    assert v.one_to_one
    assert v.y_minterm_count is None


def test_doubled_and_map_collides():
    uni = mask_of(range(2))
    prod = Anf.variable(0, uni) * Anf.variable(1, uni)
    F = BoolMap.of([prod, prod], 2)
    v = is_one_to_one_diagonal(F)
    assert not v.one_to_one
    a1, a2 = v.witness
    assert a1.trues != a2.trues
    assert F.evaluate(a1) == F.evaluate(a2)


def test_identity_cover_is_exactly_the_diagonal():
    F = identity_map(2)
    cover = collision_implicants(F)
    assert set(cover.terms) == set(diagonal_set(2))
    assert is_one_to_one_diagonal(F).one_to_one


@pytest.mark.parametrize("n", [3, 13])
def test_positive_verdict_needs_every_diagonal_minterm(monkeypatch, n):
    # minterm 5 left out, then minterm 4 listed twice in its place
    d = diagonal_set(n)
    for terms in (d[:5] + d[6:], d[:5] + d[4:5] + d[6:]):
        cover = ImplicantSet(terms, (1 << 2 * n) - 1)
        monkeypatch.setattr(
            boolinv.collision, "collision_implicants", lambda F, bound=None: cover
        )
        with pytest.raises(RuntimeError, match="differs from the diagonal set"):
            is_one_to_one_diagonal(identity_map(n))


def test_quad_map_rejected_by_diagonal_method():
    F = quad_map()
    v = is_one_to_one_diagonal(F)
    assert not v.one_to_one
    a1, a2 = v.witness
    assert F.evaluate(a1) == F.evaluate(a2)


def test_diagonal_terms_are_implicants_of_any_collision_system():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        F = BoolMap.of(random_map_coords(rng, n, rng.randint(1, n + 2)), n)
        sys_ = build_collision_system(F)
        for t in diagonal_set(n):
            assert is_implicant(t, sys_)


def test_agreement_with_graph_method_on_corpus():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = rng.randint(max(1, n - 1), n + 2)
        F = BoolMap.of(random_map_coords(rng, n, m), n)
        assert (
            is_one_to_one_diagonal(F).one_to_one
            == is_one_to_one_general(F).one_to_one
        )


def _first_unpinned_variable(t: Term, n: int):
    for v in range(n):
        x_bit, s_bit = 1 << v, 1 << (n + v)
        if not (t.vars_mask & x_bit and t.vars_mask & s_bit):
            return v
        if bool(t.pos & x_bit) != bool(t.pos & s_bit):
            return v
    return None


def test_inside_diagonal_names_the_first_unpinned_variable():
    # every term over 2n variables: each literal absent, plain or complemented
    for n in range(0, 4):
        for signs in itertools.product((None, 1, 0), repeat=2 * n):
            t = Term.of(*((v, b) for v, b in enumerate(signs) if b is not None))
            assert _inside_diagonal(t, n) == _first_unpinned_variable(t, n)


def test_witness_lies_in_the_cube_and_differs_at_v():
    # every term over 2n variables whose two copies of v are not pinned equal
    kinds = set()
    for n in range(1, 4):
        for signs in itertools.product((None, 1, 0), repeat=2 * n):
            t = Term.of(*((v, b) for v, b in enumerate(signs) if b is not None))
            for v in range(n):
                x_v, s_v = signs[v], signs[n + v]
                if x_v is not None and x_v == s_v:
                    continue
                kinds.add((x_v is None, s_v is None))
                a1, a2 = _witness_from_term(t, v, n)
                assert a1.universe == a2.universe == (1 << n) - 1
                point = a1.trues | (a2.trues << n)
                assert point & t.vars_mask == t.pos  # inside the cube
                assert a1.value(v) != a2.value(v)
    # both fixed and different, only x_v fixed, only x~_v fixed, both free
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
