"""Binary field arithmetic and permutation-polynomial decisions."""

import itertools
import random

import pytest

from boolinv.algebra import Assignment, mask_of
from boolinv.gf2n import (
    FieldElem,
    FieldSpec,
    MAX_ORACLE_TERM_POINTS,
    MAX_TERM_POINTS,
    UniPoly,
    _is_irreducible,
    _poly_mod,
    check_term_points,
    coordinate_functions,
    is_permutation_polynomial,
    moebius,
)
from boolinv.oracle import TruthTable


def test_default_moduli_small_degrees():
    assert FieldSpec.default(1).modulus == 0b11
    assert FieldSpec.default(2).modulus == 0b111
    assert FieldSpec.default(3).modulus == 0b1011
    assert FieldSpec.default(4).modulus == 0b10011


def test_default_moduli_exist_up_to_cap():
    for n in range(1, 17):
        spec = FieldSpec.default(n)
        assert spec.modulus.bit_length() == n + 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1001)  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1110)  # even constant term, divisible by x
    with pytest.raises(ValueError):
        FieldSpec(3, 0b111)  # degree mismatch


def _is_irreducible_by_every_divisor(m: int, n: int) -> bool:
    """Trial division by every polynomial of degree 1..n//2, even ones too."""
    if m.bit_length() - 1 != n or not m & 1:
        return False
    return all(
        _poly_mod(m, g) for d in range(1, n // 2 + 1) for g in range(1 << d, 1 << (d + 1))
    )


def test_odd_divisors_decide_irreducibility_up_to_degree_10():
    counts = []
    for n in range(1, 11):
        found = 0
        for m in range(1, 1 << (n + 1)):  # every polynomial of degree <= n
            assert _is_irreducible(m, n) == _is_irreducible_by_every_divisor(m, n), (m, n)
            found += _is_irreducible(m, n)
        counts.append(found)
    # the irreducibles of each degree, less x itself at degree 1
    assert counts == [1, 1, 2, 3, 6, 9, 18, 30, 56, 99]


def test_cube_of_generator_in_f8():
    spec = FieldSpec(3, 0b1011)
    alpha = spec.element(0b010)
    assert (alpha * alpha * alpha).value == 0b011  # a^3 = a + 1
    assert (alpha**3).value == 0b011


def test_characteristic_two_and_identity():
    spec = FieldSpec.default(4)
    a = spec.element(0b1011)
    assert (a + a).is_zero
    assert a * spec.one() == a
    assert a**0 == spec.one()


def test_mixed_field_operands_rejected():
    a = FieldSpec.default(3).element(1)
    b = FieldSpec.default(4).element(1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_element_range_check():
    spec = FieldSpec.default(2)
    with pytest.raises(ValueError):
        spec.element(4)


def test_field_axioms_exhaustive_small():
    for n in (1, 2, 3):
        spec = FieldSpec.default(n)
        elems = [spec.element(v) for v in range(spec.order)]
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
        for a in elems:
            if not a.is_zero:
                # a^(2^n - 2) is the inverse in a group of order 2^n - 1
                assert a * a ** (spec.order - 2) == spec.one()


def test_field_axioms_randomized_larger():
    rng = random.Random(31)
    for n in (5, 8, 12):
        spec = FieldSpec.default(n)
        for _ in range(50):
            a, b, c = (spec.element(rng.randrange(spec.order)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_unipoly_trims_and_evaluates():
    spec = FieldSpec.default(3)
    p = UniPoly.of(spec, [3, 0, 1, 0, 0])
    assert p.degree == 2
    x = spec.element(0b110)
    assert p.evaluate(x) == spec.element(3) + x * x
    assert p.terms == ((0, spec.element(3)), (2, spec.one()))
    assert p.evaluate(spec.zero()) == spec.element(3)
    assert UniPoly.of(spec, [0, 0]).degree == -1
    assert UniPoly.of(spec, [0, 0]).evaluate(x) == spec.zero()


def test_coordinate_functions_identity():
    spec = FieldSpec.default(3)
    F = coordinate_functions(UniPoly.monomial(spec, 1))
    for j, f in enumerate(F.coords):
        assert f.monomials == frozenset((1 << j,))


def test_coordinate_functions_constant():
    spec = FieldSpec.default(2)
    F = coordinate_functions(UniPoly.of(spec, [0b10]))
    assert F.coords[0].is_zero
    assert F.coords[1].is_one


def test_frobenius_coordinates_in_f4():
    spec = FieldSpec(2, 0b111)
    F = coordinate_functions(UniPoly.monomial(spec, 2))
    # (x1 + x2 a)^2 = x1 + x2 a^2 = (x1 + x2) + x2 a
    assert F.coords[0].monomials == frozenset((0b01, 0b10))
    assert F.coords[1].monomials == frozenset((0b10,))


def test_coordinate_round_trip_random_polys():
    """The log/exp value table against ``UniPoly.evaluate``, point by point.

    Every irreducible modulus of degree 1..6 is used, so moduli under which
    x is not primitive (0b11111: x has order 5) are covered.  Short dense
    polynomials are mixed with long sparse ones that carry constant terms,
    zero coefficients and exponents >= 2^n - 1.
    """
    rng = random.Random(43)
    moduli = [
        (n, m) for n in range(1, 7) for m in range(1 << n, 1 << (n + 1))
        if _is_irreducible(m, n)
    ]
    assert (4, 0b11111) in moduli
    for n, m in moduli:
        spec = FieldSpec(n, m)
        uni = mask_of(range(n))
        for _ in range(2):
            short = [rng.randrange(spec.order) for _ in range(rng.randint(1, 6))]
            long = [
                rng.randrange(1, spec.order) if rng.random() < 0.2 else 0
                for _ in range(rng.randint(spec.order, 2 * spec.order + 2))
            ]
            long[0] = rng.randrange(spec.order)
            long[-1] = rng.randrange(1, spec.order)
            for values in (short, long):
                p = UniPoly.of(spec, values)
                F = coordinate_functions(p)
                for v in range(spec.order):
                    x = spec.element(v)
                    assert F.evaluate(Assignment(uni, v)) == p.evaluate(x).value


def test_bit_sliced_moebius_matches_oracle_transform():
    rng = random.Random(47)
    for n in range(1, 11):
        uni = mask_of(range(n))
        for bits in (0, (1 << (1 << n)) - 1, *(rng.getrandbits(1 << n) for _ in range(6))):
            coeffs = moebius(bits, n)
            assert coeffs >> (1 << n) == 0
            monomials = frozenset(i for i in range(1 << n) if coeffs >> i & 1)
            assert monomials == TruthTable(bits, uni).to_anf().monomials


def test_truth_table_transform_is_involutive_on_coordinates():
    spec = FieldSpec.default(3)
    F = coordinate_functions(UniPoly.of(spec, [1, 3, 0, 5]))
    for f in F.coords:
        assert TruthTable.from_anf(f).to_anf() == f


def test_cube_map_permutes_f8_but_not_f16():
    assert is_permutation_polynomial(UniPoly.monomial(FieldSpec.default(3), 3))
    assert not is_permutation_polynomial(UniPoly.monomial(FieldSpec.default(4), 3))


def test_frobenius_permutes_every_field():
    for n in range(1, 9):
        spec = FieldSpec.default(n)
        assert is_permutation_polynomial(UniPoly.monomial(spec, 2))


def test_permutation_verdict_matches_image_counting():
    rng = random.Random(41)
    spec = FieldSpec.default(3)
    for _ in range(15):
        p = UniPoly.of(
            spec, [rng.randrange(spec.order) for _ in range(rng.randint(1, 5))]
        )
        image = {p.evaluate(spec.element(v)).value for v in range(spec.order)}
        assert is_permutation_polynomial(p) == (len(image) == spec.order)


def test_term_points_cap_admits_dense_n12_and_refuses_one_term_more():
    assert MAX_TERM_POINTS == 1 << 24
    check_term_points(UniPoly.of(FieldSpec.default(12), [1] * 4096))  # dense, at the cap
    spec = FieldSpec.default(13)
    check_term_points(UniPoly.of(spec, [1] * 2048))
    with pytest.raises(ValueError, match="2049 nonzero terms over 2\\^13 field points"):
        check_term_points(UniPoly.of(spec, [1] * 2049))


def test_oracle_cap_admits_dense_n10_and_refuses_one_term_more():
    assert MAX_ORACLE_TERM_POINTS == 1 << 20
    check_term_points(UniPoly.of(FieldSpec.default(10), [1] * 1024), MAX_ORACLE_TERM_POINTS)
    spec = FieldSpec.default(11)
    check_term_points(UniPoly.of(spec, [1] * 512), MAX_ORACLE_TERM_POINTS)
    with pytest.raises(ValueError, match="limit of 2\\^20 term evaluations"):
        check_term_points(UniPoly.of(spec, [1] * 513), MAX_ORACLE_TERM_POINTS)
