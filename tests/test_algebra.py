"""Core algebra: terms, ANF arithmetic, cofactors, canonical order."""

import itertools
import random

import pytest

from boolinv.algebra import (
    Anf,
    Assignment,
    BoolSystem,
    MissingVariableError,
    Term,
    bit_flags,
    mask_of,
    submasks,
    vars_of,
)

X1, X2, X3, X4 = 0, 1, 2, 3


def product_points(vs: list[int]) -> list[int]:
    """Reference enumeration: itertools.product, first variable most significant."""
    return [
        sum(1 << v for v, b in zip(vs, bits) if b)
        for bits in itertools.product((0, 1), repeat=len(vs))
    ]


def test_mask_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vars_of(0b100101) == [0, 2, 5]
    assert vars_of(0) == []


def test_term_validation_rejects_conflicting_polarity():
    with pytest.raises(ValueError):
        Term(pos=0b1, neg=0b1)


def test_empty_term_is_identity():
    one = Term()
    assert one.is_one


def test_term_satisfying_count():
    uni = mask_of([X1, X2, X3])
    assert Term().satisfying_count(uni) == 8
    assert Term.of((X1, 1)).satisfying_count(uni) == 4
    assert Term.of((X1, 1), (X2, 0), (X3, 1)).satisfying_count(uni) == 1


def test_term_expand_enumerates_contained_minterms():
    uni = mask_of([X1, X2, X3])
    t = Term.of((X2, 0))
    minterms = list(t.expand(uni))
    assert len(minterms) == 4
    assert all(m.fixes(uni) for m in minterms)
    assert all((m.neg >> X2) & 1 for m in minterms)
    assert len(set(minterms)) == 4
    rng = random.Random(5)
    for n in range(1, 7):
        uni = mask_of(range(n))
        for _ in range(20):
            fixed = rng.sample(range(n), rng.randint(0, n))
            t = Term.of(*((v, rng.randint(0, 1)) for v in fixed))
            free = uni & ~t.vars_mask
            expected = [Term(t.pos | p, t.neg | (free ^ p)) for p in product_points(vars_of(free))]
            assert list(t.expand(uni)) == expected


def test_submasks_in_minterm_sort_key_order():
    rng = random.Random(11)
    masks = [0, 0b1, 0b1111, 0b111000, 0b1010010, 1 << 40 | 1 << 3]
    masks += [rng.getrandbits(14) for _ in range(30)]
    for mask in masks:
        subs = list(submasks(mask))
        bits = [1 << v for v in vars_of(mask)]
        every = [sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r)]
        assert subs == sorted(every, key=lambda p: Term.minterm(mask, p).sort_key())
        assert subs == product_points(vars_of(mask))


def test_bit_flags_byte_i_is_bit_i_padded_to_size():
    rng = random.Random(12)
    for size in (1, 2, 8, 13, 64, 300):
        bits = rng.getrandbits(size)
        flags = bit_flags(bits, size)
        assert flags == bytes((bits >> i) & 1 for i in range(size))
        assert list(itertools.compress(range(size), flags)) == vars_of(bits)
    assert bit_flags(0b101, 6) == b"\1\0\1\0\0\0"
    assert bit_flags(0, 5) == bytes(5)


def test_term_assignment_requires_full_fixing():
    uni = mask_of([X1, X2])
    full = Term.of((X1, 1), (X2, 0))
    a = full.assignment(uni)
    assert a.value(X1) == 1 and a.value(X2) == 0
    with pytest.raises(ValueError):
        Term.of((X1, 1)).assignment(uni)


def test_anf_xor_cancels_duplicates():
    x1 = Anf.variable(X1)
    assert (x1 ^ x1).is_zero
    f = x1 ^ Anf.one()
    assert f.monomials == frozenset((0b1, 0))


def test_anf_mul_distributes_and_cancels():
    uni = mask_of([X1, X2])
    x1, x2 = Anf.variable(X1, uni), Anf.variable(X2, uni)
    # (x1 + x2)(x1 + x2) = x1 + x2 over F2 (idempotent squares, cross terms cancel)
    s = x1 ^ x2
    assert s * s == s
    # (x1 + 1)(x2 + 1) = x1 x2 + x1 + x2 + 1
    p = (x1 ^ Anf.one(uni)) * (x2 ^ Anf.one(uni))
    assert p.monomials == frozenset((0b11, 0b01, 0b10, 0))


def test_anf_evaluate_matches_truth_semantics():
    uni = mask_of([X1, X2, X3])
    x1, x2, x3 = (Anf.variable(v, uni) for v in (X1, X2, X3))
    f = (x1 * x2) ^ x3
    for bits in itertools.product((0, 1), repeat=3):
        a = Assignment.from_values({X1: bits[0], X2: bits[1], X3: bits[2]})
        assert f.evaluate(a) == (bits[0] & bits[1]) ^ bits[2]


def test_anf_evaluate_missing_variable():
    f = Anf.variable(X3)
    with pytest.raises(MissingVariableError):
        f.evaluate(Assignment.from_values({X1: 1}))


def test_anf_complement():
    f = Anf.variable(X1)
    g = ~f
    a0 = Assignment.from_values({X1: 0})
    a1 = Assignment.from_values({X1: 1})
    assert g.evaluate(a0) == 1 and g.evaluate(a1) == 0


def test_ratio_substitutes_fixed_variables():
    uni = mask_of([X1, X2, X3])
    x1, x2, x3 = (Anf.variable(v, uni) for v in (X1, X2, X3))
    f = (x1 * x2) ^ x3
    # on the subcube x1 = 1 the function collapses to x2 + x3
    g = f.ratio(Term.of((X1, 1)))
    assert g.monomials == frozenset((1 << X2, 1 << X3))
    assert g.universe == mask_of([X2, X3])
    # on x1 = 0 the product monomial dies
    h = f.ratio(Term.of((X1, 0)))
    assert h.monomials == frozenset((1 << X3,))


def test_ratio_can_cancel_to_constants():
    uni = mask_of([X1, X2])
    x1, x2 = Anf.variable(X1, uni), Anf.variable(X2, uni)
    f = (x1 * x2) ^ x2  # = x2 (x1 + 1)
    assert f.ratio(Term.of((X1, 1))).is_zero
    assert f.ratio(Term.of((X1, 0), (X2, 1))).is_one


def test_ratio_agrees_with_evaluation_on_remaining_cube():
    uni = mask_of([X1, X2, X3, X4])
    x = [Anf.variable(v, uni) for v in range(4)]
    f = (x[0] * x[1]) ^ (x[2] * x[3]) ^ x[1] ^ Anf.one(uni)
    t = Term.of((X2, 1), (X4, 0))
    g = f.ratio(t)
    for bits in itertools.product((0, 1), repeat=2):
        rest = {X1: bits[0], X3: bits[1]}
        full = Assignment.from_values({**rest, X2: 1, X4: 0})
        assert g.evaluate(Assignment.from_values(rest)) == f.evaluate(full)


def test_system_ratio_cofactors_every_factor():
    uni = mask_of([X1, X2])
    x1, x2 = Anf.variable(X1, uni), Anf.variable(X2, uni)
    sys = BoolSystem.of([x1 ^ x2, ~(x1 * x2)], universe=uni)
    sub = sys.ratio(Term.of((X1, 1)))
    assert sub.universe == mask_of([X2])
    assert sub.factors[0].monomials == frozenset((1 << X2, 0))
    assert sub.factors[1].monomials == frozenset((1 << X2, 0))


def test_sorted_monomials_order():
    uni = mask_of([X1, X2, X3])
    x1, x2, x3 = (Anf.variable(v, uni) for v in (X1, X2, X3))
    f = Anf.one(uni) ^ (x1 * x3) ^ x2 ^ (x1 * x2 * x3)
    order = f.sorted_monomials()
    # degree-sorted with the constant last
    assert order == [1 << X2, (1 << X1) | (1 << X3), 0b111, 0]


def test_sort_key_orders_like_literal_tuples():
    rng = random.Random(7)
    terms = []
    for _ in range(2000):
        vs = rng.sample(range(rng.choice((3, 6, 40))), rng.randint(0, 3))
        terms.append(Term.of(*((v, rng.randint(0, 1)) for v in vs)))

    def literals(t: Term) -> tuple[tuple[int, int], ...]:
        return tuple((v, (t.pos >> v) & 1) for v in vars_of(t.pos | t.neg))

    by_literals = sorted(terms, key=literals)
    assert sorted(terms, key=Term.sort_key) == by_literals
    for a, b in zip(terms, terms[1:]):
        assert (a.sort_key() < b.sort_key()) == (literals(a) < literals(b))
        assert (a.sort_key() == b.sort_key()) == (a == b)
