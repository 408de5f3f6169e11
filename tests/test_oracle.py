"""Exhaustive-oracle internals: truth tables, Moebius transform, audits."""

import ast
import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolinv
from boolinv.algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term, mask_of
from boolinv.oracle import (
    OrthogonalityError,
    TruthTable,
    _orthogonality_violation,
    brute_image,
    brute_image_count,
    brute_injective,
    brute_solutions,
    is_implicant,
    og_sum_is_tautology,
    point_assignment,
    solution_count,
    validate_implicant_set,
)

from conftest import random_map_coords

A, B, C = 0, 1, 2
X1, X2, X3 = A, B, C


def test_point_assignment_bit_convention():
    uni = mask_of([1, 3, 4])  # ascending vars: 1, 3, 4
    a = point_assignment(uni, 0b101)  # k=0 -> var 1, k=2 -> var 4
    assert a.value(1) == 1 and a.value(3) == 0 and a.value(4) == 1


def test_truth_table_matches_evaluation():
    uni = mask_of([A, B, C])
    x = [Anf.variable(v, uni) for v in range(3)]
    f = (x[0] * x[1]) ^ x[2] ^ Anf.one(uni)
    tt = TruthTable.from_anf(f)
    for i, bits in enumerate(itertools.product((0, 1), repeat=3)):
        # point index bit k is the k-th smallest variable
        a = Assignment.from_values({A: bits[2], B: bits[1], C: bits[0]})
        idx = bits[2] | (bits[1] << 1) | (bits[0] << 2)
        assert (tt.bits >> idx) & 1 == f.evaluate(a)


def test_moebius_roundtrip_random():
    import random

    rng = random.Random(7)
    uni = mask_of(range(5))
    for _ in range(30):
        monos = frozenset(rng.sample(range(32), rng.randint(0, 12)))
        f = Anf(monos, uni)
        assert TruthTable.from_anf(f).to_anf() == f


def test_moebius_known_functions():
    uni = mask_of([A, B, C])
    # majority(a, b, c) has table 0b11101000 under the LSB-first convention
    maj = TruthTable(0b11101000, uni).to_anf()
    assert maj.monomials == frozenset((0b011, 0b101, 0b110))
    const1 = TruthTable(0xFF, uni).to_anf()
    assert const1.is_one


def test_from_term_counts_cube_points():
    uni = mask_of([A, B, C])
    t = Term.of((A, 1), (C, 0))
    tt = TruthTable.from_term(t, uni)
    assert tt.count() == 2
    for i in tt.points():
        assert t.satisfies(point_assignment(uni, i))


def test_validate_accepts_exact_cover():
    uni = mask_of([A, B])
    x, y = Anf.variable(A, uni), Anf.variable(B, uni)
    sys = BoolSystem.of([x ^ y], universe=uni)  # x != y
    cover = ImplicantSet((Term.of((A, 1), (B, 0)), Term.of((A, 0), (B, 1))), uni)
    rep = validate_implicant_set(cover, sys)
    assert rep.ok


def test_validate_flags_unsound_term():
    uni = mask_of([A, B])
    x, y = Anf.variable(A, uni), Anf.variable(B, uni)
    sys = BoolSystem.of([x * y], universe=uni)
    cover = ImplicantSet((Term.of((A, 1)),), uni)  # admits x=1, y=0
    rep = validate_implicant_set(cover, sys)
    assert not rep.sound
    idx, point = rep.unsound_term
    assert idx == 0
    assert point.value(A) == 1 and point.value(B) == 0


def test_validate_flags_overlap_and_incompleteness():
    uni = mask_of([A, B])
    x, y = Anf.variable(A, uni), Anf.variable(B, uni)
    sys = BoolSystem.of([x ^ y ^ Anf.one(uni)], universe=uni)  # x == y
    over = ImplicantSet(
        (Term.of((A, 1), (B, 1)), Term.of((A, 1), (B, 1))), uni
    )
    rep = validate_implicant_set(over, sys)
    assert not rep.orthogonal
    assert rep.overlap[0] == 0 and rep.overlap[1] == 1
    assert not rep.complete  # 00 never covered
    assert rep.missing_point.trues == 0


def test_validate_rejects_oversized_universe():
    uni = mask_of(range(30))
    sys = BoolSystem.of([Anf.one(uni)], universe=uni)
    with pytest.raises(ValueError):
        validate_implicant_set(ImplicantSet((), uni), sys)


def test_is_implicant_structural():
    uni = mask_of([X1, X2, X3])
    x1, x2, x3 = (Anf.variable(v, uni) for v in (X1, X2, X3))
    # system: x1 x2 = 1 and x3 + 1 = 1  (i.e. x3 = 0)
    sys = BoolSystem.of([x1 * x2, ~x3], universe=uni)
    assert is_implicant(Term.of((X1, 1), (X2, 1), (X3, 0)), sys)
    assert not is_implicant(Term.of((X1, 1), (X2, 1)), sys)  # x3 left free
    assert not is_implicant(Term.of((X1, 1), (X3, 0)), sys)


def test_og_sum_detects_tautology():
    uni = mask_of([X1, X2])
    cover = ImplicantSet(
        (Term.of((X1, 1)), Term.of((X1, 0), (X2, 1)), Term.of((X1, 0), (X2, 0))),
        uni,
    )
    assert og_sum_is_tautology(cover)
    partial = ImplicantSet((Term.of((X1, 1)), Term.of((X1, 0), (X2, 1))), uni)
    assert not og_sum_is_tautology(partial)


def test_og_sum_rejects_overlapping_family():
    uni = mask_of([X1, X2])
    overlapping = ImplicantSet((Term.of((X1, 1)), Term.of((X2, 1))), uni)
    with pytest.raises(OrthogonalityError):
        og_sum_is_tautology(overlapping)


@st.composite
def cube_families(draw):
    """Up to seven cubes over at most 8 variables; some families hold a
    cube together with a subcube of it, so those two surely overlap."""
    n = draw(st.integers(1, 8))
    full = (1 << n) - 1
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, full))
        terms.append(Term(pos, draw(st.integers(0, full)) & ~pos))
    if terms and draw(st.booleans()):
        t = terms[draw(st.integers(0, len(terms) - 1))]
        v = 1 << draw(st.integers(0, n - 1))
        if not t.vars_mask & v:
            t = Term(t.pos | v, t.neg) if draw(st.booleans()) else Term(t.pos, t.neg | v)
        terms.insert(draw(st.integers(0, len(terms))), t)
    return tuple(terms), full


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cube_families())
def test_mask_and_truth_table_orthogonality_audits_agree(family):
    terms, uni = family
    sys = BoolSystem.of([Anf.one(uni)], universe=uni)
    bad = _orthogonality_violation(terms)
    assert (bad is None) == validate_implicant_set(ImplicantSet(terms, uni), sys).orthogonal
    if bad is not None:
        i, j = bad
        assert TruthTable.from_term(terms[i], uni).bits & TruthTable.from_term(terms[j], uni).bits


def test_brute_solutions_order_and_content():
    uni = mask_of([A, B, C])
    x = [Anf.variable(v, uni) for v in range(3)]
    sys = BoolSystem.of([x[0] ^ x[1], ~x[2]], universe=uni)  # a != b, c = 0
    sols = brute_solutions(sys)
    assert [s.trues for s in sols] == [0b001, 0b010]
    assert solution_count(sys) == 2


def _tiny_map(coords, n_in):
    return SimpleNamespace(coords=coords, n_in=n_in)


def test_brute_image_and_injectivity():
    uni = mask_of([A, B])
    x, y = Anf.variable(A, uni), Anf.variable(B, uni)
    # (a, b) -> (a XOR b, b): a permutation of the 2-cube
    F = _tiny_map([x ^ y, y], 2)
    assert brute_image(F) == frozenset(range(4))
    assert brute_image_count(F) == 4
    ok, wit = brute_injective(F)
    assert ok and wit is None
    # (a, b) -> (ab, ab): image has two points, collisions exist
    G = _tiny_map([x * y, x * y], 2)
    assert brute_image(G) == frozenset((0, 3))
    ok, wit = brute_injective(G)
    assert not ok
    a1, a2 = wit
    assert a1.trues != a2.trues


def test_brute_image_respects_cap():
    uni = mask_of(range(17))
    coords = [Anf.variable(v, uni) for v in range(17)]
    F = _tiny_map(coords, 17)
    with pytest.raises(ValueError):
        brute_image(F)
    with pytest.raises(ValueError):
        brute_injective(F)
    with pytest.raises(ValueError):
        brute_image_count(F, cap=16)


def test_image_count_matches_image_on_both_paths():
    # m <= 24 counts in a bitset of seen outputs, m > 24 in a set
    rng = random.Random(23)
    for m in (1, 2, 3, 4, 25, 26):
        for _ in range(8):
            n = rng.randint(1, 6)
            F = _tiny_map(random_map_coords(rng, n, m), n)
            assert brute_image_count(F) == len(brute_image(F))


def test_only_the_front_end_imports_the_oracle():
    """The production path must not lean on the referee it is checked against."""
    package = Path(boolinv.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative to the package
                    base = "boolinv" + (f".{base}" if base else "")
                targets = [base] + [f"{base}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            else:
                continue
            if "boolinv.oracle" in targets:
                importers.add(path.stem)
    assert importers == {"cli", "__init__"}
