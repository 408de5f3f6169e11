"""Acceptance checklist for the package, one test per criterion.

Each test prints a single PASS line (visible with -s; under plain -v the
test outcome line itself is the per-criterion verdict) and enforces the
stated runtime budget where one exists.  Random corpora use fixed seeds
so every run sees the same inputs.
"""

import random
import time

from boolinv.algebra import Anf, BoolSystem, ImplicantSet, Term, mask_of
from boolinv.collision import collision_implicants, diagonal_set, is_one_to_one_diagonal
from boolinv.engine import implicants
from boolinv.gf2n import FieldSpec, UniPoly, is_permutation_polynomial
from boolinv.maps import (
    Uniqueness,
    coi,
    goe,
    is_invertible_square,
    is_one_to_one_general,
    unique_solution,
)
from boolinv.oracle import (
    brute_image,
    brute_injective,
    brute_solutions,
    is_implicant,
    og_sum_is_tautology,
    validate_implicant_set,
)

from conftest import (
    quad_map,
    random_anf,
    random_map_coords,
    random_permutation_coords,
    random_system,
    shift_register_map,
)
from boolinv.maps import BoolMap

SWEEP_SEED = 74207281


def _report(label: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"PASS {label} ({elapsed:.2f}s)")
    return elapsed


def _sweep_maps(count: int = 200) -> list[BoolMap]:
    """Fixed-seed corpus of sparse maps, n in [3,10], m in [n, n+3]."""
    rng = random.Random(SWEEP_SEED)
    maps = []
    for _ in range(count):
        n = rng.randint(3, 10)
        m = rng.randint(n, n + 3)
        maps.append(BoolMap.of(random_map_coords(rng, n, m), n))
    return maps


def _packed_complement(F: BoolMap) -> set[int]:
    image = brute_image(F, cap=16)
    return {p for p in range(1 << F.m_out) if p not in image}


def test_criterion_01_feedback_shift_map_invertible():
    started = time.perf_counter()
    F = shift_register_map()
    v = is_invertible_square(F)
    assert v.one_to_one is True
    assert v.y_minterm_count == 8
    res = goe(F)
    assert res.is_empty and res.points == ()
    elapsed = _report("1 shift-register map invertible, 8 output minterms, no gap", started)
    assert elapsed < 1.0


def test_criterion_02_quadratic_map_gap_matches_brute_force():
    started = time.perf_counter()
    F = quad_map()
    v = is_invertible_square(F)
    assert v.one_to_one is False
    res = goe(F)
    got = set(res.points)
    assert got == _packed_complement(F)
    assert res.size == len(got) == 6
    elapsed = _report("2 quadratic map not one-to-one, 6 unreachable outputs", started)
    assert elapsed < 1.0


def test_criterion_03_sweep_verdicts_and_complements_match_oracle():
    started = time.perf_counter()
    mismatches = 0
    for F in _sweep_maps():
        square = F.m_out == F.n_in
        v = is_invertible_square(F) if square else is_one_to_one_general(F)
        injective, _ = brute_injective(F, cap=16)
        if v.one_to_one != injective:
            mismatches += 1
            continue
        res = goe(F) if square else coi(F)
        got = set(res.points)
        want = _packed_complement(F)
        if got != want or res.size != len(want):
            mismatches += 1
    assert mismatches == 0
    elapsed = _report("3 200-map sweep agrees with the brute-force oracle", started)
    assert elapsed < 300.0


def test_criterion_04_output_minterm_structure_and_square_specialization():
    from boolinv.maps import graph_implicants

    started = time.perf_counter()
    for F in _sweep_maps():
        cover = graph_implicants(F)
        y_mask = F.y_universe
        assert all(t.vars_mask & y_mask == y_mask for t in cover.terms)
        outputs = {t.pos & y_mask for t in cover.terms}
        distinct = tuple(sorted((Term.minterm(y_mask, y) for y in outputs), key=Term.sort_key))
        taut = og_sum_is_tautology(ImplicantSet(distinct, y_mask))
        if F.m_out == F.n_in:
            gap_empty = len(_packed_complement(F)) == 0
            assert taut == gap_empty
            assert is_invertible_square(F) == is_one_to_one_general(F)
        else:
            assert taut is False  # fewer than 2^m minterms can ever appear
    _report("4 output parts are full minterms; tautology iff no gap; square = general", started)


def test_criterion_05_collision_method_agrees_and_recovers_diagonal():
    started = time.perf_counter()
    small = [F for F in _sweep_maps() if F.n_in <= 6] + [shift_register_map(), quad_map()]
    for F in small:
        d = is_one_to_one_diagonal(F)
        g = is_one_to_one_general(F)
        assert d.one_to_one == g.one_to_one
        if not d.one_to_one:
            a1, a2 = d.witness
            assert a1 != a2 and F.evaluate(a1) == F.evaluate(a2)

    rng = random.Random(SWEEP_SEED + 1)
    bijections = [shift_register_map()]
    for n in (2, 3, 4):
        for _ in range(5):
            bijections.append(BoolMap.of(random_permutation_coords(rng, n), n))
    for F in bijections:
        cover = collision_implicants(F)
        expanded = {p for t in cover.terms for p in t.expand(cover.universe)}
        assert expanded == set(diagonal_set(F.n_in))
    elapsed = _report("5 doubled-variable method matches, covers collapse to the diagonal", started)
    assert elapsed < 120.0


def test_criterion_06_unique_solution_classification_matches_counts():
    started = time.perf_counter()
    rng = random.Random(SWEEP_SEED + 2)
    uni2 = mask_of(range(2))
    chain_uni = mask_of(range(12))
    chain = [Anf.variable(0, chain_uni) ^ Anf.one(chain_uni)]
    chain += [
        Anf.variable(i, chain_uni) ^ Anf.variable(i - 1, chain_uni) ^ Anf.one(chain_uni)
        for i in range(1, 12)
    ]
    pinned = [
        BoolSystem.of([Anf.variable(0, uni2) ^ Anf.one(uni2), Anf.variable(1, uni2)], uni2),
        BoolSystem.of([Anf.variable(0, 1), Anf.variable(0, 1) ^ Anf.one(1)], 1),
        BoolSystem.of([Anf.variable(0, uni2) ^ Anf.variable(1, uni2)], uni2),
        BoolSystem.of(chain, chain_uni),
    ]
    systems = pinned + [
        random_system(rng, rng.randint(2, 12), rng.randint(1, 9)) for _ in range(100)
    ]
    seen = set()
    for sys_ in systems:
        res = unique_solution(sys_)
        sols = brute_solutions(sys_)
        if len(sols) == 0:
            assert res.status is Uniqueness.NONE
        elif len(sols) == 1:
            assert res.status is Uniqueness.UNIQUE
            assert res.assignment == sols[0]
        else:
            assert res.status is Uniqueness.MULTIPLE
        seen.add(res.status)
    assert seen == {Uniqueness.NONE, Uniqueness.UNIQUE, Uniqueness.MULTIPLE}
    _report("6 unique-solution classification matches exhaustive counts", started)


def test_criterion_07_permutation_polynomials_cross_checked():
    started = time.perf_counter()
    cases = [
        (UniPoly.monomial(FieldSpec.default(3), 3), True),
        (UniPoly.monomial(FieldSpec.default(4), 3), False),
    ]
    cases += [(UniPoly.monomial(FieldSpec.default(n), 2), True) for n in range(1, 9)]
    for p, expected in cases:
        verdict = is_permutation_polynomial(p)
        assert verdict is expected
        spec = p.spec
        image = {p.evaluate(spec.element(v)).value for v in range(spec.order)}
        assert (len(image) == spec.order) == verdict
    elapsed = _report("7 cube and square maps classified correctly on small fields", started)
    assert elapsed < 10.0


def _wide_system(rng: random.Random) -> BoolSystem:
    """System whose factor supports jointly cover all 14 variables.

    Union support always exceeds the default base bound, so these go
    through cluster selection and splitting rather than one flat scan.
    """
    n_vars = 14
    uni = mask_of(range(n_vars))
    order = list(range(n_vars))
    rng.shuffle(order)
    factors = []
    while order:
        k = min(rng.randint(3, 4), len(order))
        block, order = order[:k], order[k:]
        f = random_anf(rng, block)
        if f.is_zero or f.is_one:
            f = f ^ Anf.variable(block[0], mask_of(block))
        factors.append(f.with_universe(uni))
    for _ in range(rng.randint(0, 10 - len(factors))):
        sup = rng.sample(range(n_vars), rng.randint(1, 4))
        f = random_anf(rng, sup)
        if f.is_zero or f.is_one:
            f = f ^ Anf.variable(sup[0], mask_of(sup))
        factors.append(f.with_universe(uni))
    return BoolSystem(tuple(factors), uni)


def test_criterion_08_cover_validation():
    started = time.perf_counter()
    rng = random.Random(SWEEP_SEED + 3)
    for i in range(500):
        if i % 2:
            sys_ = _wide_system(rng)
        else:
            sys_ = random_system(rng, rng.randint(8, 14), rng.randint(4, 10))
        cover = implicants(sys_)
        report = validate_implicant_set(cover, sys_)
        assert report.ok, report
    elapsed = _report("8 500 covers validate", started)
    assert elapsed < 300.0


def test_scaling_smoke_disjoint_clusters():
    """24 variables in 4 independent 6-variable blocks solve in seconds."""
    started = time.perf_counter()
    uni = mask_of(range(24))
    factors = []
    cluster_counts = []
    for c in range(4):
        a = 6 * c
        x = [Anf.variable(a + i, uni) for i in range(6)]
        block = [
            x[0] * x[1] ^ x[2],
            x[3] ^ x[4] * x[5] ^ Anf.one(uni),
            x[0] ^ x[5] ^ Anf.one(uni),
        ]
        factors.extend(block)
        block_uni = mask_of(range(a, a + 6))
        local = BoolSystem(tuple(f.with_universe(block_uni) for f in block), block_uni)
        cluster_counts.append(len(brute_solutions(local)))
    sys_ = BoolSystem(tuple(factors), uni)

    cover = implicants(sys_)
    expected = 1
    for k in cluster_counts:
        expected *= k
    assert cover.satisfying_total() == expected
    for t in cover.terms[:50]:
        assert is_implicant(t, sys_)
    elapsed = _report("smoke 24-variable 4-cluster system solved", started)
    assert elapsed < 10.0
