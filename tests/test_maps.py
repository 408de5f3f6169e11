"""Graph-system map analyses: invertibility, image complement, uniqueness."""

import random

import pytest

import boolinv.maps
from boolinv.algebra import (
    Anf,
    Assignment,
    BoolSystem,
    ImplicantSet,
    Term,
    mask_of,
    submasks,
)
from boolinv.maps import (
    BoolMap,
    NonSquareMapError,
    Uniqueness,
    build_graph_system,
    coi,
    goe,
    graph_implicants,
    is_invertible_square,
    is_one_to_one_general,
    unique_solution,
)
from boolinv.oracle import (
    brute_image,
    brute_injective,
    og_sum_is_tautology,
    solution_count,
    validate_implicant_set,
)
from boolinv.parsing import parse_text

from conftest import (
    identity_map,
    quad_map,
    random_map_coords,
    random_system,
    shift_register_map,
)


def test_graph_system_identity():
    F = identity_map(2)
    sys = build_graph_system(F)
    assert sys.universe == mask_of(range(4))
    uni = sys.universe
    assert sys.factors[0].monomials == frozenset((1 << 0, 1 << 2, 0))
    assert sys.factors[1].monomials == frozenset((1 << 1, 1 << 3, 0))


def test_graph_system_shift_map():
    sys = build_graph_system(shift_register_map())
    # x2 + y1 + 1, x3 + y2 + 1, x1 + x2 x3 + y3 + 1
    assert sys.factors[0].monomials == frozenset((1 << 1, 1 << 3, 0))
    assert sys.factors[1].monomials == frozenset((1 << 2, 1 << 4, 0))
    assert sys.factors[2].monomials == frozenset((1 << 0, 0b110, 1 << 5, 0))


def test_graph_system_quad_constant_cancels():
    sys = build_graph_system(quad_map())
    # f4 = x2 x4 + 1, so h4 = x2 x4 + 1 + y4 + 1 = x2 x4 + y4
    assert sys.factors[3].monomials == frozenset((0b1010, 1 << 7))
    # f1 = x1 x3 has no constant, so h1 = x1 x3 + y1 + 1 keeps the 1
    assert sys.factors[0].monomials == frozenset((0b0101, 1 << 4, 0))
    assert all(h.universe == sys.universe == 0xFF for h in sys.factors)


@pytest.mark.parametrize("bound, terms", [(1, 9), (2, 9), (3, 9), (4, 16), (12, 16)])
def test_graph_cover_has_one_term_per_read_point_only_within_the_bound(bound, terms):
    # y_i = x_i x4 reads all four inputs; past the bound, x4 = 0 leaves x1..x3 free in one term
    F = parse_text("vars: x1 x2 x3 x4\ny1 = x1*x4\ny2 = x2*x4\ny3 = x3*x4\ny4 = x4\n").map
    cover = graph_implicants(F, bound)
    assert len(cover) == terms
    assert validate_implicant_set(cover, build_graph_system(F)).ok


def test_shift_map_invertible():
    v = is_invertible_square(shift_register_map())
    assert v.one_to_one
    assert v.y_minterm_count == 8
    assert v.witness is None


def test_identity_invertible():
    v = is_invertible_square(identity_map(3))
    assert v.one_to_one and v.y_minterm_count == 8


def test_quad_map_not_invertible_with_valid_witness():
    F = quad_map()
    v = is_invertible_square(F)
    assert not v.one_to_one
    a1, a2 = v.witness
    assert a1.trues != a2.trues
    assert F.evaluate(a1) == F.evaluate(a2)


def test_invertible_square_rejects_non_square():
    uni = mask_of(range(2))
    F = BoolMap.of([Anf.variable(0, uni)], 2)
    with pytest.raises(NonSquareMapError, match="; use is_one_to_one_general for non-square maps$"):
        is_invertible_square(F)


def test_goe_rejects_non_square_and_names_coi():
    uni = mask_of(range(1))
    F = BoolMap.of([Anf.variable(0, uni), Anf.one(uni)], 1)
    with pytest.raises(NonSquareMapError, match="^map has 1 inputs and 2 outputs; use coi for"):
        goe(F)
    assert coi(F).size == 2


def test_goe_shift_map_empty():
    res = goe(shift_register_map())
    assert res.is_empty
    assert res.size == 0
    assert res.points == ()


def test_goe_quad_map_six_points():
    F = quad_map()
    res = goe(F)
    assert res.size == 6
    assert [format(w, "04b")[::-1] for w in res.points] == [
        "0110",
        "0111",
        "1000",
        "1010",
        "1100",
        "1111",
    ]


def test_goe_matches_brute_complement():
    F = quad_map()
    image = brute_image(F)
    res = goe(F)
    assert set(res.points) == set(range(16)) - image


def test_goe_symbolic_system_defines_the_points():
    F = quad_map()
    res = goe(F)
    full = (1 << F.m_out) - 1
    image = set(res.image)
    assert all(0 <= w <= full for w in image)
    assert list(res.image) == [w for w in submasks(full) if w in image]
    listed = set(res.points)
    for y in range(full + 1):
        assert (y in listed) == (y not in image)


def test_goe_constant_map():
    uni = mask_of(range(2))
    F = BoolMap.of([Anf.zero(uni), Anf.zero(uni)], 2)
    res = goe(F)
    assert res.size == 3
    assert all(w != 0 for w in res.points)


def test_goe_cap_suppresses_points():
    res = goe(quad_map(), max_points=8)
    assert res.points is None
    assert res.size == 6


def test_one_to_one_expanding_map():
    uni = mask_of(range(2))
    x1, x2 = Anf.variable(0, uni), Anf.variable(1, uni)
    F = BoolMap.of([x1, x2, x1 ^ x2], 2)
    v = is_one_to_one_general(F)
    assert v.one_to_one and v.y_minterm_count == 4


def test_one_to_one_pigeonhole_failure():
    uni = mask_of(range(2))
    F = BoolMap.of([Anf.variable(0, uni) * Anf.variable(1, uni)], 2)
    v = is_one_to_one_general(F)
    assert not v.one_to_one
    a1, a2 = v.witness
    assert a1.trues != a2.trues and F.evaluate(a1) == F.evaluate(a2)


def test_one_to_one_repeated_coordinate():
    uni = mask_of(range(2))
    x1, x2 = Anf.variable(0, uni), Anf.variable(1, uni)
    v = is_one_to_one_general(BoolMap.of([x1, x1, x1 ^ x2], 2))
    assert v.one_to_one


def test_coi_expanding_map():
    uni = mask_of(range(2))
    x1, x2 = Anf.variable(0, uni), Anf.variable(1, uni)
    res = coi(BoolMap.of([x1, x2, x1 ^ x2], 2))
    assert res.size == 4
    assert len(res.points) == 4


def test_coi_of_invertible_square_is_empty():
    assert coi(shift_register_map()).is_empty


def test_coi_tiny_constant_map():
    uni = mask_of(range(1))
    res = coi(BoolMap.of([Anf.zero(uni), Anf.zero(uni)], 1))
    assert res.size == 3


def test_coi_answers_contracting_map():
    uni = mask_of(range(2))
    assert coi(BoolMap.of([Anf.variable(0, uni)], 2)).is_empty
    res = coi(BoolMap.of([Anf.one(uni)], 2))
    assert (res.size, res.image, res.points) == (1, (1,), (0,))


def test_unique_solution_trivial_cases():
    uni = mask_of(range(2))
    x1, x2 = Anf.variable(0, uni), Anf.variable(1, uni)
    res = unique_solution(BoolSystem.of([~x1, x2], universe=uni))
    assert res.status is Uniqueness.UNIQUE
    assert res.assignment.value(0) == 0 and res.assignment.value(1) == 1
    res = unique_solution(BoolSystem.of([x1 ^ x2 ^ Anf.one(uni)], universe=uni))
    assert res.status is Uniqueness.MULTIPLE
    res = unique_solution(BoolSystem.of([x1, ~x1], universe=uni))
    assert res.status is Uniqueness.NONE


def test_unique_solution_matches_oracle_on_corpus():
    rng = random.Random(11)
    for _ in range(40):
        sys = random_system(rng, rng.randint(2, 8), rng.randint(1, 5))
        res = unique_solution(sys)
        count = solution_count(sys)
        if count == 0:
            assert res.status is Uniqueness.NONE
        elif count == 1:
            assert res.status is Uniqueness.UNIQUE
            assert sys.satisfied_by(res.assignment)
        else:
            assert res.status is Uniqueness.MULTIPLE


def _random_map(rng, n, m):
    return BoolMap.of(random_map_coords(rng, n, m), n)


def test_graph_cover_output_parts_are_minterms_on_corpus():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rng.randint(n, n + 2)
        F = _random_map(rng, n, m)
        cover = graph_implicants(F)
        assert cover.satisfying_total() == 1 << n
        for t in cover.terms:
            # input cube r times output point s: every x in r maps to s
            assert t.vars_mask & F.y_universe == F.y_universe
            r = Term(t.pos & F.x_universe, t.neg & F.x_universe)
            for x in r.expand(F.x_universe):
                assert F.evaluate(Assignment(F.x_universe, x.pos)) == t.pos >> n


def test_repeated_output_wins_over_an_earlier_free_cube():
    # x3 is free in every cube, the first one included; x1 x2 repeats the output 0
    uni = mask_of(range(3))
    x1, x2 = Anf.variable(0, uni), Anf.variable(1, uni)
    F = BoolMap.of([x1 * x2, Anf.zero(uni), Anf.zero(uni)], 3)
    v = is_one_to_one_general(F)
    assert not v.one_to_one
    assert v.y_minterm_count == 2
    assert [a.trues for a in v.witness] == [0b000, 0b010]  # x2 = 1 repeats x = 0
    assert all(a.universe == F.x_universe for a in v.witness)


def test_free_cube_witness_sets_its_lowest_free_input():
    # x2 and x3 are free; the outputs are distinct on the inputs the map reads
    uni = mask_of(range(4))
    x1, x4 = Anf.variable(0, uni), Anf.variable(3, uni)
    F = BoolMap.of([x1, x4, x1 ^ x4, Anf.zero(uni)], 4)
    v = is_one_to_one_general(F)
    assert not v.one_to_one
    assert v.y_minterm_count == 4
    assert [a.trues for a in v.witness] == [0b0000, 0b0010]
    assert all(a.universe == F.x_universe for a in v.witness)


def test_collision_in_a_later_chunk_names_the_points_brute_force_does(monkeypatch):
    # y1 = x1 + x1 x2 + x1 x2 x3 is 0 at x1 x2 x3 = 110, the output of 010 repeated;
    # in chunks of width 1 the chunks fix x1 x2: 010 is in the second of four, 110
    # in the last
    uni = mask_of(range(3))
    x1, x2, x3 = (Anf.variable(v, uni) for v in range(3))
    F = BoolMap.of([x1 ^ x1 * x2 ^ x1 * x2 * x3, x2, x3], 3)
    injective, expected = brute_injective(F)
    assert not injective and [a.trues for a in expected] == [0b010, 0b011]
    for width in (1, 2, 12):  # the verdict scans in chunks of 2**DEFAULT_BOUND points
        monkeypatch.setattr(boolinv.maps, "DEFAULT_BOUND", width)
        v = is_one_to_one_general(F)
        assert (v.one_to_one, v.witness, v.y_minterm_count) == (False, expected, 7), width


def test_missing_outputs_without_a_collision_is_an_engine_defect(monkeypatch):
    # a scan that misses the point x1 x2 = 11 of a map that reads both inputs
    F = identity_map(2)
    words = [0b00, 0b01, 0b10]
    monkeypatch.setattr(boolinv.maps, "_functional_scan", lambda coords, bound: words)
    with pytest.raises(RuntimeError, match="without extractable witness"):
        is_invertible_square(F)


def test_graph_cover_guard_rejects_a_free_output(monkeypatch):
    F = identity_map(2)
    free_y = ImplicantSet((Term.of((0, 0), (1, 0), (2, 0)),), F.x_universe | F.y_universe)
    monkeypatch.setattr(boolinv.maps, "implicants", lambda sys, bound=None: free_y)
    with pytest.raises(RuntimeError, match="leaves an output variable free"):
        graph_implicants(F)


def test_verdicts_match_oracle_on_corpus():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rng.choice((n, n, n + 1, n + 2, max(1, n - 1)))
        F = _random_map(rng, n, m)
        got = is_one_to_one_general(F)
        expected, _ = brute_injective(F)
        assert got.one_to_one == expected
        if not got.one_to_one:
            a1, a2 = got.witness
            assert a1.trues != a2.trues
            assert F.evaluate(a1) == F.evaluate(a2)
        if m >= n:
            res = coi(F)
            complement = set(range(1 << m)) - set(brute_image(F))
            assert set(res.points) == complement
            assert res.size == len(complement)


def test_complement_words_partition_the_output_space_in_canonical_order():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 2)
        F = _random_map(rng, n, m)
        res = coi(F)
        words = list(submasks((1 << m) - 1))
        image, points = set(res.image), set(res.points)
        assert sorted(res.image + res.points) == sorted(words)
        assert not image & points
        assert list(res.image) == [w for w in words if w in image]
        assert list(res.points) == [w for w in words if w in points]
        x_mask = F.x_universe
        assert image == {
            F.evaluate(Assignment(x_mask, x)) for x in range(x_mask + 1)
        }
        assert res.size == len(res.points)


def test_square_theorem_condition_equivalences():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 5)
        F = _random_map(rng, n, n)
        y_mask = F.y_universe
        outputs = {t.pos & y_mask for t in graph_implicants(F).terms}
        family = ImplicantSet(
            tuple(sorted((Term.minterm(y_mask, y) for y in outputs), key=Term.sort_key)),
            y_mask,
        )
        tautology = og_sum_is_tautology(family)
        empty_goe = goe(F).is_empty
        square = is_invertible_square(F)
        general = is_one_to_one_general(F)
        assert tautology == empty_goe == square.one_to_one == general.one_to_one


def test_verdict_shape_invariant():
    with pytest.raises(ValueError):
        from boolinv.maps import Verdict

        Verdict(True, (None, None), 4)
