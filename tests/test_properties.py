"""Property tests: the engine and the CLI against the brute-force oracle."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from boolinv.algebra import Anf, BoolSystem, mask_of
from boolinv.cli import main
from boolinv.engine import EngineConfig, _leaf_scan, implicants
from boolinv.maps import BoolMap
from boolinv.oracle import brute_image, brute_solutions
from boolinv.parsing import MapProblem, VarTable, format_problem


@st.composite
def maps(draw):
    """A map of n <= 5 inputs and n..n+2 outputs, coordinates as monomial masks."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(max(n, 1), n + 2))
    uni = mask_of(range(n))
    monomial = st.integers(0, uni)
    coords = [
        Anf.from_monomials(draw(st.lists(monomial, max_size=6)), uni) for _ in range(m)
    ]
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{j + 1}" for j in range(m))
    return MapProblem(BoolMap.of(coords, n), VarTable(names, n))


def _run_json(*argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue())


def _cube_point(cube: str, outputs: list[str]) -> int:
    """The output point of a full minterm written ``y1 y2' ...``."""
    lits = cube.split()
    assert [lit.rstrip("'") for lit in lits] == outputs, cube
    return sum(1 << j for j, lit in enumerate(lits) if not lit.endswith("'"))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(maps())
def test_complement_matches_oracle(problem):
    F = problem.map
    m = F.m_out
    missing = set(range(1 << m)) - brute_image(F)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.txt"
        path.write_text(format_problem(problem))
        commands = ("coi", "goe") if m == F.n_in else ("coi",)
        for command in commands:
            code, doc = _run_json(command, str(path))
            assert code == 0
            points = {sum(int(ch) << j for j, ch in enumerate(p)) for p in doc["points"]}
            assert points == missing
            assert doc["size"] == len(missing)
            assert all(e.endswith(" = 0") for e in doc["system"])
            cubes = [_cube_point(e[: -len(" = 0")], doc["outputs"]) for e in doc["system"]]
            assert len(set(cubes)) == len(cubes) == (1 << m) - len(missing)
            for y in range(1 << m):
                assert (y in points) == (y not in cubes)


@st.composite
def systems(draw):
    """Up to 4 factors over at most 8 variables.

    Some factors get a variable of their own as a lone monomial, one that
    no other factor uses, so they are solved for it; the rest are random.
    """
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    uni = mask_of(range(n))
    own = draw(st.lists(st.integers(0, n - 1), max_size=k, unique=True))
    shared = uni & ~mask_of(own)
    factors = []
    for j in range(k):
        monomials = draw(st.lists(st.integers(0, shared).map(lambda m: m & shared), max_size=6))
        if j < len(own):
            monomials.append(1 << own[j])
        factors.append(Anf.from_monomials(monomials, uni))
    return BoolSystem(tuple(factors), uni)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems(), st.integers(1, 12))
def test_implicants_match_oracle_at_any_bound(sys, bound):
    cover = implicants(sys, EngineConfig(base_bound_m=bound))
    points = {m.pos for t in cover.terms for m in t.expand(sys.universe)}
    assert points == {a.trues for a in brute_solutions(sys)}
    assert cover.satisfying_total() == len(points)
    assert cover.is_pairwise_orthogonal()
    if _leaf_scan(sys.factors)[0].bit_count() <= bound:  # one leaf scan decides
        assert cover == implicants(sys, EngineConfig(base_bound_m=12))
