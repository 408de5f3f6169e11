"""Property tests: the engine and the CLI against the brute-force oracle."""

import contextlib
import io
import itertools
import json
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boolinv import parsing
from boolinv.algebra import Anf, Assignment, BoolSystem, Term, mask_of, submasks, vars_of
from boolinv.cli import _HANDLERS, _json, main
from boolinv.engine import (
    DEFAULT_BOUND,
    MAX_BOUND,
    _factor_table,
    _functional_scan,
    _leaf_scan,
    implicants,
)
from boolinv.gf2n import (
    FieldSpec,
    UniPoly,
    _is_irreducible,
    coordinate_functions,
    is_permutation_polynomial,
)
from boolinv.maps import (
    DEFAULT_MAX_POINTS,
    BoolMap,
    _image_complement,
    _one_to_one_verdict,
    build_graph_system,
    graph_implicants,
    is_invertible_square,
)
from boolinv.oracle import (
    _orthogonality_violation,
    brute_image,
    brute_injective,
    brute_solutions,
)
from boolinv.parsing import (
    MapProblem,
    ParseError,
    PolyProblem,
    SystemProblem,
    VarTable,
    _ANF_TOKEN,
    _products,
    _scan_anf,
    format_problem,
    parse_text,
)

from conftest import random_map_coords


@st.composite
def maps(draw, narrow=False):
    """A map of n <= 5 inputs and n..n+2 outputs, coordinates as monomial masks.

    With ``narrow`` the map may also have fewer outputs than inputs.
    """
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1 if narrow else max(n, 1), n + 2))
    uni = mask_of(range(n))
    monomial = st.integers(0, uni)
    coords = [
        Anf.from_monomials(draw(st.lists(monomial, max_size=6)), uni) for _ in range(m)
    ]
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{j + 1}" for j in range(m))
    return MapProblem(BoolMap.of(coords, n), VarTable(names, n))


def _run_bytes(*argv) -> tuple[int, str]:
    """Exit code and stdout of one JSON run of the command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


def _run_json(*argv) -> tuple[int, dict]:
    code, out = _run_bytes(*argv)
    return code, json.loads(out)


def _cube_point(cube: str, outputs: list[str]) -> int:
    """The output point of a full minterm written ``y1 y2' ...``."""
    lits = cube.split()
    assert [lit.rstrip("'") for lit in lits] == outputs, cube
    return sum(1 << j for j, lit in enumerate(lits) if not lit.endswith("'"))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(maps(narrow=True))
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
def word_maps(draw):
    """A map of 1..8 inputs and 1..n+4 outputs that may leave inputs unused.

    Some inputs may be private and linear: a lone monomial of one
    coordinate that no other coordinate reads.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, n + 4))
    uni = mask_of(range(n))
    used = draw(st.integers(0, uni))
    coords = [
        draw(st.lists(st.integers(0, uni).map(lambda mono: mono & used), max_size=6))
        for _ in range(m)
    ]
    for v in vars_of(uni & ~used):
        j = draw(st.integers(-1, m - 1))  # -1: x_v stays unused
        if j >= 0:
            coords[j].append(1 << v)
    return BoolMap.of([Anf.from_monomials(c, uni) for c in coords], n)


#: words of 32 and 64 bits, and of 70 bits, which are read one point at a time
_WIDE_MAPS = [BoolMap.of(random_map_coords(random.Random(m), 6, m), 6) for m in (20, 40, 70)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(word_maps())
@example(_WIDE_MAPS[0])
@example(_WIDE_MAPS[1])
@example(_WIDE_MAPS[2])
def test_leaf_words_are_the_same_at_every_bound(F):
    read = build_graph_system(F).support & F.x_universe  # the inputs the map reads
    k = read.bit_count()
    words = _functional_scan(F.coords, k)
    assert words == [F.evaluate(Assignment(F.x_universe, x)) for x in submasks(read)]
    verdict = _one_to_one_verdict(F)
    injective, _ = brute_injective(F)
    assert verdict.one_to_one == injective
    if not injective:
        a, b = verdict.witness
        assert a != b and F.evaluate(a) == F.evaluate(b)
    image = brute_image(F)
    assert verdict.y_minterm_count == len(image)
    complement = _image_complement(F, DEFAULT_MAX_POINTS)
    assert set(complement.image) == image and len(complement.image) == len(image)
    assert complement.size == (1 << F.m_out) - len(image)
    if complement.points is not None:
        assert set(complement.points) == set(range(1 << F.m_out)) - image
    for bound in range(1, k + 1):  # chunks of every width
        assert _functional_scan(F.coords, bound) == words, bound


@st.composite
def sparse_maps(draw):
    """A ``random_map_coords`` map of 1..12 inputs and 1..n+2 outputs."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n + 2))
    return BoolMap.of(random_map_coords(random.Random(draw(st.integers(0, 1 << 16))), n, m), n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(word_maps(), sparse_maps()))
def test_verdict_words_are_the_graph_cover(F):
    # the verdicts' words are the implicant cover of the graph system, term for term
    n = F.n_in
    read = build_graph_system(F).support & F.x_universe
    fixed = read | F.y_universe
    words = _functional_scan(F.coords, DEFAULT_BOUND)
    minterms = [x | y << n for x, y in zip(submasks(read), words)]
    assert graph_implicants(F).terms == tuple(Term(t, fixed ^ t) for t in minterms)


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


@st.composite
def systems_with_constants(draw):
    """A system of ``systems()`` plus, at times, zero and constant-one factors, in any order."""
    sys = draw(systems())
    uni = sys.universe
    extra = draw(st.lists(st.sampled_from((Anf.zero(uni), Anf.one(uni))), max_size=2))
    return BoolSystem(tuple(draw(st.permutations(sys.factors + tuple(extra)))), uni)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems_with_constants(), st.integers(1, 12))
def test_implicants_match_oracle_at_any_bound(sys, bound):
    cover = implicants(sys, bound)
    points = {m.pos for t in cover.terms for m in t.expand(sys.universe)}
    assert points == {a.trues for a in brute_solutions(sys)}
    assert cover.satisfying_total() == len(points)
    assert _orthogonality_violation(cover.terms) is None
    if _leaf_scan(sys.factors)[0].bit_count() <= bound:  # one leaf scan decides
        assert cover == implicants(sys, 12)


@st.composite
def leaf_scans(draw):
    """Scanned variables, a set of monomials over them, and the run's first variable.

    The k <= 12 variables run from 0, run from an offset, or leave gaps
    (the first variable is then None).  The set is a few of the 2**k
    submasks, or any set of them.
    """
    k = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("from 0", "from an offset", "gapped")))
    lo = 0 if kind == "from 0" else draw(st.integers(1, 20))
    steps = [1] * max(k - 1, 0)
    if kind == "gapped" and k >= 2:
        steps = draw(st.lists(st.integers(1, 4), min_size=k - 1, max_size=k - 1))
        steps[draw(st.integers(0, k - 2))] = draw(st.integers(2, 4))  # one gap at least
    vs = list(itertools.accumulate(steps, initial=lo))[:k]
    scanned = mask_of(vs)
    index_sets = st.one_of(
        st.sets(st.integers(0, (1 << k) - 1), max_size=20),
        st.integers(0, (1 << (1 << k)) - 1).map(
            lambda bits: {i for i in range(1 << k) if bits >> i & 1}
        ),
    )
    indices = draw(index_sets)
    monomials = frozenset(mask_of(v for j, v in enumerate(vs) if i >> j & 1) for i in indices)
    run_start = None if kind == "gapped" and k >= 2 else lo
    return scanned, run_start, monomials


def _and_chain_table(monomials: frozenset, scanned: int) -> int:
    """Truth table of the XOR of ``monomials``: one AND of variable patterns each.

    The first scanned variable is the most significant bit of the point
    index, as in the leaf.
    """
    vs = vars_of(scanned)
    k = len(vs)
    size = 1 << k
    pattern = {  # the points where v is 1
        v: sum(1 << i for i in range(size) if i >> (k - 1 - j) & 1) for j, v in enumerate(vs)
    }
    acc = 0
    for m in monomials:
        t = (1 << size) - 1
        for v in vars_of(m):
            t &= pattern[v]
        acc ^= t
    return acc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(leaf_scans())
def test_factor_tables_match_the_and_chain(scan):
    scanned, run_start, monomials = scan
    points = submasks(scanned)
    vs = vars_of(scanned)
    index_bit = {1 << v: 1 << (len(vs) - 1 - j) for j, v in enumerate(vs)}
    expected = _and_chain_table(monomials, scanned)
    assert _factor_table(monomials, points, None, index_bit) == expected  # any scan
    if run_start is not None:  # a run of variables places each monomial directly
        assert _factor_table(monomials, points, run_start, None) == expected


@st.composite
def system_problems(draw):
    """A system of ``systems_with_constants()`` with variables named x1, x2, ..."""
    sys = draw(systems_with_constants())
    n = sys.universe.bit_length()
    names = tuple(f"x{i + 1}" for i in range(n))
    return SystemProblem(sys, VarTable(names, n))


@st.composite
def poly_problems(draw, max_degree=None):
    """A polynomial over GF(2^n), n <= 5, under any irreducible modulus.

    ``max_degree`` bounds the exponents; by default it is 2^n - 1, the
    largest exponent the parser keeps as written.
    """
    n = draw(st.integers(1, 5))
    moduli = [m for m in range(1 << n, 1 << (n + 1)) if _is_irreducible(m, n)]
    spec = FieldSpec(n, draw(st.sampled_from(moduli)))
    top = spec.order - 1 if max_degree is None else max_degree
    values = draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=top + 1))
    return PolyProblem(UniPoly.of(spec, values), spec)


@st.composite
def field_polys(draw):
    """A polynomial over GF(2^n), n <= 8, under a random irreducible modulus.

    Its shape is one of: a few terms of degree up to 3 * 2^n, so exponents
    pass 2^n - 1; short and dense, every coefficient nonzero; a constant;
    or zero.
    """
    n = draw(st.integers(1, 8))
    moduli = [m for m in range(1 << n, 1 << (n + 1)) if _is_irreducible(m, n)]
    spec = FieldSpec(n, draw(st.sampled_from(moduli)))
    nonzero = st.integers(1, spec.order - 1)
    shape = draw(st.sampled_from(("sparse", "dense", "constant", "zero")))
    if shape == "sparse":
        values = [0] * (3 * spec.order + 1)
        for e in draw(st.lists(st.integers(0, 3 * spec.order), min_size=1, max_size=4)):
            values[e] = draw(nonzero)
    elif shape == "dense":
        values = draw(st.lists(nonzero, min_size=1, max_size=min(spec.order, 16)))
    else:
        values = [draw(nonzero) if shape == "constant" else 0]
    return UniPoly.of(spec, values)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(field_polys())
@example(UniPoly.monomial(FieldSpec(4, 0b11111), 7))  # x has order 5 here; X^7 permutes
@example(UniPoly.monomial(FieldSpec(4, 0b11111), 3))  # gcd(3, 15) = 3
@example(UniPoly.of(FieldSpec(4, 0b11111), [5, 0, 1, 0, 3]))
def test_permutation_verdict_is_the_lifted_maps_verdict(p):
    # the value table's distinct count against the square map of the lift, and
    # both against Horner's rule at every point
    spec = p.spec
    image = {p.evaluate(spec.element(v)).value for v in range(spec.order)}
    lifted = is_invertible_square(coordinate_functions(p)).one_to_one
    assert is_permutation_polynomial(p) is lifted is (len(image) == spec.order)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(maps(narrow=True), system_problems(), poly_problems()))
def test_format_then_parse_round_trips(problem):
    assert parse_text(format_problem(problem)) == problem


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.one_of(maps(narrow=True), system_problems(), poly_problems(max_degree=40)),
    st.integers(1, 12),
)
def test_exit_code_is_1_only_on_a_decided_negative(problem, bound):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.txt"
        path.write_text(format_problem(problem))
        for command in _HANDLERS:  # every subcommand
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, str(path), "--bound", str(bound), "--format", "json"])
            assert code in (0, 1, 2)
            if code == 2:
                assert out.getvalue() == ""
                continue
            doc = json.loads(out.getvalue())
            negative = any(
                doc.get(k) is False for k in ("one_to_one", "permutation", "injective")
            )
            assert code == (1 if negative else 0), (command, doc)


def _map_problem(F: BoolMap) -> MapProblem:
    names = tuple(f"x{i + 1}" for i in range(F.n_in)) + tuple(f"y{j + 1}" for j in range(F.m_out))
    return MapProblem(F, VarTable(names, F.n_in))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.one_of(word_maps().map(_map_problem), poly_problems(max_degree=40)))
def test_map_commands_print_the_same_bytes_at_every_bound(problem):
    if isinstance(problem, PolyProblem):
        commands = ["permpoly"]
    else:
        n, m = problem.map.n_in, problem.map.m_out
        commands = ["one2one", "coi"] + ["invert", "goe"] * (m == n)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.txt"
        path.write_text(format_problem(problem))
        for command in commands:
            expected = _run_bytes(command, str(path))
            assert expected[0] in (0, 1), command
            for bound in range(1, MAX_BOUND + 1):
                assert _run_bytes(command, str(path), "--bound", str(bound)) == expected, bound


_FIXTURES = tuple(
    p.read_bytes() for p in sorted((Path(__file__).parent / "fixtures").glob("*.txt"))
)
_EDIT_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789xyX+*^=:# \n"))


@st.composite
def malformed_files(draw):
    """Random bytes, or a valid problem file truncated or with 1-3 bytes replaced."""
    kind = draw(st.sampled_from(("random", "truncated", "edited")))
    if kind == "random":
        return draw(st.binary(max_size=120))
    valid = st.one_of(maps(narrow=True), system_problems(), poly_problems(max_degree=40))
    text = draw(st.one_of(st.sampled_from(_FIXTURES), valid.map(lambda p: format_problem(p).encode())))
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text)))]
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(_EDIT_BYTES)
    return bytes(data)


@settings(derandomize=True, deadline=None, max_examples=250)
@given(malformed_files())
def test_malformed_input_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.txt"
        path.write_bytes(data)
        for command in _HANDLERS:  # every subcommand
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 1, 2), (command, data)
            if code == 2:
                errors = [line for line in err.getvalue().split("\n") if line.startswith("error:")]
                assert len(errors) == 1, (command, data, err.getvalue())
                assert not errors[0].startswith("error: internal:"), (command, data, errors)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(malformed_files())
def test_parse_error_positions_lie_inside_the_file(data):
    text = data.decode("utf-8", errors="replace")
    try:
        parse_text(text)
    except ParseError as err:
        lines = text.splitlines() or [""]  # an empty file is reported at line 1
        assert 1 <= err.line <= len(lines), (text, str(err))
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1, (text, str(err))


# tokens, each followed by mixed whitespace or nothing: declared names (x and y1
# run together as the declared xy1), an output name, unknown names, names that run
# into a `1`, operators and stray characters
_ANF_TOKENS = st.one_of(
    st.sampled_from(["x", "y1", "xy1", "_z", "w", "v", "1", "11", "x1y"]),
    st.sampled_from(["+", "*"]),
    st.sampled_from(["0", "2", "-", "é", "#"]),
)
_ANF_GAPS = st.sampled_from(["", "", " ", "\t", "\x0b", "\xa0", " \t"])


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(st.lists(st.tuples(_ANF_TOKENS, _ANF_GAPS).map("".join), max_size=10).map("".join))
@example("x y1")  # two operands that run together as a declared name once spaces go
@example("x\x0b*\xa0y1 +\t1 ")
def test_anf_split_path_accepts_exactly_what_the_scanner_accepts(body):
    bits, outputs = {"x": 1, "y1": 2, "xy1": 4, "_z": 8}, {"w": None}
    try:
        products = _products(body, 4, 1, _ANF_TOKEN, "expression")
        splits = all(kind == "one" or tok in bits for ops, _ in products for kind, tok, _ in ops)
    except ParseError:
        splits = False

    def outcome(parse):
        try:
            return parse(body, 4, 1, bits, outputs)
        except ParseError as exc:
            return str(exc)

    with mock.patch.object(parsing, "_scan_anf", wraps=_scan_anf) as scan:
        got = outcome(parsing._parse_anf)
    if body.strip() == "0":
        assert got == []
    else:
        # the split path never accepts what the scanner rejects, nor moves an error
        assert scan.called != splits, body
        assert got == outcome(_scan_anf), body


# ASCII and other identifier characters (é, ª, Arabic-Indic one, middle dot), and a dash
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(st.sampled_from("aZ_09\u00e9\u00aa\u0661\u00b7-"), min_size=1, max_size=4))
def test_variable_names_are_ascii_identifiers(name):
    assume(name != "0")  # `0 = ...` is a system equation
    valid = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) is not None
    for text, message in (
        (f"vars: {name}\n0 = {name}\n", "invalid variable name"),
        (f"vars: q\n{name} = q\n", "invalid equation target"),
    ):
        try:
            parse_text(text)
            accepted = True
        except ParseError as exc:
            assert message in str(exc), (text, str(exc))
            accepted = False
        assert accepted == valid, text


_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€𝄞'), st.characters()), max_size=8
)
#: strings that ``json.dumps`` only quotes, which the writer joins a list of at once
_PLAIN_TEXT = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), max_size=8
)


def _json_containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        # plain strings mixed with escaped strings and non-strings
        st.lists(st.one_of(_PLAIN_TEXT, inner), max_size=5),
        st.dictionaries(_JSON_TEXT, inner, max_size=5),
    )


_JSON_DOCS = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), st.booleans(), st.none(), st.lists(_PLAIN_TEXT, max_size=5)),
    _json_containers,
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, indent=2)
