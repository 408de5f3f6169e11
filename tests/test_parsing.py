"""Problem-file grammar: happy paths, error positions, round-trips."""

import time

import pytest

from boolinv.algebra import Anf, BoolSystem, Term, mask_of
from boolinv.gf2n import FieldSpec, UniPoly
from boolinv.maps import BoolMap
from boolinv.parsing import (
    MapProblem,
    ParseError,
    PolyProblem,
    SystemProblem,
    format_anf,
    format_poly,
    format_problem,
    format_term,
    parse_file,
    parse_text,
)

SHIFT_MAP_TEXT = """\
# three-bit shift rule
vars: x1 x2 x3
y1 = x2
y2 = x3
y3 = x1 + x2*x3
"""


def test_parse_shift_map():
    p = parse_text(SHIFT_MAP_TEXT)
    assert isinstance(p, MapProblem)
    assert p.table.inputs == ("x1", "x2", "x3")
    assert p.table.outputs == ("y1", "y2", "y3")
    assert p.map.n_in == 3 and p.map.m_out == 3
    assert p.map.coords[0].monomials == frozenset((1 << 1,))
    assert p.map.coords[2].monomials == frozenset((1 << 0, 0b110))


def test_parse_system_forcing_value():
    p = parse_text("vars: x1\n0 = x1 + 1\n")
    assert isinstance(p, SystemProblem)
    # equation x1 + 1 = 0 enters as factor x1
    assert p.system.factors[0].monomials == frozenset((1,))


def test_parse_system_universe_covers_unused_vars():
    p = parse_text("vars: a b c\n0 = a\n")
    assert p.system.universe == mask_of(range(3))


def test_parse_poly_with_default_modulus():
    p = parse_text("field: n=3\npoly: X^3\n")
    assert isinstance(p, PolyProblem)
    assert p.spec == FieldSpec.default(3)
    assert p.poly.degree == 3


def test_parse_poly_explicit_modulus_and_hex_coeffs():
    p = parse_text("field: n=3 modulus=1011\npoly: 5*X^2 + X + 3\n")
    assert p.spec.modulus == 0b1011
    assert [c.value for c in p.poly.coefficients] == [3, 1, 5]


def test_parse_poly_repeated_exponent_accumulates():
    p = parse_text("field: n=3\npoly: X^2 + 3*X^2 + 1\n")
    # 1 + 3 = 2 in the field
    assert [c.value for c in p.poly.coefficients] == [1, 0, 2]


def test_parse_poly_folds_large_exponents():
    started = time.perf_counter()
    p = parse_text("field: n=4\npoly: X^1000000 + 3*X^15 + X^0\n")
    assert time.perf_counter() - started < 1.0
    # 1000000 = 10 (mod 15), and X^15 stays X^15: it is 1 off the origin
    assert p.poly.degree == 15
    assert [(e, c.value) for e, c in p.poly.terms] == [(0, 1), (10, 1), (15, 3)]
    assert format_poly(p.poly) == "3*X^15 + X^10 + 1"
    # X^16 = X at every point of GF(16)
    assert parse_text("field: n=4\npoly: X^16 + X\n").poly.degree == -1


def test_cancelling_top_terms_trim_in_one_step():
    # each X^65535 is one term, and the two cancel to no term at all
    started = time.perf_counter()
    p = parse_text("field: n=16\npoly: X^65535 + X^65535\n")
    assert time.perf_counter() - started < 5.0
    assert p.poly.degree == -1
    assert p.poly.coefficients == () and p.poly.terms == ()


def test_numbers_past_the_int_string_limit_are_parse_errors():
    digits = "1" * 5000
    with pytest.raises(ParseError, match="exponent of 5000 digits") as err:
        parse_text(f"field: n=4\npoly: X + X^{digits}\n")
    assert (err.value.line, err.value.column) == (2, 11)
    with pytest.raises(ParseError, match="degree of 5000 digits") as err:
        parse_text(f"field: n={digits}\npoly: X\n")
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(ParseError, match="invalid degree"):
        parse_text("field: n=\u00b2\npoly: X\n")  # a digit that int() refuses


def test_comments_and_blank_lines_ignored():
    p = parse_text("\n# header\nvars: u v  # trailing\n0 = u*v + 1\n\n")
    assert isinstance(p, SystemProblem)


def test_file_with_a_byte_order_mark_parses_as_without(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(SHIFT_MAP_TEXT, encoding="utf-8")
    marked.write_text("\ufeff" + SHIFT_MAP_TEXT, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert parse_file(marked) == parse_file(plain) == parse_text(SHIFT_MAP_TEXT)
    # only the file reader cuts the mark, and only one
    with pytest.raises(ParseError, match="line 1, column 1: expected 'vars:'"):
        parse_text("\ufeff" + SHIFT_MAP_TEXT.split("\n", 1)[1])
    marked.write_text("\ufeff\ufeff" + SHIFT_MAP_TEXT, encoding="utf-8")
    with pytest.raises(ParseError, match="line 1, column 1: expected 'vars:'"):
        parse_file(marked)


def test_undeclared_variable_position():
    with pytest.raises(ParseError) as err:
        parse_text("vars: x1 x2\ny1 = x1 + z9\n")
    assert err.value.line == 2
    assert err.value.column == 11
    assert "z9" in str(err.value)


def test_output_variable_in_expression_rejected():
    with pytest.raises(ParseError, match="output variable"):
        parse_text("vars: x1\ny1 = x1\ny2 = y1\n")


def test_duplicate_target_rejected():
    with pytest.raises(ParseError, match="duplicate equation target"):
        parse_text("vars: x1\ny1 = x1\ny1 = x1 + 1\n")


def test_mixed_problem_kinds_rejected():
    with pytest.raises(ParseError, match="mixes map and system"):
        parse_text("vars: x1\ny1 = x1\n0 = x1\n")
    with pytest.raises(ParseError, match="cannot follow"):
        parse_text("vars: x1\nfield: n=2\n")


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        parse_text("vars: x1 x2\n0 = x1 + * x2\n")
    assert (err.value.line, err.value.column) == (2, 10)
    with pytest.raises(ParseError, match="ends without an operand"):
        parse_text("vars: x1\n0 = x1 +\n")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_text("vars: x1\n0 = x1 & x1\n")


def test_reducible_modulus_reported_with_position():
    with pytest.raises(ParseError, match="not irreducible"):
        parse_text("field: n=3 modulus=1001\npoly: X\n")


def test_coefficient_outside_field_rejected():
    with pytest.raises(ParseError, match="outside the field"):
        parse_text("field: n=2\npoly: a*X\n")


def test_empty_file_rejected():
    with pytest.raises(ParseError, match="declares no problem"):
        parse_text("# nothing here\n")
    with pytest.raises(ParseError, match="no poly line"):
        parse_text("field: n=3\n")


def test_format_term_notation():
    p = parse_text(SHIFT_MAP_TEXT)
    t = Term.of((0, 0), (1, 1), (4, 0))
    assert format_term(t, p.table) == "x1' x2 y2'"
    assert format_term(Term(), p.table) == "1"


def test_format_anf_degree_order_constant_last():
    p = parse_text(SHIFT_MAP_TEXT)
    uni = mask_of(range(3))
    f = Anf.from_monomials([0, 0b110, 1 << 0], uni)
    assert format_anf(f, p.table) == "x1 + x2*x3 + 1"
    assert format_anf(Anf.zero(uni), p.table) == "0"


def test_format_poly_forms():
    spec = FieldSpec.default(3)
    assert format_poly(UniPoly.of(spec, [3, 1, 5])) == "5*X^2 + X + 3"
    assert format_poly(UniPoly.of(spec, [0])) == "0"
    assert format_poly(UniPoly.of(spec, [0, 0, 1])) == "X^2"


@pytest.mark.parametrize(
    "text",
    [
        SHIFT_MAP_TEXT,
        "vars: x1 x2 x3 x4\n0 = x1*x2 + x3\n0 = x4 + 1\n",
        "field: n=4 modulus=10011\npoly: 9*X^3 + X + 7\n",
        "field: n=3\npoly: 0\n",
        "vars: x1 x2\ny1 = x1\ny2 = 0\n",
        "vars: x1 x2\n0 = 0\n0 = 1\n0 = x2\n",
    ],
)
def test_round_trip(text):
    p = parse_text(text)
    assert parse_text(format_problem(p)) == p


def test_zero_coordinate_and_zero_factor_round_trip():
    uni = mask_of(range(2))
    p = parse_text("vars: x1 x2\ny1 = x1\ny2 = x2\n")
    zero_coord = MapProblem(
        BoolMap.of([Anf.variable(0, uni), Anf.zero(uni)], 2), p.table
    )
    assert "y2 = 0" in format_problem(zero_coord)
    assert parse_text(format_problem(zero_coord)) == zero_coord

    s = parse_text("vars: x1 x2\n0 = x1\n0 = x2\n")
    zero_factor = SystemProblem(BoolSystem((Anf.zero(uni), Anf.one(uni)), uni), s.table)
    assert parse_text(format_problem(zero_factor)) == zero_factor


def test_zero_is_only_accepted_alone():
    with pytest.raises(ParseError, match="unexpected character '0'"):
        parse_text("vars: x1\ny1 = x1 + 0\n")


_LONG = "1" * 5000  # past the interpreter's int-string digit limit

#: One input per message the parser raises: (text, line, column, message).
_PARSE_ERRORS = [
    ("vars: x1\n0 = + x1\n", 2, 5, "operand expected before '+'"),
    ("vars: x1\n0 = x1 * * x1\n", 2, 10, "operand expected before '*'"),
    ("vars: x1\n0 = x1 1\n", 2, 8, "operator expected before '1'"),
    ("vars: x1 x2\n0 = x1 x2\n", 2, 8, "operator expected before 'x2'"),
    ("vars: x1\n0 = x1 & x1\n", 2, 8, "unexpected character '&'"),
    ("vars: x1\ny1 = x1 + 0\n", 2, 11, "unexpected character '0'"),
    ("vars: x1\n0 = x1 +\n", 2, 8, "expression ends without an operand"),
    ("vars: x1\ny1 =\n", 2, 5, "expression ends without an operand"),
    ("vars: x1\n0 = x1 + z9\n", 2, 10, "undeclared variable 'z9'"),
    ("vars: x1\ny1 = x1\ny2 = y1\n", 3, 6, "output variable 'y1' cannot appear in an expression"),
    ("field: n=2\npoly: * X\n", 2, 7, "operand expected before '*'"),
    ("field: n=2\npoly: X + + 1\n", 2, 11, "operand expected before '+'"),
    ("field: n=2\npoly: 1 X\n", 2, 9, "operator expected before 'X'"),
    ("field: n=2\npoly: 1 X^3\n", 2, 9, "operator expected before 'X^3'"),
    ("field: n=2\npoly: X 1\n", 2, 9, "operator expected before '1'"),
    ("field: n=2\npoly: X ^ 2\n", 2, 9, "unexpected character '^'"),
    ("field: n=2\npoly: X +\n", 2, 9, "polynomial ends without an operand"),
    ("field: n=2\npoly:\n", 2, 6, "polynomial ends without an operand"),
    ("field: n=2\npoly: X*X^2\n", 2, 9, "repeated X factor in one term"),
    ("field: n=2\npoly: 1*2*X\n", 2, 9, "repeated coefficient in one term"),
    (f"field: n=2\npoly: X^{_LONG}\n", 2, 7, "exponent of 5000 digits is too long"),
    ("field: n=2\npoly: 4*X + 1\n", 2, 11, "coefficient 0x4 outside the field of 4"),
    ("field: n=2\npoly: X + 4*X^2\n", 2, 13, "coefficient 0x4 outside the field of 4"),
    ("field: n=2 k=3\npoly: X\n", 1, 12, "expected n=... or modulus=..., got 'k=3'"),
    ("field: n=x\npoly: X\n", 1, 8, "invalid degree 'x'"),
    (f"field: n={_LONG}\npoly: X\n", 1, 8, "degree of 5000 digits is too long"),
    ("field: n=\u0663\npoly: X\n", 1, 8, "invalid degree '\u0663'"),  # int() takes it
    ("field: n=3 modulus=12\npoly: X\n", 1, 12, "modulus must be a binary string, got '12'"),
    ("field: n=3 modulus=\npoly: X\n", 1, 12, "modulus must be a binary string, got ''"),
    ("field: modulus=111\npoly: X\n", 1, 7, "field declaration needs n=<degree>"),
    ("field: n=17\npoly: X\n", 1, 7, "extension degree must be in 1..16"),
    ("field: n=3 modulus=1001\npoly: X\n", 1, 7, "modulus 0b1001 is not irreducible of degree 3"),
    ("vars: x\nvars: y\n", 2, 1, "duplicate vars declaration"),
    ("field: n=2\nvars: x\n", 2, 1, "vars declaration cannot follow a field declaration"),
    ("vars: x 1y\n", 1, 9, "invalid variable name '1y'"),
    ("vars: x x\n", 1, 9, "duplicate variable 'x'"),
    ("vars: x\nfield: n=2\n", 2, 1, "field declaration cannot follow a vars declaration"),
    ("field: n=2\nfield: n=2\n", 2, 1, "duplicate field declaration"),
    ("poly: X\n", 1, 1, "field declaration must precede poly"),
    ("field: n=2\npoly: X\npoly: X\n", 3, 1, "duplicate poly declaration"),
    ("vars: x\nhello\n", 2, 1, "expected 'vars:', 'field:', 'poly:' or an equation"),
    ("y = 1\n", 1, 1, "equation before vars declaration"),
    ("vars: x\ny = x\n0 = x\n", 3, 1, "file mixes map and system equations"),
    ("vars: x\n0 = x\ny = x\n", 3, 1, "file mixes map and system equations"),
    ("vars: x\n1y = x\n", 2, 1, "invalid equation target '1y'"),
    ("vars: x\nx = x\n", 2, 1, "equation target 'x' is a declared input"),
    ("vars: x\ny = x\ny = 1\n", 3, 1, "duplicate equation target 'y'"),
    ("field: n=2\n", 1, 1, "field declared but no poly line"),
    ("# nothing\n", 1, 1, "file declares no problem"),
    # two errors on one line: the syntax error comes before a bad name or value
    ("vars: x\n0 = z +\n", 2, 7, "expression ends without an operand"),
    ("field: n=2\npoly: 7*X + X X\n", 2, 15, "operator expected before 'X'"),
]


@pytest.mark.parametrize(
    "text, line, column, message", _PARSE_ERRORS, ids=[row[3] for row in _PARSE_ERRORS]
)
def test_every_parse_error_message_and_position(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_text(text)
    assert (err.value.line, err.value.column, str(err.value)) == (
        line,
        column,
        f"line {line}, column {column}: {message}",
    )
