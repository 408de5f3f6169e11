"""Problem-file grammar: maps, systems, and field polynomials.

One file declares exactly one problem.  `#` starts a comment anywhere
on a line.  Map files declare inputs with `vars:` and one `name = anf`
equation per output; system files use `0 = anf` equations over the
declared variables; polynomial files give `field:` and then `poly:`.
ANF expressions are sums (`+`, XOR) of products (`*`, AND) of declared
variables and the constant `1`, or the lone constant `0`.  Polynomial
coefficients are hex bit vectors in the basis packing, `X` is the
reserved indeterminate.  An exponent e > 0 is stored as
(e - 1) mod (2^n - 1) + 1, which gives the same function on the field,
and a polynomial holds only its nonzero terms, at most 2^n of them.
"""

from __future__ import annotations

import re
from typing import Union

from .algebra import Anf, Assignment, BoolSystem, Term, Value, vars_of
from .gf2n import FieldElem, FieldSpec, UniPoly
from .maps import BoolMap


class ParseError(ValueError):
    """Input rejected, with 1-based line and column of the offense."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class VarTable(Value):
    """Declared variable names; ids are positions, inputs first."""

    __slots__ = ("names", "n_in")
    names: tuple[str, ...]
    n_in: int

    def __init__(self, names: tuple[str, ...], n_in: int):
        self._set("names", names)
        self._set("n_in", n_in)

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.names[: self.n_in]

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.names[self.n_in :]

    def name(self, var: int) -> str:
        return self.names[var]


class MapProblem(Value):
    __slots__ = ("map", "table")
    map: BoolMap
    table: VarTable

    def __init__(self, map: BoolMap, table: VarTable):
        self._set("map", map)
        self._set("table", table)


class SystemProblem(Value):
    __slots__ = ("system", "table")
    system: BoolSystem
    table: VarTable

    def __init__(self, system: BoolSystem, table: VarTable):
        self._set("system", system)
        self._set("table", table)


class PolyProblem(Value):
    __slots__ = ("poly", "spec")
    poly: UniPoly
    spec: FieldSpec

    def __init__(self, poly: UniPoly, spec: FieldSpec):
        self._set("poly", poly)
        self._set("spec", spec)


Problem = Union[MapProblem, SystemProblem, PolyProblem]

# token patterns, compiled by `re` on first use: each token class is a named
# group; _products needs `op` and `bad`, the rest are operands
_ANF_TOKEN = r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<one>1)|(?P<op>[+*])|(?P<bad>\S)"
_POLY_TOKEN = r"(?P<x>X(?:\^[0-9]+)?)|(?P<coeff>[0-9a-fA-F]+)|(?P<op>[+*])|(?P<bad>\S)"


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _products(body: str, offset: int, lineno: int, token: str, what: str):
    """Operands of each product in a `+`-sum of `*`-products.

    The whole expression's syntax is checked first, so a syntax error
    is reported before any bad name or value on the line.  Returns one
    ``(operands, end)`` per product, where ``operands`` lists
    ``(kind, text, column)`` and ``end`` is the column of the `+` that
    closes the product, or of the last token for the final product.
    """
    products = []
    operands: list[tuple[str, str, int]] = []
    expect_operand = True
    col = offset + 1
    for m in re.finditer(token, body):
        kind, tok = m.lastgroup, m.group()
        col = offset + m.start() + 1
        if kind == "op":
            if expect_operand:
                raise ParseError(f"operand expected before '{tok}'", lineno, col)
            if tok == "+":
                products.append((operands, col))
                operands = []
            expect_operand = True
        elif kind == "bad":
            raise ParseError(f"unexpected character '{tok}'", lineno, col)
        elif expect_operand:
            operands.append((kind, tok, col))
            expect_operand = False
        else:
            raise ParseError(f"operator expected before '{tok}'", lineno, col)
    if expect_operand:
        raise ParseError(f"{what} ends without an operand", lineno, col)
    products.append((operands, col))
    return products


def _parse_anf(
    body: str, offset: int, lineno: int, bits: dict[str, int], outputs: dict[str, None]
) -> list[int]:
    """Monomials of a sum-of-products expression, repeats included.

    ``bits`` maps each input name to its bit; the lone ``0`` has none.
    The expression is split on its operators and each operand looked up
    in ``bits``, whose keys are all identifiers, so the split succeeds
    exactly on a well-formed expression over known names.  Any other
    goes through ``_scan_anf``, which places the error.
    """
    if body.strip() == "0":
        return []
    monomials = []
    try:
        for product in body.split("+"):
            mono = 0
            for name in product.split("*"):
                name = name.strip()
                if name != "1":
                    mono |= bits[name]
            monomials.append(mono)
    except KeyError:  # a malformed operand or an unknown name
        return _scan_anf(body, offset, lineno, bits, outputs)
    return monomials


def _scan_anf(
    body: str, offset: int, lineno: int, bits: dict[str, int], outputs: dict[str, None]
) -> list[int]:
    """``_parse_anf`` through the token scanner, with every error's column."""
    monomials = []
    for operands, _ in _products(body, offset, lineno, _ANF_TOKEN, "expression"):
        mono = 0
        for kind, name, col in operands:
            if kind == "one":
                continue
            bit = bits.get(name)
            if bit is None:
                if name in outputs:
                    raise ParseError(
                        f"output variable '{name}' cannot appear in an expression", lineno, col
                    )
                raise ParseError(f"undeclared variable '{name}'", lineno, col)
            mono |= bit
        monomials.append(mono)
    return monomials


def _parse_poly(body: str, offset: int, lineno: int, spec: FieldSpec) -> UniPoly:
    coeffs: dict[int, int] = {}
    for operands, end in _products(body, offset, lineno, _POLY_TOKEN, "polynomial"):
        c = e = None
        for kind, tok, col in operands:
            if kind == "coeff":
                if c is not None:
                    raise ParseError("repeated coefficient in one term", lineno, col)
                c = int(tok, 16)
            elif e is not None:  # a second X^e
                raise ParseError("repeated X factor in one term", lineno, col)
            else:
                try:
                    e = int(tok[2:]) if len(tok) > 1 else 1
                except ValueError:  # past the interpreter's int-string digit limit
                    raise ParseError(
                        f"exponent of {len(tok) - 2} digits is too long", lineno, col
                    ) from None
        c = 1 if c is None else c
        e = 0 if e is None else e
        if c >= spec.order:
            raise ParseError(f"coefficient {c:#x} outside the field of {spec.order}", lineno, end)
        if e:  # x^(2^n) = x at every field point, so X^e is this same function
            e = (e - 1) % (spec.order - 1) + 1
        coeffs[e] = coeffs.get(e, 0) ^ c  # repeated exponents add in the field
    return UniPoly(spec, tuple((e, FieldElem(spec, c)) for e, c in sorted(coeffs.items()) if c))


def _parse_field(body: str, offset: int, lineno: int) -> FieldSpec:
    n: int | None = None
    modulus: int | None = None
    for m in re.finditer(r"\S+", body):
        tok = m.group()
        col = offset + m.start() + 1
        key, eq, value = tok.partition("=")
        if not eq or key not in ("n", "modulus"):
            raise ParseError(f"expected n=... or modulus=..., got '{tok}'", lineno, col)
        if key == "n":
            if not (value.isascii() and value.isdigit()):
                raise ParseError(f"invalid degree '{value}'", lineno, col)
            try:
                n = int(value)
            except ValueError:  # past the interpreter's int-string digit limit
                raise ParseError(f"degree of {len(value)} digits is too long", lineno, col) from None
        else:
            if not value or value.strip("01"):
                raise ParseError(
                    f"modulus must be a binary string, got '{value}'", lineno, col
                )
            modulus = int(value, 2)
    if n is None:
        raise ParseError("field declaration needs n=<degree>", lineno, offset + 1)
    try:
        return FieldSpec(n, modulus) if modulus is not None else FieldSpec.default(n)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, offset + 1) from None


def parse_text(text: str) -> Problem:
    """Parse one problem file; raises ParseError with position on failure."""
    inputs: list[str] = []
    declared = False
    targets: dict[str, None] = {}  # output names in file order
    coords: list[Anf] = []
    factors: list[Anf] = []
    spec: FieldSpec | None = None
    poly: UniPoly | None = None
    lineno = 0
    bits: dict[str, int] = {}  # input name -> its bit in a monomial mask
    uni = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line:
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)

        if stripped.startswith("vars:"):
            if declared:
                raise ParseError("duplicate vars declaration", lineno, indent + 1)
            if spec is not None:
                raise ParseError(
                    "vars declaration cannot follow a field declaration",
                    lineno,
                    indent + 1,
                )
            declared = True
            for m in re.finditer(r"\S+", stripped[5:]):
                name = m.group()
                col = indent + 5 + m.start() + 1
                if not (name.isascii() and name.isidentifier()):
                    raise ParseError(f"invalid variable name '{name}'", lineno, col)
                if name in bits:
                    raise ParseError(f"duplicate variable '{name}'", lineno, col)
                bits[name] = 1 << len(inputs)
                inputs.append(name)
            uni = (1 << len(inputs)) - 1
            continue

        if stripped.startswith("field:"):
            if declared:
                raise ParseError(
                    "field declaration cannot follow a vars declaration",
                    lineno,
                    indent + 1,
                )
            if spec is not None:
                raise ParseError("duplicate field declaration", lineno, indent + 1)
            spec = _parse_field(stripped[6:], indent + 6, lineno)
            continue

        if stripped.startswith("poly:"):
            if spec is None:
                raise ParseError(
                    "field declaration must precede poly", lineno, indent + 1
                )
            if poly is not None:
                raise ParseError("duplicate poly declaration", lineno, indent + 1)
            poly = _parse_poly(stripped[5:], indent + 5, lineno, spec)
            continue

        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError("expected 'vars:', 'field:', 'poly:' or an equation", lineno, indent + 1)
        lhs_name = lhs.strip()
        if not declared:
            raise ParseError("equation before vars declaration", lineno, indent + 1)
        rhs_offset = len(line) - len(rhs)
        if targets if lhs_name == "0" else factors:
            raise ParseError("file mixes map and system equations", lineno, indent + 1)
        if lhs_name == "0":
            f = _parse_anf(rhs, rhs_offset, lineno, bits, targets)
            factors.append(Anf.from_monomials([*f, 0], uni))  # f = 0 becomes factor f + 1
        else:
            if not (lhs_name.isascii() and lhs_name.isidentifier()):
                raise ParseError(f"invalid equation target '{lhs_name}'", lineno, indent + 1)
            if lhs_name in bits:
                raise ParseError(
                    f"equation target '{lhs_name}' is a declared input", lineno, indent + 1
                )
            if lhs_name in targets:
                raise ParseError(f"duplicate equation target '{lhs_name}'", lineno, indent + 1)
            f = _parse_anf(rhs, rhs_offset, lineno, bits, targets)
            coords.append(Anf.from_monomials(f, uni))
            targets[lhs_name] = None

    if poly is not None:
        return PolyProblem(poly, spec)
    if spec is not None:
        raise ParseError("field declared but no poly line", lineno or 1, 1)
    if targets:
        table = VarTable(tuple(inputs) + tuple(targets), len(inputs))
        return MapProblem(BoolMap.of(coords, len(inputs)), table)
    if factors:
        table = VarTable(tuple(inputs), len(inputs))
        return SystemProblem(BoolSystem(tuple(factors), uni), table)
    raise ParseError("file declares no problem", lineno or 1, 1)


def parse_file(path: str) -> Problem:
    """Parse the problem file at ``path``, less a leading UTF-8 byte-order mark.

    The bytes are decoded in one call, without a text wrapper; the line
    split treats CR LF and a lone CR as line ends, as the wrapper's
    newline translation would.  The mark is cut after decoding, as
    ``utf-8-sig`` would cut it, which saves loading that codec's module.
    """
    with open(path, "rb") as fh:
        return parse_text(fh.read().decode("utf-8").removeprefix("\ufeff"))


def format_term(t: Term, table: VarTable) -> str:
    """Implicant notation: space-separated literals, postfix ' for complement."""
    if t.is_one:
        return "1"
    parts = []
    for v in vars_of(t.vars_mask):
        mark = "" if (t.pos >> v) & 1 else "'"
        parts.append(table.name(v) + mark)
    return " ".join(parts)


def format_anf(f: Anf, table: VarTable) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for m in f.sorted_monomials():
        if m == 0:
            parts.append("1")
        else:
            parts.append("*".join(table.name(v) for v in vars_of(m)))
    return " + ".join(parts)


def format_assignment(a: Assignment, table: VarTable) -> str:
    return " ".join(f"{table.name(v)}={b}" for v, b in a.items())


def format_poly(p: UniPoly) -> str:
    parts = []
    for e, c in reversed(p.terms):
        if e == 0:
            parts.append(f"{c.value:x}")
        else:
            x = "X" if e == 1 else f"X^{e}"
            parts.append(x if c.value == 1 else f"{c.value:x}*{x}")
    return " + ".join(parts) or "0"


def format_problem(p: Problem) -> str:
    """Render a problem back to file text; reparsing yields an equal problem."""
    if isinstance(p, PolyProblem):
        modulus = format(p.spec.modulus, "b")
        return f"field: n={p.spec.n} modulus={modulus}\npoly: {format_poly(p.poly)}\n"
    lines = ["vars: " + " ".join(p.table.inputs)]
    if isinstance(p, MapProblem):
        for name, f in zip(p.table.outputs, p.map.coords):
            lines.append(f"{name} = {format_anf(f, p.table)}")
    else:
        for h in p.system.factors:
            f = h ^ Anf.one(h.universe)
            lines.append(f"0 = {format_anf(f, p.table)}")
    return "\n".join(lines) + "\n"
