"""Problem-file grammar: maps, systems, and field polynomials.

One file declares exactly one problem.  `#` starts a comment anywhere
on a line.  Map files declare inputs with `vars:` and one `name = anf`
equation per output; system files use `0 = anf` equations over the
declared variables; polynomial files give `field:` and then `poly:`.
ANF expressions are sums (`+`, XOR) of products (`*`, AND) of declared
variables and the constant `1`, or the lone constant `0`.  Polynomial
coefficients are hex bit vectors in the basis packing, `X` is the
reserved indeterminate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .algebra import Anf, Assignment, BoolSystem, Term, vars_of
from .gf2n import FieldSpec, UniPoly
from .maps import BoolMap


class ParseError(ValueError):
    """Input rejected, with 1-based line and column of the offense."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class VarTable:
    """Declared variable names; ids are positions, inputs first."""

    names: tuple[str, ...]
    n_in: int

    def __post_init__(self):
        object.__setattr__(
            self, "_ids", {name: i for i, name in enumerate(self.names)}
        )

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.names[: self.n_in]

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.names[self.n_in :]

    def id(self, name: str) -> int | None:
        return self._ids.get(name)

    def name(self, var: int) -> str:
        return self.names[var]


@dataclass(frozen=True)
class MapProblem:
    map: BoolMap
    table: VarTable


@dataclass(frozen=True)
class SystemProblem:
    system: BoolSystem
    table: VarTable


@dataclass(frozen=True)
class PolyProblem:
    poly: UniPoly
    spec: FieldSpec


Problem = Union[MapProblem, SystemProblem, PolyProblem]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ANF_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[+*]|1|\S")
_POLY_TOKEN = re.compile(r"X(?:\^[0-9]+)?|[0-9a-fA-F]+|[+*]|\S")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_anf(
    body: str, offset: int, lineno: int, resolve, universe: int
) -> Anf:
    """Sum-of-products expression; ``resolve`` maps a name to a var id."""
    if body.strip() == "0":
        return Anf.zero(universe)
    monomials: list[int] = []
    current: int | None = None
    expect_atom = True
    last_col = offset + 1
    for m in _ANF_TOKEN.finditer(body):
        tok = m.group()
        col = offset + m.start() + 1
        last_col = col
        if tok == "+" or tok == "*":
            if expect_atom:
                raise ParseError(f"operand expected before '{tok}'", lineno, col)
            if tok == "+":
                monomials.append(current)
                current = None
            expect_atom = True
        elif tok == "1":
            if not expect_atom:
                raise ParseError("operator expected before '1'", lineno, col)
            current = current if current is not None else 0
            expect_atom = False
        elif _IDENT.fullmatch(tok):
            if not expect_atom:
                raise ParseError(f"operator expected before '{tok}'", lineno, col)
            var = resolve(tok, lineno, col)
            current = (current or 0) | (1 << var)
            expect_atom = False
        else:
            raise ParseError(f"unexpected character '{tok}'", lineno, col)
    if expect_atom:
        raise ParseError("expression ends without an operand", lineno, last_col)
    monomials.append(current)
    return Anf.from_monomials(monomials, universe)


def _parse_poly(body: str, offset: int, lineno: int, spec: FieldSpec) -> UniPoly:
    coeffs: dict[int, int] = {}
    term_coeff: int | None = None
    term_exp: int | None = None
    expect_atom = True

    def close_term(col: int) -> None:
        if term_coeff is None and term_exp is None:
            raise ParseError("empty polynomial term", lineno, col)
        c = 1 if term_coeff is None else term_coeff
        e = 0 if term_exp is None else term_exp
        if c >= spec.order:
            raise ParseError(
                f"coefficient {c:#x} outside the field of {spec.order}", lineno, col
            )
        coeffs[e] = coeffs.get(e, 0) ^ c  # repeated exponents add in the field

    last_col = offset + 1
    for m in _POLY_TOKEN.finditer(body):
        tok = m.group()
        col = offset + m.start() + 1
        last_col = col
        if tok == "+" or tok == "*":
            if expect_atom:
                raise ParseError(f"operand expected before '{tok}'", lineno, col)
            if tok == "+":
                close_term(col)
                term_coeff = term_exp = None
            expect_atom = True
        elif tok.startswith("X"):
            if not expect_atom:
                raise ParseError("operator expected before 'X'", lineno, col)
            if term_exp is not None:
                raise ParseError("repeated X factor in one term", lineno, col)
            term_exp = int(tok[2:]) if len(tok) > 1 else 1
            expect_atom = False
        elif re.fullmatch(r"[0-9a-fA-F]+", tok):
            if not expect_atom:
                raise ParseError(f"operator expected before '{tok}'", lineno, col)
            if term_coeff is not None:
                raise ParseError("repeated coefficient in one term", lineno, col)
            term_coeff = int(tok, 16)
            expect_atom = False
        else:
            raise ParseError(f"unexpected character '{tok}'", lineno, col)
    if expect_atom:
        raise ParseError("polynomial ends without an operand", lineno, last_col)
    close_term(last_col)
    degree = max(coeffs)
    return UniPoly.of(spec, [coeffs.get(e, 0) for e in range(degree + 1)])


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
            if not value.isdigit():
                raise ParseError(f"invalid degree '{value}'", lineno, col)
            n = int(value)
        else:
            if not re.fullmatch(r"[01]+", value):
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
    ids: dict[str, int] = {}  # input name -> variable id
    uni = 0

    def resolve_input(name: str, ln: int, col: int) -> int:
        var = ids.get(name)
        if var is not None:
            return var
        if name in targets:
            raise ParseError(
                f"output variable '{name}' cannot appear in an expression", ln, col
            )
        raise ParseError(f"undeclared variable '{name}'", ln, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
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
                if not _IDENT.fullmatch(name):
                    raise ParseError(f"invalid variable name '{name}'", lineno, col)
                if name in ids:
                    raise ParseError(f"duplicate variable '{name}'", lineno, col)
                ids[name] = len(inputs)
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
        if lhs_name == "0":
            if targets:
                raise ParseError(
                    "file mixes map and system equations", lineno, indent + 1
                )
            f = _parse_anf(rhs, rhs_offset, lineno, resolve_input, uni)
            factors.append(f ^ Anf.one(uni))  # equation f = 0 becomes factor f + 1
        else:
            if factors:
                raise ParseError(
                    "file mixes map and system equations", lineno, indent + 1
                )
            if not _IDENT.fullmatch(lhs_name):
                raise ParseError(f"invalid equation target '{lhs_name}'", lineno, indent + 1)
            if lhs_name in ids:
                raise ParseError(
                    f"equation target '{lhs_name}' is a declared input", lineno, indent + 1
                )
            if lhs_name in targets:
                raise ParseError(f"duplicate equation target '{lhs_name}'", lineno, indent + 1)
            coords.append(_parse_anf(rhs, rhs_offset, lineno, resolve_input, uni))
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
        system = BoolSystem(tuple(f.with_universe(uni) for f in factors), uni)
        return SystemProblem(system, table)
    raise ParseError("file declares no problem", lineno or 1, 1)


def parse_file(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


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
    if p.degree < 0:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coefficients[e].value
        if c == 0:
            continue
        if e == 0:
            parts.append(f"{c:x}")
        else:
            x = "X" if e == 1 else f"X^{e}"
            parts.append(x if c == 1 else f"{c:x}*{x}")
    return " + ".join(parts)


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
