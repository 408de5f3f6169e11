"""Command-line entry point.

Result documents go to stdout; timing and configuration echo go to
stderr so that machine output is byte-identical from run to run.  Every
JSON document opens with ``schema``, ``command`` and ``problem``.  Exit
status: 1 when the document holds ``False`` under ``one_to_one``,
``permutation`` or ``injective`` (decided negative), 2 on an error,
including an internal failure of the engine, and 0 otherwise.

Each handler returns the document's body and its text lines, which may
be lazy: they are only read for ``--format text``.  JSON is written by
``_json``, byte for byte the output of ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import sys
import time
from itertools import chain, repeat
from operator import and_, rshift
from types import SimpleNamespace

from .algebra import Assignment
from .engine import DEFAULT_BOUND, MAX_BOUND, EngineConfig, implicants
from .maps import (
    DEFAULT_MAX_POINTS,
    BoolMap,
    NonSquareMapError,
    Uniqueness,
    coi,
    goe,
    graph_implicants,
    is_invertible_square,
    is_one_to_one_general,
    unique_solution,
)
from .collision import is_one_to_one_diagonal
from .gf2n import MAX_ORACLE_TERM_POINTS, check_term_points, is_permutation_polynomial
from .parsing import (
    MapProblem,
    PolyProblem,
    Problem,
    SystemProblem,
    VarTable,
    format_assignment,
    format_poly,
    format_term,
    parse_file,
)

SCHEMA_VERSION = 1

#: The ``problem`` field of each kind of input.
_KIND = {MapProblem: "map", SystemProblem: "system", PolyProblem: "poly"}

#: A ``False`` under any of these keys is a decided negative: exit 1.
_VERDICT_KEYS = ("one_to_one", "permutation", "injective")

_FORMATS = ("text", "json")

#: The options of the canonical argv, each with the attribute it sets.
_OPTIONS = {"--bound": "bound", "--format": "format", "--max-enum": "max_enum"}


def _build_parser():
    """The argparse tree, built only for an argv that ``_read_argv`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="boolinv",
        description="Invertibility and image analysis of Boolean maps "
        "via orthogonal implicant covers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (map, system, or polynomial)")
    common.add_argument(
        "--bound", type=int, default=DEFAULT_BOUND, metavar="M",
        help="max number of variables one leaf scan of implicants, unique or diag "
        f"enumerates (default {DEFAULT_BOUND}, at most {MAX_BOUND})",
    )
    common.add_argument(
        "--format", choices=_FORMATS, default="text",
        help="result document format (default text)",
    )
    common.add_argument(
        "--max-enum", type=int, default=DEFAULT_MAX_POINTS, metavar="N",
        help="cap on explicitly enumerated points (default and maximum 2^20)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("implicants", "complete orthogonal implicant cover of a system or map graph"),
        ("invert", "decide invertibility of a square map"),
        ("goe", "outputs of a square map that have no preimage"),
        ("one2one", "decide injectivity for any map arity"),
        ("coi", "complement of the image for any map arity"),
        ("unique", "classify a system as none / unique / multiple solutions"),
        ("diag", "decide injectivity via the doubled-variable collision system"),
        ("permpoly", "decide whether a polynomial permutes its field"),
        ("oracle", "brute-force ground truth for the same decisions"),
    ):
        sub.add_parser(name, help=text, parents=[common])
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The canonical argv read directly, or None for argparse to answer.

    Canonical is ``COMMAND FILE`` and then ``--bound M``, ``--format F``
    or ``--max-enum N`` pairs, where neither FILE nor a value starts with
    ``-``.  The values are converted as argparse converts them: ``int``
    for M and N, F one of the choices, and a repeated option keeps its
    last value.
    """
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in _HANDLERS or argv[1].startswith("-"):
        return None
    args = SimpleNamespace(
        command=argv[0],
        file=argv[1],
        bound=DEFAULT_BOUND,
        format="text",
        max_enum=DEFAULT_MAX_POINTS,
    )
    for option, value in zip(argv[2::2], argv[3::2]):
        attr = _OPTIONS.get(option)
        if attr is None or value.startswith("-"):
            return None
        if attr != "format":
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in _FORMATS:
            return None
        setattr(args, attr, value)
    return args


def _parse_args(argv: list[str] | None):
    """``command``, ``file``, ``bound``, ``format`` and ``max_enum`` of ``argv``.

    Any argv that ``_read_argv`` declines (help, an abbreviation,
    ``--opt=value``, ``--``, a value argparse refuses, an unknown command
    or flag) is parsed by the argparse tree, which is imported and built
    only then; it prints every usage error and help text.
    """
    if argv is None:
        argv = sys.argv[1:]
    return _read_argv(argv) or _build_parser().parse_args(argv)


def _plain(s: str) -> bool:
    """Whether ``json.dumps(s)`` only quotes ``s``: printable ASCII, no ``"`` or ``\\``."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _encode_str(s: str) -> str:
    """``json.dumps(s)``; a ``TypeError`` for anything but a string.

    A plain string is only quoted.  Any other goes to ``json``'s C
    encoder, which is imported only then.
    """
    if not isinstance(s, str):
        raise TypeError(f"not a string: {type(s).__name__}")
    if _plain(s):
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _digits(n: int) -> str:
    """``str(n)``, also past the interpreter's limit on int-to-string digits.

    ``decimal`` converts without that limit; it is imported only for such
    a count, so it costs nothing at startup.
    """
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _json(value, indent: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)``, for str keys.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is
    set; here the layout is joined and each string goes to ``_encode_str``,
    except in a list of strings that are plain together, which is quoted
    in one join.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        try:
            plain = _plain("".join(value))  # a list of strings, each of them plain
        except TypeError:
            plain = False
        if plain:
            body = '"' + ('",' + inner + '"').join(value) + '"'
        else:
            body = ("," + inner).join([_json(v, inner) for v in value])
        return "[" + inner + body + indent + "]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if type(value) is int:
        return _digits(value)
    import json

    return json.dumps(value)  # any other scalar


def _assignment_obj(a: Assignment, table: VarTable) -> dict:
    return {table.name(v): b for v, b in a.items()}


def _witness_fields(witness, table: VarTable):
    if witness is None:
        return None
    return [_assignment_obj(a, table) for a in witness]


def _witness_lines(witness, table: VarTable) -> list[str]:
    if witness is None:
        return []
    a1, a2 = witness
    return [
        "collision witness:",
        "  " + format_assignment(a1, table),
        "  " + format_assignment(a2, table),
    ]


#: For each command that needs a square map, the advice for any other map.
_NON_SQUARE = {
    "invert": "use one2one for non-square maps",
    "goe": "use coi for non-square maps",
}


def _need_map(problem: Problem, command: str) -> tuple[BoolMap, VarTable]:
    if not isinstance(problem, MapProblem):
        raise ValueError(f"{command} expects a map file")
    F = problem.map
    if command in _NON_SQUARE and F.m_out != F.n_in:
        raise NonSquareMapError(F.n_in, F.m_out, _NON_SQUARE[command])
    return F, problem.table


def _run_implicants(problem: Problem, args, cfg: EngineConfig):
    if isinstance(problem, MapProblem):
        cover = graph_implicants(problem.map, cfg)
    elif isinstance(problem, SystemProblem):
        cover = implicants(problem.system, cfg)
    else:
        raise ValueError("implicants expects a map or system file")
    table = problem.table
    terms = [format_term(t, table) for t in cover.terms]
    body = {
        "variables": list(table.names),
        "count": len(cover),
        "satisfying_total": cover.satisfying_total(),
        "terms": terms,
    }
    total = "assignments covered: " + _digits(body["satisfying_total"])
    lines = chain([f"implicants: {len(cover)}", total], map("  ".__add__, terms))
    return body, lines


def _run_verdict(problem: Problem, args, cfg: EngineConfig):
    F, table = _need_map(problem, args.command)
    # the module globals are looked up per call, so a rebound global is the one called;
    # only the collision cover of diag takes the engine setting
    if args.command == "diag":
        verdict = is_one_to_one_diagonal(F, cfg)
    elif args.command == "invert":
        verdict = is_invertible_square(F)
    else:
        verdict = is_one_to_one_general(F)
    body = {
        "inputs": list(table.inputs),
        "outputs": list(table.outputs),
        "one_to_one": verdict.one_to_one,
        "y_minterm_count": verdict.y_minterm_count,
        "witness": _witness_fields(verdict.witness, table),
    }
    lines = [f"one-to-one: {'yes' if verdict.one_to_one else 'no'}"]
    if verdict.y_minterm_count is not None:
        lines.append(f"distinct output minterms: {verdict.y_minterm_count}")
    lines.extend(_witness_lines(verdict.witness, table))
    return body, lines


def _word_rows(words, cells, sep: str) -> list[str]:
    """One row per output word: ``cells[j][bit j of the word]``, joined by ``sep``.

    The outputs go in groups, each one table lookup per word: a group's
    table holds every rendering of its outputs, built by doubling, and
    its width grows with the word count up to 8 outputs.
    """
    width = min(8, max(1, len(words).bit_length()))
    mask = (1 << width) - 1
    columns = []
    for lo in range(0, len(cells), width):
        group = cells[lo : lo + width]
        table = list(group[-1])
        for pair in reversed(group[:-1]):  # bit 0 of the index is the group's first output
            table = [c + sep + t for t in table for c in pair]
        index = map(and_, map(rshift, words, repeat(lo)), repeat(mask))
        columns.append(map(table.__getitem__, index))
    return list(map(sep.join, zip(*columns)))


def _run_complement(problem: Problem, args, cfg: EngineConfig):
    F, table = _need_map(problem, args.command)
    fn = goe if args.command == "goe" else coi
    res = fn(F, max_points=args.max_enum)
    # character j of a point is y_j; a parsed map has at least one output
    points = None
    if res.points is not None:
        points = _word_rows(res.points, [("0", "1")] * F.m_out, "")
    # the paper's s_i' = 1 for every image minterm s_i, written s_i = 0; the
    # last output's cells end the equation
    literals = [(name + "'", name) for name in table.outputs]
    literals[-1] = (literals[-1][0] + " = 0", literals[-1][1] + " = 0")
    body = {
        "outputs": list(table.outputs),
        "size": res.size,
        "points": points,
        "system": _word_rows(res.image, literals, " "),
    }
    lines = chain(
        ["missing outputs: " + _digits(res.size)],
        [f"  (not enumerated: output space exceeds --max-enum {args.max_enum})"]
        if points is None
        else map("  ".__add__, points),
        ["defining system:"],
        map("  ".__add__, body["system"]),
    )
    return body, lines


def _run_unique(problem: Problem, args, cfg: EngineConfig):
    if not isinstance(problem, SystemProblem):
        raise ValueError("unique expects a system file")
    res = unique_solution(problem.system, cfg)
    assignment = None
    if res.status is Uniqueness.UNIQUE:
        assignment = _assignment_obj(res.assignment, problem.table)
    body = {"status": res.status.value, "assignment": assignment}
    lines = [f"solutions: {res.status.value}"]
    if assignment is not None:
        lines.append("  " + format_assignment(res.assignment, problem.table))
    return body, lines


def _run_permpoly(problem: Problem, args, cfg: EngineConfig):
    if not isinstance(problem, PolyProblem):
        raise ValueError("permpoly expects a polynomial file")
    check_term_points(problem.poly)
    ok = is_permutation_polynomial(problem.poly)
    body = {
        "field_degree": problem.spec.n,
        "modulus": format(problem.spec.modulus, "b"),
        "poly": format_poly(problem.poly),
        "permutation": ok,
    }
    return body, [f"permutation: {'yes' if ok else 'no'}"]


def _enum_cap_bits(max_enum: int) -> int:
    return max(max_enum, 1).bit_length() - 1


def _run_oracle(problem: Problem, args, cfg: EngineConfig):
    # the referee is loaded only for its own command
    from .oracle import brute_image_count, brute_injective, brute_solutions

    cap = _enum_cap_bits(args.max_enum)
    if isinstance(problem, MapProblem):
        F, table = problem.map, problem.table
        injective, witness = brute_injective(F, cap=cap)
        image = brute_image_count(F, cap=cap)
        body = {
            "injective": injective,
            "image_size": image,
            "witness": _witness_fields(witness, table),
        }
        lines = [
            f"injective: {'yes' if injective else 'no'}",
            f"image size: {image}",
        ]
        lines.extend(_witness_lines(witness, table))
        return body, lines
    if isinstance(problem, SystemProblem):
        sols = brute_solutions(problem.system, cap=cap)
        listed = None
        if len(sols) <= 64:
            listed = [format_assignment(a, problem.table) for a in sols]
        body = {"solution_count": len(sols), "solutions": listed}
        lines = [f"solutions: {len(sols)}"]
        if listed is not None:
            lines.extend("  " + s for s in listed)
        return body, lines
    p, spec = problem.poly, problem.spec
    if spec.n > cap:
        raise ValueError(f"2^{spec.n} points exceed --max-enum {args.max_enum}")
    check_term_points(p, MAX_ORACLE_TERM_POINTS)
    image = {p.evaluate(spec.element(v)).value for v in range(spec.order)}
    ok = len(image) == spec.order
    body = {"permutation": ok, "image_size": len(image)}
    return body, [f"permutation: {'yes' if ok else 'no'}", f"image size: {len(image)}"]


_HANDLERS = {
    "implicants": _run_implicants,
    "invert": _run_verdict,
    "goe": _run_complement,
    "one2one": _run_verdict,
    "coi": _run_complement,
    "unique": _run_unique,
    "diag": _run_verdict,
    "permpoly": _run_permpoly,
    "oracle": _run_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    out_of_memory = False
    try:
        cfg = EngineConfig(base_bound_m=args.bound)  # a bad --bound fails before the read
        if not 0 <= args.max_enum <= DEFAULT_MAX_POINTS:
            raise ValueError(f"--max-enum must be in 0..{DEFAULT_MAX_POINTS}")
        problem = parse_file(args.file)
        body, lines = _HANDLERS[args.command](problem, args, cfg)
    except (ValueError, OSError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # reported below: here the traceback still holds the engine's frames,
        # and building the message could run out of memory once more
        out_of_memory = True
    except Exception as exc:
        # Exit 1 means "decided negative", so no internal failure may escape with it.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if out_of_memory:
        print("error: internal: MemoryError: ", file=sys.stderr)
        return 2
    doc = {"schema": SCHEMA_VERSION, "command": args.command, "problem": _KIND[type(problem)], **body}
    if args.format == "json":
        print(_json(doc))
    else:
        print("\n".join(lines))
    elapsed = time.perf_counter() - started
    print(
        f"[boolinv] {args.command} bound={args.bound} elapsed={elapsed:.3f}s",
        file=sys.stderr,
    )
    return 1 if any(doc.get(key) is False for key in _VERDICT_KEYS) else 0


if __name__ == "__main__":
    sys.exit(main())
