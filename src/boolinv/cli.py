"""Command-line entry point.

Result documents go to stdout; timing and configuration echo go to
stderr so that machine output is byte-identical from run to run.  Exit
status: 0 decided (positive or neutral), 1 decided negative (not
one-to-one, not a permutation), 2 error, including an internal failure
of the engine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra import Assignment, MissingVariableError
from .engine import MAX_BOUND, EngineConfig, implicants
from .maps import (
    BoolMap,
    Uniqueness,
    build_graph_system,
    coi,
    goe,
    is_invertible_square,
    is_one_to_one_general,
    unique_solution,
)
from .collision import is_one_to_one_diagonal
from .oracle import brute_image_count, brute_injective, brute_solutions
from .gf2n import is_permutation_polynomial
from .parsing import (
    MapProblem,
    ParseError,
    PolyProblem,
    Problem,
    SystemProblem,
    VarTable,
    format_anf,
    format_assignment,
    format_poly,
    format_term,
    parse_file,
)

SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolinv",
        description="Invertibility and image analysis of Boolean maps "
        "via orthogonal implicant covers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (map, system, or polynomial)")
    common.add_argument(
        "--bound", type=int, default=12, metavar="M",
        help="max support size solved by direct enumeration "
        f"(default 12, at most {MAX_BOUND})",
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="result document format (default text)",
    )
    common.add_argument(
        "--max-enum", type=int, default=1 << 20, metavar="N",
        help="cap on explicitly enumerated points (default 2^20)",
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="echoed in diagnostics; used by corpus tooling only",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("implicants", "complete orthogonal implicant cover of a system or map graph"),
        ("invert", "decide invertibility of a square map"),
        ("goe", "outputs of a square map that have no preimage"),
        ("one2one", "decide injectivity for any map arity"),
        ("coi", "complement of the image for m >= n maps"),
        ("unique", "classify a system as none / unique / multiple solutions"),
        ("diag", "decide injectivity via the doubled-variable collision system"),
        ("permpoly", "decide whether a polynomial permutes its field"),
        ("oracle", "brute-force ground truth for the same decisions"),
    ):
        sub.add_parser(name, help=text, parents=[common])
    return parser


def _cfg(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(base_bound_m=args.bound)


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


def _y_bitstring(a: Assignment, F: BoolMap) -> str:
    return "".join(str(a.value(F.y_var(j))) for j in range(F.m_out))


def _need_map(problem: Problem, command: str) -> tuple[BoolMap, VarTable]:
    if not isinstance(problem, MapProblem):
        raise ValueError(f"{command} expects a map file")
    return problem.map, problem.table


def _run_implicants(problem: Problem, args) -> tuple[dict, list[str], bool]:
    if isinstance(problem, MapProblem):
        sys_, table = build_graph_system(problem.map), problem.table
        kind = "map"
    elif isinstance(problem, SystemProblem):
        sys_, table, kind = problem.system, problem.table, "system"
    else:
        raise ValueError("implicants expects a map or system file")
    cover = implicants(sys_, _cfg(args))
    terms = [format_term(t, table) for t in cover.terms]
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "implicants",
        "problem": kind,
        "variables": list(table.names),
        "count": len(cover),
        "satisfying_total": cover.satisfying_total(),
        "terms": terms,
    }
    lines = [
        f"implicants: {len(cover)}",
        f"assignments covered: {cover.satisfying_total()}",
        *("  " + t for t in terms),
    ]
    return doc, lines, False


def _verdict_doc(command: str, verdict, table: VarTable) -> tuple[dict, list[str], bool]:
    doc = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "problem": "map",
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
    return doc, lines, not verdict.one_to_one


def _run_invert(problem: Problem, args):
    F, table = _need_map(problem, "invert")
    return _verdict_doc("invert", is_invertible_square(F, _cfg(args)), table)


def _run_one2one(problem: Problem, args):
    F, table = _need_map(problem, "one2one")
    return _verdict_doc("one2one", is_one_to_one_general(F, _cfg(args)), table)


def _run_diag(problem: Problem, args):
    F, table = _need_map(problem, "diag")
    return _verdict_doc("diag", is_one_to_one_diagonal(F, _cfg(args)), table)


def _run_complement(problem: Problem, args, command: str):
    F, table = _need_map(problem, command)
    fn = goe if command == "goe" else coi
    res = fn(F, _cfg(args), max_points=args.max_enum)
    points = None
    if res.points is not None:
        points = [_y_bitstring(p, F) for p in res.points]
    factors = [format_anf(h, table) + " = 1" for h in res.system.factors]
    doc = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "problem": "map",
        "outputs": list(table.outputs),
        "size": res.size,
        "points": points,
        "system": factors,
    }
    lines = [f"missing outputs: {res.size}"]
    if points is not None:
        lines.extend("  " + p for p in points)
    else:
        lines.append(f"  (not enumerated: output space exceeds --max-enum {args.max_enum})")
    lines.append("defining system:")
    lines.extend("  " + f for f in factors)
    return doc, lines, False


def _run_unique(problem: Problem, args):
    if not isinstance(problem, SystemProblem):
        raise ValueError("unique expects a system file")
    res = unique_solution(problem.system, _cfg(args))
    assignment = None
    if res.status is Uniqueness.UNIQUE:
        assignment = _assignment_obj(res.assignment, problem.table)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "unique",
        "problem": "system",
        "status": res.status.value,
        "assignment": assignment,
    }
    lines = [f"solutions: {res.status.value}"]
    if assignment is not None:
        lines.append("  " + format_assignment(res.assignment, problem.table))
    return doc, lines, False


def _run_permpoly(problem: Problem, args):
    if not isinstance(problem, PolyProblem):
        raise ValueError("permpoly expects a polynomial file")
    ok = is_permutation_polynomial(problem.poly)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "permpoly",
        "problem": "poly",
        "field_degree": problem.spec.n,
        "modulus": format(problem.spec.modulus, "b"),
        "poly": format_poly(problem.poly),
        "permutation": ok,
    }
    lines = [f"permutation: {'yes' if ok else 'no'}"]
    return doc, lines, not ok


def _enum_cap_bits(max_enum: int) -> int:
    return max(max_enum, 1).bit_length() - 1


def _run_oracle(problem: Problem, args):
    cap = _enum_cap_bits(args.max_enum)
    if isinstance(problem, MapProblem):
        F, table = problem.map, problem.table
        injective, witness = brute_injective(F, cap=cap)
        image = brute_image_count(F, cap=cap)
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "oracle",
            "problem": "map",
            "injective": injective,
            "image_size": image,
            "witness": _witness_fields(witness, table),
        }
        lines = [
            f"injective: {'yes' if injective else 'no'}",
            f"image size: {image}",
        ]
        lines.extend(_witness_lines(witness, table))
        return doc, lines, not injective
    if isinstance(problem, SystemProblem):
        sols = brute_solutions(problem.system, cap=cap)
        listed = None
        if len(sols) <= 64:
            listed = [format_assignment(a, problem.table) for a in sols]
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "oracle",
            "problem": "system",
            "solution_count": len(sols),
            "solutions": listed,
        }
        lines = [f"solutions: {len(sols)}"]
        if listed is not None:
            lines.extend("  " + s for s in listed)
        return doc, lines, False
    p, spec = problem.poly, problem.spec
    if spec.n > cap:
        raise ValueError(f"2^{spec.n} points exceed --max-enum {args.max_enum}")
    image = {p.evaluate(spec.element(v)).value for v in range(spec.order)}
    ok = len(image) == spec.order
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "oracle",
        "problem": "poly",
        "permutation": ok,
        "image_size": len(image),
    }
    return doc, [f"permutation: {'yes' if ok else 'no'}", f"image size: {len(image)}"], not ok


_HANDLERS = {
    "implicants": _run_implicants,
    "invert": _run_invert,
    "goe": lambda p, a: _run_complement(p, a, "goe"),
    "one2one": _run_one2one,
    "coi": lambda p, a: _run_complement(p, a, "coi"),
    "unique": _run_unique,
    "diag": _run_diag,
    "permpoly": _run_permpoly,
    "oracle": _run_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _cfg(args)  # refuse a bad --bound before reading the file
        problem = parse_file(args.file)
        doc, lines, negative = _HANDLERS[args.command](problem, args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MissingVariableError, MemoryError) as exc:
        # RuntimeError includes RecursionError.  Exit 1 means "decided
        # negative", so an internal failure must not escape with it.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    elapsed = time.perf_counter() - started
    seed = "" if args.seed is None else f" seed={args.seed}"
    print(
        f"[boolinv] {args.command} bound={args.bound}"
        f"{seed} elapsed={elapsed:.3f}s",
        file=sys.stderr,
    )
    return 1 if negative else 0


if __name__ == "__main__":
    sys.exit(main())
