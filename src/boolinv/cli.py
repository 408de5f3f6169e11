"""Command-line entry point.

Result documents go to stdout; timing and configuration echo go to
stderr so that machine output is byte-identical from run to run.  Every
JSON document opens with ``schema``, ``command`` and ``problem``.  Exit
status: 1 when the document holds ``False`` under ``one_to_one``,
``permutation`` or ``injective`` (decided negative), 2 on an error,
including an internal failure of the engine, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebra import Assignment, MissingVariableError
from .engine import DEFAULT_BOUND, MAX_BOUND, EngineConfig, implicants
from .maps import (
    DEFAULT_MAX_POINTS,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolinv",
        description="Invertibility and image analysis of Boolean maps "
        "via orthogonal implicant covers.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (map, system, or polynomial)")
    common.add_argument(
        "--bound", type=int, default=DEFAULT_BOUND, metavar="M",
        help="max number of variables one leaf scan enumerates "
        f"(default {DEFAULT_BOUND}, at most {MAX_BOUND})",
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
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
        ("coi", "complement of the image for m >= n maps"),
        ("unique", "classify a system as none / unique / multiple solutions"),
        ("diag", "decide injectivity via the doubled-variable collision system"),
        ("permpoly", "decide whether a polynomial permutes its field"),
        ("oracle", "brute-force ground truth for the same decisions"),
    ):
        sub.add_parser(name, help=text, parents=[common])
    return parser


#: Built once per process: the tree costs more than a small command.
_PARSER = _build_parser()


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


def _need_map(problem: Problem, command: str) -> tuple[BoolMap, VarTable]:
    if not isinstance(problem, MapProblem):
        raise ValueError(f"{command} expects a map file")
    return problem.map, problem.table


def _run_implicants(problem: Problem, args, cfg: EngineConfig) -> tuple[dict, list[str]]:
    if isinstance(problem, MapProblem):
        sys_ = build_graph_system(problem.map)
    elif isinstance(problem, SystemProblem):
        sys_ = problem.system
    else:
        raise ValueError("implicants expects a map or system file")
    table = problem.table
    cover = implicants(sys_, cfg)
    terms = [format_term(t, table) for t in cover.terms]
    body = {
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
    return body, lines


def _run_verdict(problem: Problem, args, cfg: EngineConfig):
    F, table = _need_map(problem, args.command)
    # built per call from the module globals, so a rebound global is the one called
    decide = {
        "invert": is_invertible_square,
        "one2one": is_one_to_one_general,
        "diag": is_one_to_one_diagonal,
    }[args.command]
    verdict = decide(F, cfg)
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


def _run_complement(problem: Problem, args, cfg: EngineConfig):
    F, table = _need_map(problem, args.command)
    fn = goe if args.command == "goe" else coi
    res = fn(F, cfg, max_points=args.max_enum)
    # character j of a word's string is y_j; a parsed map has at least one output
    row = f"0{F.m_out}b"
    points = None
    if res.points is not None:
        points = [format(w, row)[::-1] for w in res.points]
    # the paper's s_i' = 1 for every image minterm s_i, written s_i = 0
    literals = [(name + "'", name) for name in table.outputs]
    factors = [
        " ".join(pair[ch == "1"] for pair, ch in zip(literals, format(w, row)[::-1])) + " = 0"
        for w in res.image
    ]
    body = {
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
    ok = is_permutation_polynomial(problem.poly, cfg)
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
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = EngineConfig(base_bound_m=args.bound)  # a bad --bound fails before the read
        if not 0 <= args.max_enum <= DEFAULT_MAX_POINTS:
            raise ValueError(f"--max-enum must be in 0..{DEFAULT_MAX_POINTS}")
        problem = parse_file(args.file)
        body, lines = _HANDLERS[args.command](problem, args, cfg)
    except (ValueError, OSError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MissingVariableError, MemoryError) as exc:
        # RuntimeError includes RecursionError.  Exit 1 means "decided
        # negative", so an internal failure must not escape with it.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    doc = {"schema": SCHEMA_VERSION, "command": args.command, "problem": _KIND[type(problem)], **body}
    if args.format == "json":
        print(json.dumps(doc, indent=2))
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
