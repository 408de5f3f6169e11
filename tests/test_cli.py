"""End-to-end checks of the command-line front end."""

import ast
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolinv
import boolinv.cli
import boolinv.engine
import boolinv.maps
from boolinv.algebra import Assignment, MissingVariableError
from boolinv.cli import main
from boolinv.maps import BoolMap
from boolinv.oracle import brute_image
from boolinv.parsing import MapProblem, VarTable, format_problem, parse_file

from conftest import random_map_coords, random_permutation_coords

FIXTURES = Path(__file__).parent / "fixtures"
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"
SRC = Path(__file__).parents[1] / "src"

#: a child process imports boolinv from this checkout, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))),
}

SHIFT = str(FIXTURES / "shift.txt")
QUAD = str(FIXTURES / "quad.txt")
UNIQUE_SYS = str(FIXTURES / "unique_system.txt")
MULTI_SYS = str(FIXTURES / "multi_system.txt")
EMPTY_SYS = str(FIXTURES / "empty_system.txt")
CUBE_F8 = str(FIXTURES / "cube_f8.txt")
CUBE_F16 = str(FIXTURES / "cube_f16.txt")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_invert_shift(capsys):
    code, doc = run_json(capsys, "invert", SHIFT)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["one_to_one"] is True
    assert doc["y_minterm_count"] == 8
    assert doc["witness"] is None
    assert doc["inputs"] == ["x1", "x2", "x3"]
    assert doc["outputs"] == ["y1", "y2", "y3"]


def test_invert_quad_negative_exit(capsys):
    code, doc = run_json(capsys, "invert", QUAD)
    assert code == 1
    assert doc["one_to_one"] is False
    assert doc["y_minterm_count"] == 10
    assert doc["witness"] is not None


def _as_assignment(obj, table):
    return Assignment.from_values(
        {table.names.index(name): bit for name, bit in obj.items()}
    )


def test_invert_witness_is_a_real_collision(capsys):
    _, doc = run_json(capsys, "invert", QUAD)
    problem = parse_file(QUAD)
    a1, a2 = (_as_assignment(w, problem.table) for w in doc["witness"])
    assert a1 != a2
    assert problem.map.evaluate(a1) == problem.map.evaluate(a2)


def test_goe_quad_frozen_points(capsys):
    code, doc = run_json(capsys, "goe", QUAD)
    assert code == 0
    assert doc["size"] == 6
    assert doc["points"] == ["0110", "0111", "1000", "1010", "1100", "1111"]
    # one image minterm per equation, in canonical order: y1 most significant
    assert doc["system"] == [
        "y1' y2' y3' y4' = 0",
        "y1' y2' y3' y4 = 0",
        "y1' y2' y3 y4' = 0",
        "y1' y2' y3 y4 = 0",
        "y1' y2 y3' y4' = 0",
        "y1' y2 y3' y4 = 0",
        "y1 y2' y3' y4 = 0",
        "y1 y2' y3 y4 = 0",
        "y1 y2 y3' y4 = 0",
        "y1 y2 y3 y4' = 0",
    ]
    _, out, _ = run(capsys, "goe", QUAD)
    text = out.splitlines()
    start = text.index("defining system:") + 1
    assert text[start:] == ["  " + e for e in doc["system"]]


def test_goe_shift_empty(capsys):
    code, doc = run_json(capsys, "goe", SHIFT)
    assert code == 0
    assert doc["size"] == 0
    assert doc["points"] == []


def test_goe_max_enum_suppresses_listing(capsys):
    code, doc = run_json(capsys, "goe", QUAD, "--max-enum", "8")
    assert code == 0
    assert doc["size"] == 6
    assert doc["points"] is None
    code, out, _ = run(capsys, "goe", QUAD, "--max-enum", "8")
    assert "not enumerated" in out


def test_coi_square_matches_goe(capsys):
    _, g = run_json(capsys, "goe", QUAD)
    _, c = run_json(capsys, "coi", QUAD)
    assert c["size"] == g["size"]
    assert c["points"] == g["points"]


def test_one2one_matches_invert_on_square(capsys):
    for path in (SHIFT, QUAD):
        ci, di = run_json(capsys, "invert", path)
        cg, dg = run_json(capsys, "one2one", path)
        assert ci == cg
        assert di["one_to_one"] == dg["one_to_one"]
        assert di["y_minterm_count"] == dg["y_minterm_count"]


def test_diag_shift_positive(capsys):
    code, doc = run_json(capsys, "diag", SHIFT)
    assert code == 0
    assert doc["one_to_one"] is True
    assert doc["y_minterm_count"] is None


def test_diag_quad_witness_collides(capsys):
    code, doc = run_json(capsys, "diag", QUAD)
    assert code == 1
    problem = parse_file(QUAD)
    a1, a2 = (_as_assignment(w, problem.table) for w in doc["witness"])
    assert a1 != a2
    assert problem.map.evaluate(a1) == problem.map.evaluate(a2)


def test_unique_fixture_statuses(capsys):
    code, doc = run_json(capsys, "unique", UNIQUE_SYS)
    assert code == 0
    assert doc["status"] == "unique"
    assert doc["assignment"] == {"x1": 1, "x2": 0}

    code, doc = run_json(capsys, "unique", MULTI_SYS)
    assert code == 0
    assert doc["status"] == "multiple"
    assert doc["assignment"] is None

    code, doc = run_json(capsys, "unique", EMPTY_SYS)
    assert code == 0
    assert doc["status"] == "none"


def test_permpoly_exit_codes(capsys):
    code, doc = run_json(capsys, "permpoly", CUBE_F8)
    assert code == 0
    assert doc["permutation"] is True
    assert doc["poly"] == "X^3"
    code, doc = run_json(capsys, "permpoly", CUBE_F16)
    assert code == 1
    assert doc["permutation"] is False


def test_permpoly_huge_exponent_agrees_with_oracle(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    for poly, permutes in (("X^1000000", False), ("X^1000001 + 3", True)):
        path.write_text(f"field: n=4\npoly: {poly}\n")
        code, doc = run_json(capsys, "permpoly", path)
        assert doc["permutation"] is permutes and code == (0 if permutes else 1)
        orc_code, orc = run_json(capsys, "oracle", path)
        assert (orc_code, orc["permutation"]) == (code, permutes)
    assert doc["poly"] == "X^11 + 3"  # the echo shows the folded exponent


def _spy_on_scans(monkeypatch):
    """The width of each scan ``engine._functional_scan`` makes, and every leaf that makes terms."""
    widths, leaves = [], []
    scan_points = boolinv.engine._scan_points
    leaf = boolinv.engine.impl_for_simple

    def scan_spy(scanned, k):
        widths.append(k)
        return scan_points(scanned, k)

    def leaf_spy(f, bound=boolinv.engine.DEFAULT_BOUND):
        leaves.append(bound)
        return leaf(f, bound)

    monkeypatch.setattr(boolinv.engine, "_scan_points", scan_spy)
    monkeypatch.setattr(boolinv.engine, "impl_for_simple", leaf_spy)
    return widths, leaves


def test_permpoly_honours_bound(capsys, monkeypatch, tmp_path):
    # the verdict reads the field's value table, which no bound shapes
    path = tmp_path / "f64.txt"
    widths, leaves = _spy_on_scans(monkeypatch)
    for poly, permutes in (("X^5", True), ("X^3 + X", False)):
        path.write_text(f"field: n=6\npoly: {poly}\n")
        for fmt in ("text", "json"):
            expected = run(capsys, "permpoly", path, "--format", fmt)
            assert expected[0] == (0 if permutes else 1)
            for bound in (1, 2, 20):
                got = run(capsys, "permpoly", path, "--bound", str(bound), "--format", fmt)
                assert got[:2] == expected[:2], (fmt, bound)  # exit code and stdout
    for bound in ("0", "21"):  # still refused before the file is read
        assert run(capsys, "permpoly", tmp_path / "missing.txt", "--bound", bound)[:2] == (2, "")
    assert widths == leaves == []


def test_map_verdicts_make_no_leaf_terms_at_any_bound(capsys, monkeypatch, tmp_path):
    # the verdicts read the output words of one scan of width min(n, 12), made
    # without terms, and no bound changes it
    def write_map(name, coords, n):
        names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))
        path = tmp_path / name
        path.write_text(format_problem(MapProblem(BoolMap.of(coords, n), VarTable(names, n))))
        return path

    map10 = write_map("map10.txt", random_map_coords(random.Random(10), 10, 10, max_degree=2), 10)
    perm14 = write_map("perm14.txt", random_permutation_coords(random.Random(14), 14), 14)
    widths, leaves = _spy_on_scans(monkeypatch)
    cases = (("invert", map10, 10), ("goe", map10, 10), ("invert", perm14, 14))
    for command, path, n in cases:
        widths.clear()
        expected = run(capsys, command, path)
        assert expected[0] in (0, 1), command
        assert widths == [min(n, boolinv.engine.DEFAULT_BOUND)], command
        for bound in (1, 2, 20):
            widths.clear()
            got = run(capsys, command, path, "--bound", str(bound))
            assert widths == [min(n, boolinv.engine.DEFAULT_BOUND)], (command, bound)
            assert got[:2] == expected[:2], (command, bound)  # exit code and stdout
    assert leaves == []


def test_permpoly_exponent_past_int_string_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("field: n=4\npoly: X^" + "1" * 5000 + "\n")
    code, out, err = run(capsys, "permpoly", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2, column 7: exponent of 5000 digits")


def test_oracle_map_agrees_with_invert(capsys):
    code, doc = run_json(capsys, "oracle", QUAD)
    assert code == 1
    assert doc["injective"] is False
    _, inv = run_json(capsys, "invert", QUAD)
    assert doc["image_size"] == inv["y_minterm_count"] == 10


def test_oracle_system_counts(capsys):
    code, doc = run_json(capsys, "oracle", MULTI_SYS)
    assert code == 0
    assert doc["solution_count"] == 2
    assert len(doc["solutions"]) == 2


def test_oracle_poly(capsys):
    code, doc = run_json(capsys, "oracle", CUBE_F8)
    assert code == 0
    assert doc["permutation"] is True and doc["image_size"] == 8
    code, doc = run_json(capsys, "oracle", CUBE_F16)
    assert code == 1
    assert doc["permutation"] is False and doc["image_size"] == 6


def test_oracle_poly_of_high_degree_is_fast(capsys, tmp_path):
    # X^1022 permutes GF(2^10): gcd(1022, 1023) = 1.  Each point costs
    # one power, not a pass over all 1,023 dense coefficients.
    path = tmp_path / "x1022.txt"
    path.write_text("field: n=10\npoly: X^1022\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, "oracle", path)
    assert time.perf_counter() - started < 2.5
    assert code == 0
    assert out.splitlines()[-2:] == ["permutation: yes", "image size: 1024"]


def test_oracle_poly_respects_max_enum(capsys):
    code, _, err = run(capsys, "oracle", CUBE_F8, "--max-enum", "4")
    assert code == 2
    assert "error:" in err


def test_implicants_system_total_matches_oracle(capsys):
    _, doc = run_json(capsys, "implicants", MULTI_SYS)
    _, orc = run_json(capsys, "oracle", MULTI_SYS)
    assert doc["satisfying_total"] == orc["solution_count"]


def test_implicants_shift_graph(capsys):
    code, doc = run_json(capsys, "implicants", SHIFT)
    assert code == 0
    assert doc["count"] == 8
    assert doc["satisfying_total"] == 8
    assert len(doc["terms"]) == 8


def test_repeated_main_calls_match_fresh_processes(capsys):
    """One parser serves every call: no flag or subcommand leaks into the next."""
    calls = [
        ["goe", QUAD, "--format", "json", "--max-enum", "4"],
        ["goe", QUAD],
        ["unique", UNIQUE_SYS, "--bound", "1", "--format", "json"],
        ["permpoly", CUBE_F16],
        ["invert", SHIFT, "--format", "xml"],
        ["oracle", MULTI_SYS, "--format", "json"],
        ["implicants", SHIFT, "--bound", "2"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a bad flag this way
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "boolinv.cli", *argv],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_timing_goes_to_stderr_only(capsys):
    _, out, err = run(capsys, "invert", SHIFT)
    assert "elapsed" not in out
    assert "elapsed" in err and "bound=12" in err


def test_error_exits(capsys, tmp_path):
    assert run(capsys, "invert", tmp_path / "missing.txt")[0] == 2
    assert run(capsys, "unique", SHIFT)[0] == 2
    assert run(capsys, "invert", MULTI_SYS)[0] == 2
    assert run(capsys, "permpoly", QUAD)[0] == 2
    assert run(capsys, "implicants", CUBE_F8)[0] == 2

    rect = tmp_path / "rect.txt"
    rect.write_text("vars: x1 x2\ny1 = x1*x2\n")
    assert run(capsys, "invert", rect)[0] == 2
    assert run(capsys, "one2one", rect)[0] == 1  # wider domain, decided negative

    bad = tmp_path / "bad.txt"
    bad.write_text("vars: x1\n0 = x1 +\n")
    code, _, err = run(capsys, "unique", bad)
    assert code == 2
    assert "error:" in err and "line 2" in err


NARROW = "vars: a b\ny = 1\n"  # 2 inputs, 1 output
WIDE = "vars: a\ny1 = a\ny2 = 1\n"  # 1 input, 2 outputs
TO_ONE2ONE = "use one2one for non-square maps"
TO_COI = "use coi for non-square maps"


@pytest.mark.parametrize(
    "text, command, error, advised_exit",
    [
        (NARROW, "invert", f"map has 2 inputs and 1 outputs; {TO_ONE2ONE}", 1),
        (WIDE, "invert", f"map has 1 inputs and 2 outputs; {TO_ONE2ONE}", 0),
        (NARROW, "goe", f"map has 2 inputs and 1 outputs; {TO_COI}", 0),
        (WIDE, "goe", f"map has 1 inputs and 2 outputs; {TO_COI}", 0),
    ],
)
def test_non_square_refusal_names_the_command_that_applies(
    capsys, tmp_path, text, command, error, advised_exit
):
    path = tmp_path / "map.txt"
    path.write_text(text)
    assert run(capsys, command, path) == (2, "", f"error: {error}\n")
    # the named command answers for the map
    advised = error.split("; use ")[1].split()[0]
    assert run(capsys, advised, path)[0] == advised_exit


def test_max_enum_outside_cap_exits_2_at_once(capsys, tmp_path):
    missing = tmp_path / "missing.txt"  # refused before the file is read
    for value in (str((1 << 20) + 1), "-1"):
        for command, path in (("coi", missing), ("oracle", QUAD), ("goe", QUAD)):
            code, out, err = run(capsys, command, path, "--max-enum", value)
            assert (code, out) == (2, "")
            assert err.startswith("error: --max-enum must be in 0..1048576")
    code, doc = run_json(capsys, "goe", QUAD, "--max-enum", str(1 << 20))
    assert code == 0 and len(doc["points"]) == 6
    assert run(capsys, "oracle", QUAD, "--max-enum", str(1 << 20))[0] == 1


def test_map_without_inputs_is_one_to_one_by_every_method(capsys, tmp_path):
    path = tmp_path / "const.txt"
    path.write_text("vars:\ny1 = 1\ny2 = 0\n")
    for command in ("diag", "one2one", "oracle"):
        code, out, _ = run(capsys, command, path)
        assert code == 0, command
        assert out.splitlines()[0] in ("one-to-one: yes", "injective: yes"), command
    code, doc = run_json(capsys, "coi", path)
    assert code == 0
    assert doc["points"] == ["00", "01", "11"]
    assert doc["system"] == ["y1 y2' = 0"]


def test_goe_on_a_14_bit_map_prints_one_cube_per_image_point(capsys, tmp_path):
    # the expanded ANF system printed 54 MB for this map
    coords = random_map_coords(random.Random(14), 14, 14, max_degree=2)
    F = BoolMap.of(coords, 14)
    names = tuple(f"x{i + 1}" for i in range(14)) + tuple(f"y{i + 1}" for i in range(14))
    path = tmp_path / "map14.txt"
    path.write_text(format_problem(MapProblem(F, VarTable(names, 14))))
    code, out, _ = run(capsys, "goe", path, "--format", "json")
    assert code == 0
    assert len(out.encode()) < 1 << 20
    doc = json.loads(out)
    assert not any("+" in e for e in doc["system"])
    image = brute_image(F)
    assert len(doc["system"]) == len(image)
    cubes = set()
    for e in doc["system"]:
        lits = e.removesuffix(" = 0").split()
        assert [lit.rstrip("'") for lit in lits] == list(names[14:]), e
        cubes.add(sum(1 << j for j, lit in enumerate(lits) if not lit.endswith("'")))
    assert cubes == image
    got = {sum(int(ch) << j for j, ch in enumerate(p)) for p in doc["points"]}
    assert got == set(range(1 << 14)) - image
    assert doc["size"] == len(got)


@pytest.mark.parametrize("m", [1, 3, 8, 9, 17])
def test_word_rows_match_per_output_rendering(m):
    rng = random.Random(m)
    cells = [(f"a{j}", f"b{j}") for j in range(m)]
    for count in (0, 1, 5, 300):
        words = [rng.randrange(1 << m) for _ in range(count)]
        expected = ["-".join(cells[j][w >> j & 1] for j in range(m)) for w in words]
        assert boolinv.cli._word_rows(words, cells, "-") == expected


def test_bound_beyond_cap_exits_2_at_once(capsys):
    for command, path in (("invert", SHIFT), ("permpoly", CUBE_F8), ("oracle", QUAD)):
        code, out, err = run(capsys, command, path, "--bound", "1000000")
        assert code == 2
        assert out == ""
        assert "at most 20" in err
    assert run(capsys, "invert", SHIFT, "--bound", "20")[0] == 0


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bound_below_one_names_the_bound(capsys, bound):
    code, out, err = run(capsys, "invert", SHIFT, "--bound", bound)
    assert code == 2
    assert out == ""
    assert err == f"error: bound must be at least 1 and at most 20, got {bound}\n"


class _UnprintableMemoryError(MemoryError):
    """Stands in for an allocation that fails while the error is reported."""

    def __str__(self):
        raise MemoryError


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("engine inconsistency"),
        RecursionError("maximum recursion depth exceeded"),
        MissingVariableError(3),
        MemoryError(),
        TypeError("unsupported operand"),
        _UnprintableMemoryError(),
    ],
)
def test_internal_errors_exit_2(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(boolinv.maps, "_functional_scan", broken)
    monkeypatch.setattr(boolinv.maps, "implicants", broken)  # map implicants: graph_implicants
    # every MemoryError is reported by one fixed line, built after the handler
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    for command in ("invert", "implicants"):
        code, out, err = run(capsys, command, SHIFT)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: internal: {name}")


def test_text_output_smoke(capsys):
    _, out, _ = run(capsys, "invert", SHIFT)
    assert "one-to-one: yes" in out
    _, out, _ = run(capsys, "unique", UNIQUE_SYS)
    assert "x1=1 x2=0" in out


@pytest.mark.skipif(shutil.which("boolinv") is None, reason="script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["boolinv", "invert", SHIFT, "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["one_to_one"] is True


def test_declared_console_script_is_main(capsys):
    # the script itself is not installed in a checkout: resolve its pyproject entry
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["boolinv"]
    entry = importlib.metadata.EntryPoint("boolinv", target, "console_scripts").load()
    assert entry is boolinv.cli.main
    code = entry(["permpoly", CUBE_F16])
    assert (code, capsys.readouterr().out) == (1, "permutation: no\n")


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "boolinv.cli", "permpoly", CUBE_F16],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert (proc.returncode, proc.stdout) == (1, "permutation: no\n")


def test_every_exported_name_resolves():
    # a dangling __all__ entry breaks ``from boolinv import *``
    assert [name for name in boolinv.__all__ if not hasattr(boolinv, name)] == []
    # adding or removing a public name shows up in this list
    assert sorted(boolinv.__all__) == [
        "Anf",
        "Assignment",
        "BoolMap",
        "BoolSystem",
        "BoundExceededError",
        "ComplementResult",
        "EngineConfig",
        "FieldElem",
        "FieldSpec",
        "ImplicantSet",
        "MapProblem",
        "MissingVariableError",
        "NonSquareMapError",
        "OrthogonalityError",
        "ParseError",
        "PolyProblem",
        "SystemProblem",
        "Term",
        "TruthTable",
        "UniPoly",
        "UniqueSolutionResult",
        "Uniqueness",
        "ValidationReport",
        "VarTable",
        "Verdict",
        "__version__",
        "brute_image",
        "brute_image_count",
        "brute_injective",
        "brute_solutions",
        "build_collision_system",
        "build_graph_system",
        "coi",
        "collision_implicants",
        "compose_product",
        "coordinate_functions",
        "diagonal_set",
        "format_problem",
        "goe",
        "graph_implicants",
        "implicants",
        "is_implicant",
        "is_invertible_square",
        "is_one_to_one_diagonal",
        "is_one_to_one_general",
        "is_permutation_polynomial",
        "mask_of",
        "og_sum_is_tautology",
        "parse_file",
        "parse_text",
        "solution_count",
        "unique_solution",
        "validate_implicant_set",
        "vars_of",
    ]


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from boolinv import *", namespace)
    assert [name for name in boolinv.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(boolinv, name) for name in boolinv.__all__)


#: Modules that a well-formed command does not use; argparse loads gettext and locale.
_NOT_AT_START = ("argparse", "boolinv.oracle", "dataclasses", "gettext", "json", "locale")
#: perfbench's tracer reads these from sys.modules when it installs its hooks.
_TRACED = ["boolinv.collision", "boolinv.gf2n"]


def _fresh_modules(*argvs: list[str]) -> list[list[str]]:
    """The watched modules a fresh interpreter holds after ``import boolinv.cli``
    and then after each ``main(argv)``, whose output and exit are dropped."""
    probe = (
        "import io, sys, boolinv.cli\n"
        f"watched = {{*{_NOT_AT_START!r}, *{_TRACED!r}}}\n"
        "steps = [sorted(watched & sys.modules.keys())]\n"
        f"for argv in {list(argvs)!r}:\n"
        "    sys.stdout = sys.stderr = io.StringIO()\n"
        "    try:\n"
        "        boolinv.cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    steps.append(sorted(watched & sys.modules.keys()))\n"
        "print(repr(steps), file=sys.__stdout__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_cli_import_loads_neither_dataclasses_nor_the_oracle(capsys):
    # -S: no site hook imports anything first; the oracle loads on first use
    probe = (
        "import sys, boolinv.cli\n"
        "print(sorted({'dataclasses', 'boolinv.oracle'} & sys.modules.keys()))\n"
        "print(boolinv.brute_image.__module__)\n"
        "sys.exit(boolinv.cli.main(['oracle', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, QUAD], capture_output=True, text=True, env=CHILD_ENV
    )
    code, out, _ = run(capsys, "oracle", QUAD)
    assert proc.stdout.splitlines()[:2] == ["[]", "boolinv.oracle"]
    assert code == 1
    assert (proc.returncode, proc.stdout.split("\n", 2)[2]) == (code, out)
    # a canonical argv is read without argparse, and a JSON document of plain
    # strings is written without json; help and a bad flag load argparse
    canonical = ["invert", QUAD, "--format", "json", "--bound", "3", "--max-enum", "8"]
    steps = _fresh_modules(canonical, ["unique", UNIQUE_SYS], ["invert", "--help"])
    assert steps[:3] == [_TRACED] * 3
    assert "argparse" in steps[3]
    assert "argparse" in _fresh_modules(["invert", QUAD, "--frobnicate"])[1]


# argv tokens: commands, FILE values, exact, abbreviated and `=` options, `--`,
# help, int spellings (`int` takes " 3" and "1_0", refuses "0x3" and 5000 digits;
# argparse takes "-1" as a value but not "-1_0") and formats; any token may land
# where another kind goes
_COMMAND_TOKENS = st.sampled_from([*boolinv.cli._HANDLERS, "frobnicate", "inv"])
_FILE_TOKENS = st.one_of(st.just("quad.txt"), st.sampled_from(["-", "", "-quad.txt", " quad.txt"]))
_OPTION_TOKENS = st.one_of(
    st.sampled_from(["--bound", "--format", "--max-enum"]),
    st.sampled_from(["--bou", "--form", "--max", "--m"]),
    st.sampled_from(["--bound=3", "--format=json", "--max-enum=8"]),
    st.sampled_from(["--", "-h", "--help", "--frobnicate"]),
)
_INT_TOKENS = st.sampled_from(["3", " 3", "1_0", "-1", "-1_0", "0x3", "9" * 5000])
_FORMAT_TOKENS = st.sampled_from(["json", "text", "xml"])
_VALUE_TOKENS = st.one_of(_INT_TOKENS, _FORMAT_TOKENS)
_ANY_TOKEN = st.one_of(_COMMAND_TOKENS, _FILE_TOKENS, _OPTION_TOKENS, _VALUE_TOKENS)
# an option with a value of its own kind, or any option with any value
_PAIR = st.one_of(
    st.tuples(st.sampled_from(["--bound", "--max-enum"]), _INT_TOKENS),
    st.tuples(st.just("--format"), _FORMAT_TOKENS),
    st.tuples(_OPTION_TOKENS, _ANY_TOKEN),
)
_PAIRS = st.lists(_PAIR, max_size=3)
_CANONICAL_SHAPE = st.builds(
    lambda command, file, pairs: [command, file, *(token for pair in pairs for token in pair)],
    _COMMAND_TOKENS,
    _FILE_TOKENS,
    _PAIRS,
)
# the shape as is, shuffled (an option before FILE, say), or any tokens
_ARGV = st.one_of(
    _CANONICAL_SHAPE, _CANONICAL_SHAPE.flatmap(st.permutations), st.lists(_ANY_TOKEN, max_size=7)
)
_ARGPARSE_TREE = boolinv.cli._build_parser()


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_ARGV)
@example(["invert", "quad.txt", "--bound", " 3", "--format", "json", "--bound", "1_0"])
@example(["unique", "", "--max-enum", "8"])
@example(["invert", "quad.txt", "--format", "json", "--bound"])  # an option without a value
@example(["invert", "quad.txt", "--bound=3", "4"])  # argparse: 4 is an extra argument
def test_direct_argv_read_agrees_with_argparse(argv):
    direct = boolinv.cli._read_argv(argv)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            parsed = vars(_ARGPARSE_TREE.parse_args(argv))
    except SystemExit:
        assert direct is None, argv
    else:
        assert direct is None or vars(direct) == parsed, argv


def test_json_writer_quotes_plain_strings_and_escapes_the_rest():
    # each side of the printable-ASCII range, the two escaped printables, and
    # non-ASCII up to an astral character, alone and in a longer string
    edges = [" ", "~", "/", "\x1f", "\x7f", '"', "\\", "\x80", "caf\u00e9", "\u2028", "\U0001f600"]
    odd = [*edges, *(f"x1 {c} y2'" for c in edges), "", "a\tb\n", "\x00"]
    doc = {
        "schema": 1,
        "strings": odd,
        "nested": [{s: [s, None, True, False, 0, -3, [], {}]} for s in odd],
        "mixed": ["plain", 7, ["a", "b\\"], [odd]],
        **{key: key for key in odd},
    }
    assert boolinv.cli._json(doc) == json.dumps(doc, indent=2)
    # the list path joins the strings first, and a non-string fails there as here
    with pytest.raises(TypeError):
        boolinv.cli._encode_str(1)


def _bindings() -> dict:
    """Every attribute of the boolinv modules and of the classes the tracer patches."""
    from boolinv.algebra import Anf, Term
    from boolinv.oracle import TruthTable

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "boolinv" or name.startswith("boolinv."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (Anf, Term, TruthTable):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_trace_hooks_see_every_layer(capsys):
    # the per-layer metrics read 0 if a traced name is renamed or bypassed
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert boolinv.cli.main is not before[("boolinv.cli", "main")]
        assert boolinv.cli.main(["goe", QUAD, "--format", "json"]) == 0
        size = json.loads(capsys.readouterr().out)["size"]
        assert boolinv.cli.main(["unique", UNIQUE_SYS]) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    metrics = tracing.layer_metrics(*tracer.take())
    assert size == 6
    assert metrics["maps.complement_points"] == size
    assert metrics["engine.leaf_calls"] > 0
    assert metrics["engine.implicants_s"] > 0
    assert metrics["algebra.anf_mul_calls"] == 0


@pytest.mark.parametrize("command", ["permpoly", "oracle"])
def test_dense_polynomial_is_refused_up_front(capsys, tmp_path, command):
    # 8192 nonzero terms over 2^13 points: 2^26 term evaluations, past the caps of
    # 2^24 (permpoly) and 2^20 (oracle)
    limit = {"permpoly": 24, "oracle": 20}[command]
    path = tmp_path / "dense13.txt"
    terms = " + ".join(f"X^{e}" for e in range(8191, 0, -1))
    path.write_text(f"field: n=13\npoly: {terms} + 1\n")
    started = time.perf_counter()
    code, out, err = run(capsys, command, path)
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: 8192 nonzero terms over 2^13 field points exceed "
        f"the limit of 2^{limit} term evaluations"
    ]


def test_oracle_refuses_a_dense_n11_polynomial_that_permpoly_answers(capsys, tmp_path):
    # 2048 nonzero terms over 2^11 points: 2^22 term evaluations, past the oracle's
    # cap of 2^20; its Horner sweep would take tens of seconds
    path = tmp_path / "dense11.txt"
    terms = " + ".join(f"X^{e}" for e in range(2047, 0, -1))
    path.write_text(f"field: n=11\npoly: {terms} + 1\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "oracle", path)
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: 2048 nonzero terms over 2^11 field points exceed "
        "the limit of 2^20 term evaluations"
    ]
    code, out, err = run(capsys, "permpoly", path)
    assert code in (0, 1)
    assert out in ("permutation: yes\n", "permutation: no\n")
    assert "error" not in err


def _decimal(n: int) -> str:
    """The decimal digits of ``n`` >= 0, 100 at a time, past the int-string limit."""
    chunks = []
    while n:
        n, r = divmod(n, 10**100)
        chunks.append(f"{r:0100d}")
    return "".join(reversed(chunks)).lstrip("0") or "0"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_counts_past_the_int_string_limit_print_exact_digits(capsys, tmp_path, fmt):
    n = 15000
    system = tmp_path / "wide_system.txt"
    system.write_text("vars: " + " ".join(f"v{i}" for i in range(n)) + "\n0 = v0 + 1\n")
    wide_map = tmp_path / "wide_map.txt"
    wide_map.write_text("vars: x0\n" + "".join(f"y{i} = x0\n" for i in range(n)))
    total = _decimal(2 ** (n - 1))  # v0 = 1 and every other variable free
    missing = _decimal(2**n - 2)  # the image is the all-0 and the all-1 word
    assert len(total) > 4300 and len(missing) > 4300
    code, out, err = run(capsys, "implicants", system, "--format", fmt)
    assert code == 0 and "error" not in err
    if fmt == "json":
        assert f'\n  "satisfying_total": {total},\n' in out
    else:
        assert out.startswith(f"implicants: 1\nassignments covered: {total}\n")
    code, out, err = run(capsys, "coi", wide_map, "--format", fmt)
    assert code == 0 and "error" not in err
    if fmt == "json":
        assert f'\n  "size": {missing},\n' in out
    else:
        assert out.startswith(f"missing outputs: {missing}\n")
