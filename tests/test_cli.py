"""End-to-end checks of the command-line front end."""

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import boolinv
import boolinv.cli
import boolinv.engine
import boolinv.maps
from boolinv.algebra import Assignment, MissingVariableError
from boolinv.cli import main
from boolinv.maps import BoolMap
from boolinv.oracle import brute_image
from boolinv.parsing import MapProblem, VarTable, format_problem, parse_file

from conftest import random_map_coords

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
    return Assignment.from_values({table.id(name): bit for name, bit in obj.items()})


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


def test_permpoly_honours_bound(capsys, monkeypatch, tmp_path):
    path = tmp_path / "f64.txt"
    seen = []
    leaf = boolinv.engine.impl_for_simple

    def spy(f, bound=boolinv.engine.DEFAULT_BOUND):
        seen.append(bound)
        return leaf(f, bound)

    monkeypatch.setattr(boolinv.engine, "impl_for_simple", spy)
    for poly, permutes in (("X^5", True), ("X^3 + X", False)):
        path.write_text(f"field: n=6\npoly: {poly}\n")
        code, doc = run_json(capsys, "permpoly", path)
        assert (code, doc["permutation"]) == (0 if permutes else 1, permutes)
        seen.clear()
        assert run_json(capsys, "permpoly", path, "--bound", "1") == (code, doc)
        assert seen and set(seen) == {1}


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
    got = {sum(int(ch) << j for j, ch in enumerate(p)) for p in doc["points"]}
    assert got == set(range(1 << 14)) - image
    assert doc["size"] == len(got)


def test_bound_beyond_cap_exits_2_at_once(capsys):
    for command, path in (("invert", SHIFT), ("permpoly", CUBE_F8), ("oracle", QUAD)):
        code, out, err = run(capsys, command, path, "--bound", "1000000")
        assert code == 2
        assert out == ""
        assert "at most 20" in err
    assert run(capsys, "invert", SHIFT, "--bound", "20")[0] == 0


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("engine inconsistency"),
        RecursionError("maximum recursion depth exceeded"),
        MissingVariableError(3),
        MemoryError(),
    ],
)
def test_internal_errors_exit_2(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(boolinv.maps, "implicants", broken)
    monkeypatch.setattr(boolinv.cli, "implicants", broken)
    for command in ("invert", "implicants"):
        code, out, err = run(capsys, command, SHIFT)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: internal: {type(exc).__name__}")


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
