"""End-to-end checks of the command-line front end."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import boolinv.cli
import boolinv.maps
from boolinv.algebra import Assignment, MissingVariableError
from boolinv.cli import main
from boolinv.parsing import parse_file

FIXTURES = Path(__file__).parent / "fixtures"

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
    assert doc["system"]


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
    )
    assert proc.returncode == 1
