"""Golden check of the command line: every subcommand's exact bytes.

Each case runs ``boolinv.cli.main`` in-process on one input file with
one format and one flag set, and records the SHA-256 of its exit code,
stdout and stderr (less the ``[boolinv] ... elapsed=`` timing line) in
``fixtures/cli_golden.json``.  The usage cases give argv that argparse
refuses or answers with help; they record the ``SystemExit`` code.  A change that is meant to keep the CLI
bytes must pass this test unchanged.  To regenerate the fixture after a
deliberate output change, run

    python tests/test_cli_golden.py --write

and list every case that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from boolinv.cli import _HANDLERS, main
from boolinv.maps import BoolMap
from boolinv.parsing import MapProblem, VarTable, format_problem

from conftest import random_map_coords

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"

#: (seed, n, m) of the generated maps, written with format_problem; the
#: 9x12 map leaves x3 unused and needs output words wider than 8 bits
MAPS = ((35, 3, 5), (55, 5, 5), (43, 4, 3), (57, 5, 7), (2, 9, 12))
FORMATS = ("text", "json")
FLAGS = ((), ("--bound", "2"), ("--max-enum", "8"))
#: argv refused by argparse, or answered with help; FILE is quad.txt
USAGE = (
    ("invert", "FILE", "--frobnicate"),
    ("invert", "FILE", "--format", "xml"),
    ("invert",),
    ("frobnicate", "FILE"),
    (),
    ("invert", "--help"),
)


def _write_maps(directory: Path) -> dict[str, Path]:
    out = {}
    for seed, n, m in MAPS:
        F = BoolMap.of(random_map_coords(random.Random(seed), n, m), n)
        names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{j + 1}" for j in range(m))
        path = directory / f"map_{n}x{m}_seed{seed}.txt"
        path.write_text(format_problem(MapProblem(F, VarTable(names, n))))
        out[path.name] = path
    return out


def _usage_bytes(text: str) -> str:
    # argparse quotes the choices it lists up to Python 3.12.7 and 3.13.0, not after
    return re.sub(r"\(choose from [^)]*\)", lambda m: m.group().replace("'", ""), text)


def _digest(argv: list[str], path: Path, label: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    kept = [
        line
        for line in err.getvalue().splitlines(keepends=True)
        if not (line.startswith("[boolinv] ") and " elapsed=" in line)
    ]
    record = [code, out.getvalue(), "".join(kept)]
    if isinstance(code, str):
        record[1:] = map(_usage_bytes, record[1:])
    # the checkout's location must not reach the digest
    text = json.dumps(record).replace(str(path), label)
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {p.name: p for p in sorted(FIXTURES.glob("*.txt"))}
        inputs.update(_write_maps(Path(tmp)))
        got = {}
        for command in _HANDLERS:
            for label, path in inputs.items():
                for fmt in FORMATS:
                    for flags in FLAGS:
                        argv = [command, str(path), "--format", fmt, *flags]
                        case = " ".join([command, label, "--format", fmt, *flags])
                        got[case] = _digest(argv, path, label)
        quad = inputs["quad.txt"]
        # help and usage lines wrap at the terminal's width, and Python 3.13
        # wraps a long usage line differently; at 120 columns none wraps
        with mock.patch.dict(os.environ, {"COLUMNS": "120"}):
            for argv in USAGE:
                case = " ".join(["usage:", *argv]).replace("FILE", "quad.txt")
                argv = [str(quad) if a == "FILE" else a for a in argv]
                got[case] = _digest(argv, quad, "quad.txt")
        return got


def test_cli_bytes_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got.keys() - expected.keys()) == [], "new cases: regenerate the fixture"
    assert sorted(expected.keys() - got.keys()) == [], "cases gone: regenerate the fixture"
    assert [case for case in expected if got[case] != expected[case]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    table = digests()
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
