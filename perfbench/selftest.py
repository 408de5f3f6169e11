"""Self-tests of the benchmark's generator, writer, checker and tracer.

    python3 perfbench/selftest.py            # generator, writer, checker
    python3 perfbench/selftest.py --counters # also: traced counters repeat

Run from the root of a checkout holding ``src/boolinv``.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import boolinv.cli  # noqa: E402
from boolinv.algebra import Anf, mask_of  # noqa: E402
from boolinv.maps import BoolMap  # noqa: E402
from boolinv.parsing import MapProblem, ParseError, VarTable, format_problem, parse_text  # noqa: E402

import workloads  # noqa: E402
from reference import Reference, check, flipped, roundtrip_errors  # noqa: E402
from tracing import COUNTERS  # noqa: E402


def _fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def test_generator_is_seeded() -> None:
    for w in workloads.WORKLOADS:
        a = [c.text for c in workloads.generate(w, 5)]
        if a != [c.text for c in workloads.generate(w, 5)]:
            _fail(f"{w}: seed 5 gave different files on two calls")
        if a == [c.text for c in workloads.generate(w, 6)]:
            _fail(f"{w}: seeds 5 and 6 gave the same files")
        commands = sum(len(c.commands) for c in workloads.generate(w, 5))
        if commands < 100:
            _fail(f"{w}: a pass holds {commands} commands, fewer than 100")
    print("ok generator: same seed, same bytes; >= 100 commands per pass")


def test_roundtrip() -> None:
    for w in workloads.WORKLOADS:
        for seed in (1, 2):
            bad = roundtrip_errors(workloads.generate(w, seed))
            if bad:
                _fail(f"{w} seed {seed}: {bad[0]}")
    print("ok writer: every generated file parses back to the generated problem")


def library_zero_defect_present() -> bool:
    """Whether format_problem still writes a zero coordinate that parse_text rejects."""
    uni = mask_of(range(2))
    F = BoolMap.of([Anf.variable(0, uni), Anf.zero(uni)], 2)
    text = format_problem(MapProblem(F, VarTable(("a", "b", "y1", "y2"), 2)))
    try:
        parse_text(text)
    except ParseError:
        return True
    return False


def _answer(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = boolinv.cli.main(argv)
    return rc, out.getvalue()


def _tampered_witness(text: str) -> str | None:
    doc = json.loads(text)
    if not doc.get("witness"):
        return None
    doc["witness"][1] = doc["witness"][0]
    return json.dumps(doc)


def test_checker(tmp: Path) -> None:
    """Real answers pass; flipped verdicts, equal witness pairs and exit 2 do not."""
    caught = 0
    for w in workloads.WORKLOADS:
        cases = workloads.generate(w, 3)
        sample = cases[:: max(1, len(cases) // 12)]
        for case in sample:
            if case.kind == "poly" and case.field_n > 6:
                continue  # keep the self-test quick
            path = tmp / f"{case.name}.txt"
            path.write_text(case.text, encoding="utf-8")
            ref = Reference(case)
            for cmd in case.commands:
                rc, text = _answer([cmd, str(path), "--format", "json"])
                why = check(ref, cmd, rc, text)
                if why is not None:
                    _fail(f"{w} {case.name} {cmd}: true answer rejected: {why}")
                if check(ref, cmd, rc, flipped(cmd, text)) is None:
                    _fail(f"{w} {case.name} {cmd}: flipped verdict accepted")
                bad_witness = _tampered_witness(text)
                if bad_witness and check(ref, cmd, rc, bad_witness) is None:
                    _fail(f"{w} {case.name} {cmd}: damaged witness accepted")
                if check(ref, cmd, 2, text) is None:
                    _fail(f"{w} {case.name} {cmd}: exit 2 accepted")
                caught += 1
    print(f"ok checker: {caught} true answers pass, each flipped verdict is caught")


def _traced_counters(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        _fail(f"{workload}: traced run not correct:\n{done.stdout[-2000:]}")
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def test_counters_repeat() -> None:
    for w in workloads.WORKLOADS:
        a, b = _traced_counters(w, 7), _traced_counters(w, 7)
        if a != b:
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            _fail(f"{w}: counters differ between two traced runs: {diff}")
    print("ok tracer: two traced runs of one seed give identical counters")


def main() -> int:
    tmp = ROOT / ".perfbench_work" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    test_generator_is_seeded()
    test_roundtrip()
    test_checker(tmp)
    if "--counters" in sys.argv[1:]:
        test_counters_repeat()
    print(
        "note: format_problem still writes a zero coordinate as '0', which "
        f"parse_text rejects: {'yes' if library_zero_defect_present() else 'no (fixed)'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
