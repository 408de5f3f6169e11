"""boolinv benchmark: CLI time-to-verdict on three workloads.

    python3 perfbench/run.py --workload maps-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout holding ``src/boolinv``.  The run

1. times ``import boolinv.cli`` in fresh interpreters (``setup_s``);
2. writes the workload's problem files for ``--seed`` and checks that
   each parses back to the generated problem;
3. runs the command list in a child process (``passes.py``): a warm-up
   pass, then timed passes for ``--seconds``;
4. checks every distinct answer against a reference computed here,
   never in the child, and checks that the checker catches a flipped
   verdict;
5. prints a readable report, then one JSON line with the end-to-end
   metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every reported time is scaled to the reference speed of the probe in
``speed.py``, which runs next to each timed interval; the report also
prints the raw times and the host speed of each pass.

Scratch files go to ``.perfbench_work/`` in the checkout.  NOTES.md
explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter imports timed before and again after the passes, for
#: setup_s; one more runs first, untimed, to write the bytecode cache.
SETUP_IMPORTS = 10
#: Each fresh interpreter runs the speed probe before and after the import,
#: so the import time is scaled by the speed of the CPU it ran on.
_IMPORT_PROBE = (
    "import speed, time; a = speed.probe(); t = time.perf_counter(); import boolinv.cli; "
    "t = time.perf_counter() - t; print(repr(speed.scaled(t, a, speed.probe())), repr(t))"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _child_env(*extra: Path) -> dict:
    env = dict(os.environ)
    paths = [str(SRC), *map(str, extra)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(scaled, raw) seconds of ``import boolinv.cli`` in ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=_child_env(HERE),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        scaled, raw = map(float, done.stdout.split())
        times.append((scaled, raw))
    return times


def write_cases(cases, work: Path) -> list[str]:
    """Write each case's file; returns the paths relative to ROOT."""
    paths = []
    for case in cases:
        path = work / f"{case.name}.txt"
        path.write_text(case.text, encoding="utf-8")
        paths.append(str(path.relative_to(ROOT)))
    return paths


def run_child(plan: dict, work: Path) -> dict:
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "passes.py"), str(plan_path)],
        env=_child_env(),
        cwd=ROOT,
        timeout=160,
        check=True,
    )
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "boolinv" / "cli.py").is_file():
        print(f"perfbench: no boolinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    measure_setup(1)
    setup = measure_setup(SETUP_IMPORTS)
    cases = workloads.generate(args.workload, args.seed)
    paths = write_cases(cases, work)

    slots = [(case, cmd) for case in cases for cmd in case.commands]
    commands = [
        [cmd, path, "--format", "json"]
        for case, path in zip(cases, paths)
        for cmd in case.commands
    ]
    plan = {
        "commands": commands,
        "seconds": args.seconds,
        "trace": args.trace,
        "outputs": str(work / "outputs.jsonl"),
        "result": str(work / "result.json"),
        "spans": str(work / "spans.jsonl"),
    }
    # This process stays free of boolinv until the child has run: on Linux a
    # child's ru_maxrss starts from its parent's high-water mark at exec.
    result = run_child(plan, work)
    setup += measure_setup(SETUP_IMPORTS)

    from reference import Reference, check, flipped, roundtrip_errors
    from tracing import COUNTERS, LAYER_METRICS, REPORT_ONLY

    # -- correctness ---------------------------------------------------------
    problems = roundtrip_errors(cases)
    refs = {id(case): Reference(case) for case in cases}
    verdict: dict[tuple[int, str], str | None] = {}
    flip_tested: set[str] = set()
    with open(plan["outputs"], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            case, cmd = slots[rec["i"]]
            ref = refs[id(case)]
            text = rec["stdout"]
            bad = check(ref, cmd, rec["rc"], text)
            verdict[(rec["i"], rec["digest"])] = bad
            if bad is None and cmd not in flip_tested:
                flip_tested.add(cmd)
                if check(ref, cmd, rec["rc"], flipped(cmd, text)) is None:
                    problems.append(f"checker self-test: flipped {cmd} answer passed")

    failures: Counter[str] = Counter()

    def failed(k: int, c: list) -> bool:
        _, rc, digest, error, _ = c
        why = error or verdict.get((k, digest), "output never checked")
        if why:
            case, cmd = slots[k]
            failures[f"{case.name} {cmd}: {why}"] += 1
        return bool(why)

    for k, c in enumerate(result["warmup"]["cmds"]):
        failed(k, c)
    untraced = [p for p in result["passes"] if not p["traced"]]
    attempted = failed_count = 0
    for p in result["passes"]:
        for k, c in enumerate(p["cmds"]):
            attempted += 1
            failed_count += failed(k, c)

    layers = result["layers"]
    counters = [tuple(layer[name] for name in COUNTERS) for layer in layers]
    if len(set(counters)) > 1:
        problems.append("traced passes disagree on a counter")

    # -- metrics ---------------------------------------------------------------
    times_ms = [c[0] * 1000 for p in untraced for c in p["cmds"]]
    walls = [p["wall_s"] for p in untraced]
    raw_walls = [p["raw_wall_s"] for p in untraced]
    e2e = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": statistics.median(times_ms),
        "cmd_p90_ms": statistics.quantiles(times_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh imports",
        "wall_s": f"median of {len(walls)} passes of {len(commands)} commands",
        "cmd_p50_ms": f"{len(times_ms)} command runs",
        "cmd_p90_ms": f"{len(times_ms)} command runs",
        "peak_rss_mb": "ru_maxrss of the pass process",
    }
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={sys.version.split()[0]} nproc={os.cpu_count()} "
        f"cases={len(cases)} commands/pass={len(commands)}"
    )
    print("  times below are scaled to the speed probe's reference speed (speed.py)")
    for name, unit in END_TO_END:
        print(f"  {name:<13} {e2e[name]:>12.4f} {unit:<5} ({samples[name]})")
    print(
        f"  raw, unscaled: setup_s {statistics.median(r for _, r in setup):.4f} s, "
        f"wall_s {statistics.median(raw_walls):.4f} s; host speed per untraced pass "
        + " ".join(f"{w / r:.2f}" for w, r in zip(walls, raw_walls))
    )
    share = failed_count / attempted if attempted else 1.0
    print(f"  {'failed_share':<13} {share:>12.4f}       ({failed_count} of {attempted} timed commands)")

    if args.trace:
        ps = result["passes"]
        overhead = statistics.median(
            t["wall_s"] / u["wall_s"] for u, t in zip(ps[::2], ps[1::2])
        )
        # Layer times are scaled by their traced pass's host speed, like the
        # command times; counts and ratios stay as counted.
        speeds = [p["wall_s"] / p["raw_wall_s"] for p in ps if p["traced"]]
        per_layer = {
            name: statistics.median(
                layer[name] * (s if unit == "s" else 1) for layer, s in zip(layers, speeds)
            )
            for name, unit in LAYER_METRICS
        }
        per_layer["trace.overhead"] = overhead
        units = dict(LAYER_METRICS) | {"trace.overhead": "ratio"}
        print(f"  traced passes: {len(layers)}, counters repeat: {len(set(counters)) == 1}")
        for name, value in per_layer.items():
            note = "  (report only)" if name in REPORT_ONLY else ""
            print(f"  {name:<28} {value:>14.6f} {units[name]}{note}")
        metrics = {
            name: {"value": v, "unit": units[name]}
            for name, v in per_layer.items()
            if name not in REPORT_ONLY
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    for line, times in failures.most_common(50):
        print(f"  FAILED x{times} {line}")
    for line in problems:
        print(f"  PROBLEM {line}")
    correct = not failures and not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed_count, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
