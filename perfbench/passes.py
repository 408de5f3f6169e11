"""Child process: run one workload's command list in passes, in-process.

Usage: ``python3 perfbench/passes.py PLAN.json`` with ``src`` on
``PYTHONPATH``.  Each command is one ``boolinv.cli.main([...])`` call
with stdout and stderr captured; its wall time, exit status and a digest
of its stdout are recorded.  The speed probe (``speed.py``) runs between
commands, and each command's time is also kept scaled to the probe's
reference speed, from the probes on either side of it.  The first stdout seen for each digest is
appended to the plan's ``outputs`` file for the parent to check, so
reference answers and kept outputs never weigh on this process's peak
RSS.  No threads, no further processes.

A warm-up pass comes first and is not timed.  Timed passes follow while
another pass, as long as the last one, still ends within ``seconds``
(at least two).  With ``trace`` set, untraced and traced passes
alternate in pairs (at least two pairs), so the tracing overhead is a
ratio of neighbouring passes, which share the host's speed of the moment.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time

import boolinv.cli
import speed

#: A command running longer than this is stopped and counted as failed.
COMMAND_LIMIT_S = 30.0
#: No command starts later than this after the child starts.
RUN_DEADLINE_S = 120.0


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout(f"over the {COMMAND_LIMIT_S:.0f} s command limit")


class Runner:
    def __init__(self, commands: list[list[str]], outputs):
        self.commands = commands
        self.outputs = outputs
        self.seen: set[tuple[int, str]] = set()
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def run_command(self, i: int) -> list:
        """[seconds, exit status or None, digest of status and stdout, error or None]."""
        budget = min(COMMAND_LIMIT_S, self.deadline - time.perf_counter())
        if budget <= 0:
            return [0.0, None, "", "not started: run deadline passed"]
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = boolinv.cli.main(self.commands[i])
        except CommandTimeout as exc:
            error = str(exc)
        except Exception as exc:  # an escaped exception is a failed command
            error = f"escaped {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        text = out.getvalue()
        if rc == 2 and error is None:
            error = "exit 2: " + err.getvalue().strip()[:200]
        digest = hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()[:20]
        if (i, digest) not in self.seen:
            self.seen.add((i, digest))
            rec = {"i": i, "digest": digest, "rc": rc, "stdout": text}
            self.outputs.write(json.dumps(rec) + "\n")
        return [elapsed, rc, digest, error]

    def run_pass(self, traced: bool) -> dict:
        """Each command's entry gains its raw seconds; its first item becomes scaled seconds."""
        started = time.perf_counter()
        probes = [speed.probe()]
        cmds = []
        for i in range(len(self.commands)):
            cmds.append(self.run_command(i))
            probes.append(speed.probe())
        for c, before, after in zip(cmds, probes, probes[1:]):
            c.append(c[0])
            c[0] = speed.scaled(c[0], before, after)
        gc.collect()
        return {
            "traced": traced,
            "wall_s": sum(c[0] for c in cmds),
            "raw_wall_s": sum(c[4] for c in cmds),
            "elapsed_s": time.perf_counter() - started,
            "cmds": cmds,
        }


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(plan["outputs"], "w", encoding="utf-8") as outputs:
        result = run_passes(Runner(plan["commands"], outputs), plan)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_passes(runner: Runner, plan: dict) -> dict:
    seconds, trace = plan["seconds"], plan["trace"]
    result: dict = {"warmup": runner.run_pass(False), "passes": [], "layers": []}
    passes = result["passes"]
    tracer = None
    kept: list = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
    # untraced passes, or (untraced, traced) pairs when tracing
    group = 2 if trace else 1
    started = time.perf_counter()
    while len(passes) < 2 * group or (
        time.perf_counter() - started + sum(p["elapsed_s"] for p in passes[-group:]) <= seconds
    ):
        passes.append(runner.run_pass(False))
        if tracer is not None:
            tracer.install()
            passes.append(runner.run_pass(True))
            tracer.uninstall()
            spans, root_hot = tracer.take()
            result["layers"].append(tracing.layer_metrics(spans, root_hot))
            kept.append((spans, root_hot))
    if tracer is not None:
        tracing.write_spans(plan["spans"], kept)
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
