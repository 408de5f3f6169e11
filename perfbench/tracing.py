"""Spans around the calls into each boolinv module, installed from outside.

Nothing in the library changes: the tracer replaces public functions by
wrappers at every place they are looked up (a function imported with
``from .maps import goe`` is rebound in ``boolinv.cli`` as well as in
``boolinv.maps``), and hot methods as class attributes.

Two kinds of wrapper:

* a span records ``[name, start, end, parent, hot, attrs]`` for calls
  that happen at most thousands of times per command;
* a hot wrapper (``Anf.ratio``, ``Anf.__mul__``, ``Term.sort_key``, the
  ``format_*`` functions) only adds its count and time to the innermost
  open span, because a chain command makes 10^5 cofactor calls.

A span's self time is its duration minus its child spans and the timed
hot calls made directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from boolinv.algebra import Anf, Term
from boolinv.oracle import TruthTable

# (module, function, span name, observer of (args, result) or None)
_SPANS = (
    ("boolinv.cli", "main", "cli.main", None),
    ("boolinv.parsing", "parse_file", "parsing.parse", None),
    ("boolinv.maps", "build_graph_system", "maps.build", None),
    ("boolinv.maps", "graph_implicants", "maps.entry", None),
    ("boolinv.maps", "is_invertible_square", "maps.entry", None),
    ("boolinv.maps", "is_one_to_one_general", "maps.entry", None),
    ("boolinv.maps", "goe", "maps.entry", lambda a, r: {"points": r.size}),
    ("boolinv.maps", "coi", "maps.entry", lambda a, r: {"points": r.size}),
    ("boolinv.maps", "unique_solution", "maps.entry", None),
    ("boolinv.collision", "build_collision_system", "collision.build", None),
    ("boolinv.collision", "collision_implicants", "collision.entry", None),
    ("boolinv.collision", "diagonal_set", "collision.entry", None),
    ("boolinv.collision", "is_one_to_one_diagonal", "collision.entry", None),
    ("boolinv.engine", "implicants", "engine.implicants", lambda a, r: {"terms": len(r)}),
    ("boolinv.engine", "compose_product", "engine.implicants", lambda a, r: {"terms": len(r)}),
    (
        "boolinv.engine",
        "impl_for_simple",
        "engine.leaf",
        lambda a, r: {"support": a[0].support.bit_count()},
    ),
    (
        "boolinv.engine",
        "select_disjoint_clusters",
        "engine.plan",
        lambda a, r: {
            "split": r.split_var is not None,
            "packed": 0 if r.split_var is not None else len(r.disjoint_factors),
        },
    ),
    ("boolinv.gf2n", "coordinate_functions", "gf2n.coords", None),
    ("boolinv.gf2n", "is_permutation_polynomial", "gf2n.entry", None),
)

_CLASS_SPANS = ((TruthTable, "to_anf", "gf2n.moebius"),)

# (owner class or module name, attribute, hot name, timed)
_HOT = (
    (Anf, "ratio", "algebra.cofactor", True),
    (Anf, "__mul__", "algebra.anf_mul", True),
    (Term, "sort_key", "algebra.sort_key", False),
    ("boolinv.parsing", "format_term", "parsing.format", True),
    ("boolinv.parsing", "format_anf", "parsing.format", True),
    ("boolinv.parsing", "format_assignment", "parsing.format", True),
    ("boolinv.parsing", "format_poly", "parsing.format", True),
)

NAME, START, END, PARENT, HOT, ATTRS = range(6)


class Tracer:
    """In-memory span store; ``install`` and ``uninstall`` patch boolinv."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.root_hot: dict = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if observe is not None:
                rec[ATTRS] = observe(args, result)
            return result

        return wrapper

    def _bucket(self) -> dict:
        if not self.stack:
            return self.root_hot
        rec = self.spans[self.stack[-1]]
        if rec[HOT] is None:
            rec[HOT] = {}
        return rec[HOT]

    def _hot(self, name, fn, timed):
        bucket = self._bucket
        zero_counting = name == "algebra.cofactor"

        if not timed:

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                entry = bucket().setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            entry = bucket().setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += dt
            if zero_counting and not result.monomials:
                entry[2] += 1
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Point every boolinv module attribute bound to ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "boolinv" or modname.startswith("boolinv.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, replacement)

    def _rebind_class(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        for modname, attr, name, observe in _SPANS:
            original = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(original, self._span(name, original, observe))
        for cls, attr, name in _CLASS_SPANS:
            self._rebind_class(cls, attr, self._span(name, cls.__dict__[attr], None))
        for owner, attr, name, timed in _HOT:
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
                self._rebind_everywhere(original, self._hot(name, original, timed))
            else:
                self._rebind_class(owner, attr, self._hot(name, owner.__dict__[attr], timed))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def take(self) -> tuple[list[list], dict]:
        """Hand over the spans recorded so far and start a fresh store.

        Between passes no span is open, unless a command was stopped by
        its time limit between a wrapper's push and its ``try``.
        """
        spans = list(self.spans)
        self.spans.clear()  # the wrappers hold these list objects
        self.stack.clear()
        root, self.root_hot = self.root_hot, {}
        return spans, root


# ------------------------------------------------------------------ metrics

#: Per-layer metrics in report order; BENCHMARK.json lists those not in REPORT_ONLY.
LAYER_METRICS = (
    ("engine.leaf_s", "s"),
    ("engine.leaf_calls", "count"),
    ("engine.leaf_points", "count"),
    ("engine.leaf_max_support", "count"),
    ("engine.implicants_s", "s"),
    ("engine.self_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.plan_calls", "count"),
    ("engine.split_plans", "count"),
    ("engine.packed_factors", "count"),
    ("engine.cover_terms", "count"),
    ("engine.sort_key_calls", "count"),
    ("algebra.cofactor_s", "s"),
    ("algebra.cofactor_calls", "count"),
    ("algebra.cofactor_zero_share", "ratio"),
    ("algebra.anf_mul_s", "s"),
    ("algebra.anf_mul_calls", "count"),
    ("maps.build_s", "s"),
    ("maps.post_s", "s"),
    ("maps.complement_points", "count"),
    ("collision.build_s", "s"),
    ("collision.post_s", "s"),
    ("gf2n.coords_s", "s"),
    ("gf2n.moebius_s", "s"),
    ("parsing.parse_s", "s"),
    ("parsing.format_s", "s"),
    ("parsing.format_calls", "count"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
)

#: Times of layers that only some workloads call: maps.build is idle on
#: systems-chain, collision on two workloads and gf2n on two.  They are
#: printed in the report but left out of the result line, where a time
#: that reads 0 on every run of a workload would look like a constant.
REPORT_ONLY = frozenset(
    {"maps.build_s", "collision.build_s", "collision.post_s", "gf2n.coords_s", "gf2n.moebius_s"}
)

#: Counters that must repeat exactly between two traced passes of one seed.
COUNTERS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


def layer_metrics(spans: list[list], root_hot: dict) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    dur: dict[str, float] = {}
    self_: dict[str, float] = {}
    calls: dict[str, int] = {}
    hot: dict[str, list] = {}
    engine_sort_keys = 0

    def add_hot(bucket: dict) -> float:
        """Fold one span's hot calls into the totals; returns their time."""
        spent = 0.0
        for hname, (count, t, zeros) in bucket.items():
            h = hot.setdefault(hname, [0, 0.0, 0])
            h[0] += count
            h[1] += t
            h[2] += zeros
            spent += t
        return spent

    out = {name: 0 for name, _ in LAYER_METRICS}
    leaf_points = leaf_max = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        d = rec[END] - rec[START]
        bucket = rec[HOT] or {}
        if name.startswith("engine."):
            engine_sort_keys += bucket.get("algebra.sort_key", (0,))[0]
        dur[name] = dur.get(name, 0.0) + d
        self_[name] = self_.get(name, 0.0) + d - child[i] - add_hot(bucket)
        calls[name] = calls.get(name, 0) + 1
        attrs = rec[ATTRS] or {}
        if name == "engine.leaf":
            k = attrs["support"]
            leaf_points += 1 << k
            leaf_max = max(leaf_max, k)
        elif name == "engine.plan":
            out["engine.split_plans"] += attrs["split"]
            out["engine.packed_factors"] += attrs["packed"]
        elif name == "engine.implicants":
            out["engine.cover_terms"] += attrs["terms"]
        elif name == "maps.entry":
            out["maps.complement_points"] += attrs.get("points", 0)
    add_hot(root_hot)
    cof = hot.get("algebra.cofactor", [0, 0.0, 0])
    mul = hot.get("algebra.anf_mul", [0, 0.0, 0])
    fmt = hot.get("parsing.format", [0, 0.0, 0])
    out.update(
        {
            "engine.leaf_s": dur.get("engine.leaf", 0.0),
            "engine.leaf_calls": calls.get("engine.leaf", 0),
            "engine.leaf_points": leaf_points,
            "engine.leaf_max_support": leaf_max,
            "engine.implicants_s": dur.get("engine.implicants", 0.0),
            "engine.self_s": self_.get("engine.implicants", 0.0),
            "engine.plan_s": dur.get("engine.plan", 0.0),
            "engine.plan_calls": calls.get("engine.plan", 0),
            "engine.sort_key_calls": engine_sort_keys,
            "algebra.cofactor_s": cof[1],
            "algebra.cofactor_calls": cof[0],
            "algebra.cofactor_zero_share": cof[2] / cof[0] if cof[0] else 0.0,
            "algebra.anf_mul_s": mul[1],
            "algebra.anf_mul_calls": mul[0],
            "maps.build_s": dur.get("maps.build", 0.0),
            "maps.post_s": self_.get("maps.entry", 0.0),
            "collision.build_s": dur.get("collision.build", 0.0),
            "collision.post_s": self_.get("collision.entry", 0.0),
            "gf2n.coords_s": self_.get("gf2n.coords", 0.0),
            "gf2n.moebius_s": dur.get("gf2n.moebius", 0.0),
            "parsing.parse_s": dur.get("parsing.parse", 0.0),
            "parsing.format_s": fmt[1],
            "parsing.format_calls": fmt[0],
            "cli.main_s": dur.get("cli.main", 0.0),
            "cli.self_s": self_.get("cli.main", 0.0),
        }
    )
    return out


def write_spans(path: str, passes: list[tuple[list[list], dict]]) -> None:
    """One JSON line per span: pass, name, start, end, parent, hot, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, (spans, root_hot) in enumerate(passes):
            fh.write(json.dumps({"pass": k, "root_hot": root_hot}) + "\n")
            for rec in spans:
                fh.write(json.dumps([k, *rec]) + "\n")
