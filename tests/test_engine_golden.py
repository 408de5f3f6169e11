"""Golden check of the engine: the exact covers ``implicants`` builds.

A fixed-seed corpus of systems is solved at the bounds 12, 4, 2 and 1:
random sparse systems, systems of x_i + x_j = c equations, chains
x_i + x_(i-1) = 1 (pinned, free and unsatisfiable, in order and
shuffled), the graph and collision systems of maps with n <= 8,
``compose_product`` runs, and two step shapes: factors that share no
variable, so a step packs them all and has no residual, and factors
that all share one variable, so a step packs one.  Small bounds force
Shannon split plans and covers made of several leaf scans, which the
final sort orders.  Each group of covers is recorded as one SHA-256 over
its terms, each written ``pos/neg`` in hex, in order, in
``fixtures/engine_golden.json``.  The work each group takes, its calls
of the planner, of the leaf and of ``Anf.ratio``, is recorded in
``fixtures/engine_calls.json``.  A change that is meant to keep the
covers, or the work, must pass these tests unchanged.  To regenerate
both fixtures after a deliberate change, run

    python tests/test_engine_golden.py --write

and list every group that changed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

import boolinv.engine
from boolinv.algebra import Anf, BoolSystem, ImplicantSet, mask_of
from boolinv.collision import build_collision_system
from boolinv.engine import EngineConfig, compose_product, implicants
from boolinv.maps import BoolMap, build_graph_system

from conftest import chain_system, random_anf, random_map_coords, random_system, xor_pair_system

GOLDEN = Path(__file__).parent / "fixtures" / "engine_golden.json"
CALLS = Path(__file__).parent / "fixtures" / "engine_calls.json"
BOUNDS = (12, 4, 2, 1)


def _systems() -> dict[str, list[BoolSystem]]:
    rng = random.Random(1401)
    sparse = []
    for _ in range(40):
        n = rng.randint(4, 16)
        sparse.append(random_system(rng, n, rng.randint(2, n // 2 + 2), rng.choice((2, 3, 4))))
    xor_pairs = [xor_pair_system(rng, rng.randint(4, 16)) for _ in range(40)]
    chains = [
        chain_system(n, variant, shuffle_seed)
        for n in (5, 12, 17, 30)
        for variant in ("pinned", "free", "unsat")
        for shuffle_seed in (None, n)
    ]
    maps = []
    for _ in range(24):
        n = rng.randint(1, 8)
        maps.append(BoolMap.of(random_map_coords(rng, n, rng.randint(n, n + 2)), n))
    return {
        "sparse": sparse,
        "xor_pairs": xor_pairs,
        "chains": chains,
        "graphs": [build_graph_system(F) for F in maps],
        "collisions": [build_collision_system(F) for F in maps],
        "step_shapes": _step_shapes(),
    }


def _factor(rng: random.Random, variables: list[int], uni: int) -> Anf:
    """A random nonconstant factor using ``variables[0]``, over the universe ``uni``."""
    f = random_anf(rng, variables)
    if not f.support & (1 << variables[0]):
        f ^= Anf.variable(variables[0], mask_of(variables))
    return f.with_universe(uni)


def _step_shapes() -> list[BoolSystem]:
    """Systems wider than the bound 12 whose steps pack every factor, or one.

    In the first kind the factors use disjoint blocks of variables, so a
    step that packs them all leaves no residual.  In the second every
    factor uses the hub variable 0, so a step packs one factor.
    """
    rng = random.Random(1403)
    shapes = []
    for _ in range(12):
        n = rng.randint(14, 28)
        variables = rng.sample(range(n), n)
        blocks = []
        while variables:
            size = rng.randint(1, 4)
            blocks.append(variables[:size])
            del variables[:size]
        uni = mask_of(range(n))
        shapes.append(BoolSystem(tuple(_factor(rng, b, uni) for b in blocks), uni))
        spokes = [
            [0, *rng.sample(range(1, n), rng.randint(2, 4))] for _ in range(rng.randint(8, 12))
        ]
        shapes.append(BoolSystem(tuple(_factor(rng, s, uni) for s in spokes), uni))
    return shapes


def _compose_cases() -> list[tuple[ImplicantSet, BoolSystem]]:
    """A seed cover, and a system sharing some of its variables."""
    rng = random.Random(1402)
    cases = []
    for _ in range(20):
        n = rng.randint(4, 12)
        seed = implicants(random_system(rng, n, rng.randint(1, 2), 3))
        cases.append((seed, random_system(rng, n + rng.randint(0, 4), rng.randint(1, 3), 3)))
    return cases


def corpus() -> tuple[dict[str, list[BoolSystem]], list[tuple[ImplicantSet, BoolSystem]]]:
    """The systems by group, and the ``compose_product`` cases."""
    return _systems(), _compose_cases()


def covers(systems, compose):
    """Each group's name with its covers, in a fixed order."""
    for bound in BOUNDS:
        cfg = EngineConfig(base_bound_m=bound)
        for kind, group in systems.items():
            yield f"{kind} bound={bound}", [implicants(s, cfg) for s in group]
        yield f"compose_product bound={bound}", [compose_product(a, b, cfg) for a, b in compose]


def _digest(group: list[ImplicantSet]) -> str:
    text = "\n".join(" ".join(f"{t.pos:x}/{t.neg:x}" for t in cover.terms) for cover in group)
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {name: _digest(group) for name, group in covers(*corpus())}


@contextmanager
def _counting(counts: Counter):
    """Count calls of the planner, the leaf and ``Anf.ratio`` into ``counts``."""
    engine = boolinv.engine
    saved = engine.select_disjoint_clusters, engine.impl_for_simple, Anf.ratio

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    engine.select_disjoint_clusters = counted("plans", saved[0])
    engine.impl_for_simple = counted("leaves", saved[1])
    Anf.ratio = counted("ratios", saved[2])
    try:
        yield
    finally:
        engine.select_disjoint_clusters, engine.impl_for_simple, Anf.ratio = saved


def call_counts() -> dict[str, dict[str, int]]:
    """Each group's calls of the planner, the leaf and ``Anf.ratio``."""
    systems, compose = corpus()
    counts: Counter = Counter()
    table = {}
    with _counting(counts):
        for name, _ in covers(systems, compose):  # a group's covers are built before it is yielded
            table[name] = {key: counts[key] for key in ("plans", "leaves", "ratios")}
            counts.clear()
    return table


def test_engine_covers_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got.keys() - expected.keys()) == [], "new groups: regenerate the fixture"
    assert sorted(expected.keys() - got.keys()) == [], "groups gone: regenerate the fixture"
    assert [name for name in expected if got[name] != expected[name]] == []


def test_engine_work_matches_golden():
    expected = json.loads(CALLS.read_text())
    got = call_counts()
    changed = expected.keys() | got.keys()
    assert sorted(name for name in changed if got.get(name) != expected.get(name)) == []


def test_step_shapes_pack_every_factor_or_one(monkeypatch):
    plan = boolinv.engine.select_disjoint_clusters
    shapes = []

    def recording_plan(sys, cfg):
        out = plan(sys, cfg)
        shapes.append((len(out.disjoint_factors), len(out.residual)))
        return out

    monkeypatch.setattr(boolinv.engine, "select_disjoint_clusters", recording_plan)
    cfg = EngineConfig()
    for sys in _step_shapes():
        implicants(sys, cfg)
    assert any(packed > 1 and not residual for packed, residual in shapes)
    assert any(packed == 1 and residual for packed, residual in shapes)


def test_a_step_without_residual_solves_only_its_packed_factors(monkeypatch):
    leaf = boolinv.engine.impl_for_simple
    solved = []

    def recording_leaf(f, bound=boolinv.engine.DEFAULT_BOUND):
        solved.append(f)
        return leaf(f, bound)

    monkeypatch.setattr(boolinv.engine, "impl_for_simple", recording_leaf)
    cfg = EngineConfig()
    for sys in _step_shapes()[::2]:  # the disjoint-block systems
        solved.clear()
        cover = implicants(sys, cfg)
        # one leaf per packed factor; each cross term is a cover term, with no leaf
        assert Counter(solved) == Counter(sys.factors)
        assert len(cover) > len(sys.factors)


def test_corpus_makes_split_plans_and_multi_leaf_covers(monkeypatch):
    plan, leaf = boolinv.engine.select_disjoint_clusters, boolinv.engine.impl_for_simple
    splits, system_leaves = [], []

    def counting_plan(sys, cfg):
        out = plan(sys, cfg)
        splits.append(out.split_var is not None)
        return out

    def counting_leaf(f, bound=boolinv.engine.DEFAULT_BOUND):
        system_leaves.append(isinstance(f, BoolSystem))  # a leaf, not a packed factor
        return leaf(f, bound)

    monkeypatch.setattr(boolinv.engine, "select_disjoint_clusters", counting_plan)
    monkeypatch.setattr(boolinv.engine, "impl_for_simple", counting_leaf)
    multi_leaf = set()
    for name, group in covers(*corpus()):  # a group's covers are built before it is yielded
        if sum(system_leaves) > len(group):  # so some cover took two leaves or more
            multi_leaf.add(name.split()[0])
        system_leaves.clear()
    assert sum(splits) > 0
    assert multi_leaf >= {"sparse", "xor_pairs", "graphs", "collisions"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_engine_golden.py --write")
    for path, table in ((GOLDEN, digests()), (CALLS, call_counts())):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} groups to {path}")
