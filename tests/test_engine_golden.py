"""Golden check of the engine: the exact covers ``implicants`` builds.

A fixed-seed corpus of systems is solved at the bounds 12, 4, 2 and 1:
random sparse systems, systems of x_i + x_j = c equations, chains
x_i + x_(i-1) = 1 (pinned, free and unsatisfiable, in order and
shuffled), the graph and collision systems of maps with n <= 8, and
``compose_product`` runs.  Small bounds force Shannon split plans and
covers made of several leaf scans, which the final sort orders.  Each
group of covers is recorded as one SHA-256 over its terms, each written
``pos/neg`` in hex, in order, in ``fixtures/engine_golden.json``.  A
change that is meant to keep the covers must pass this test unchanged.
To regenerate the fixture after a deliberate change of the covers, run

    python tests/test_engine_golden.py --write

and list every group that changed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

import boolinv.engine
from boolinv.algebra import BoolSystem, ImplicantSet
from boolinv.collision import build_collision_system
from boolinv.engine import EngineConfig, compose_product, implicants
from boolinv.maps import BoolMap, build_graph_system

from conftest import chain_system, random_map_coords, random_system, xor_pair_system

GOLDEN = Path(__file__).parent / "fixtures" / "engine_golden.json"
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
    }


def _compose_cases() -> list[tuple[ImplicantSet, BoolSystem]]:
    """A seed cover, and a system sharing some of its variables."""
    rng = random.Random(1402)
    cases = []
    for _ in range(20):
        n = rng.randint(4, 12)
        seed = implicants(random_system(rng, n, rng.randint(1, 2), 3))
        cases.append((seed, random_system(rng, n + rng.randint(0, 4), rng.randint(1, 3), 3)))
    return cases


def covers():
    """Each group's name with its covers, in a fixed order."""
    systems = _systems()
    compose = _compose_cases()
    for bound in BOUNDS:
        cfg = EngineConfig(base_bound_m=bound)
        for kind, group in systems.items():
            yield f"{kind} bound={bound}", [implicants(s, cfg) for s in group]
        yield f"compose_product bound={bound}", [compose_product(a, b, cfg) for a, b in compose]


def _digest(group: list[ImplicantSet]) -> str:
    text = "\n".join(" ".join(f"{t.pos:x}/{t.neg:x}" for t in cover.terms) for cover in group)
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {name: _digest(group) for name, group in covers()}


def test_engine_covers_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got.keys() - expected.keys()) == [], "new groups: regenerate the fixture"
    assert sorted(expected.keys() - got.keys()) == [], "groups gone: regenerate the fixture"
    assert [name for name in expected if got[name] != expected[name]] == []


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
    for name, group in covers():  # a group's covers are built before it is yielded
        if sum(system_leaves) > len(group):  # so some cover took two leaves or more
            multi_leaf.add(name.split()[0])
        system_leaves.clear()
    assert sum(splits) > 0
    assert multi_leaf >= {"sparse", "xor_pairs", "graphs", "collisions"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_engine_golden.py --write")
    table = digests()
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} groups to {GOLDEN}")
