"""Reference answers computed without the implicant engine, and the checker.

Maps (and ``diag``) are checked against ``oracle.brute_injective`` and
``oracle.brute_image``, with every witness pair re-evaluated through
``BoolMap.evaluate``.  Chains are checked against their answer by
construction, with any returned assignment put through
``BoolSystem.satisfied_by``.  ``permpoly`` is checked by evaluating the
polynomial at every field point with the benchmark's own arithmetic.
"""

from __future__ import annotations

import json
from functools import cached_property

from boolinv.algebra import Anf, Assignment, BoolSystem, mask_of
from boolinv.maps import BoolMap
from boolinv.oracle import brute_image, brute_injective
from boolinv.parsing import MapProblem, PolyProblem, SystemProblem, parse_text

from workloads import Case, field_mul, field_power


def build_map(case: Case) -> BoolMap:
    x_mask = mask_of(range(len(case.inputs)))
    return BoolMap.of([Anf(f, x_mask) for f in case.polys], len(case.inputs))


def build_system(case: Case) -> BoolSystem:
    uni = mask_of(range(len(case.inputs)))
    one = Anf.one(uni)
    return BoolSystem(tuple(Anf(f, uni) ^ one for f in case.polys), uni)


def roundtrip_errors(cases) -> list[str]:
    """Cases whose file does not parse back to the generated problem."""
    bad = []
    for case in cases:
        try:
            p = parse_text(case.text)
        except ValueError as exc:
            bad.append(f"{case.name}: {exc}")
            continue
        if case.kind == "map":
            ok = isinstance(p, MapProblem) and p.map == build_map(case) and (
                p.table.names == case.inputs + case.outputs
            )
        elif case.kind == "system":
            ok = isinstance(p, SystemProblem) and p.system == build_system(case) and (
                p.table.names == case.inputs
            )
        else:
            want = dict(case.coeffs)
            ok = (
                isinstance(p, PolyProblem)
                and (p.spec.n, p.spec.modulus) == (case.field_n, case.modulus)
                and [c.value for c in p.poly.coefficients]
                == [want.get(e, 0) for e in range(max(want) + 1)]
            )
        if not ok:
            bad.append(f"{case.name}: parses to a different problem")
    return bad


class Reference:
    """Answers for one case, each computed on first use."""

    def __init__(self, case: Case):
        self.case = case

    @cached_property
    def map(self) -> BoolMap:
        return build_map(self.case)

    @cached_property
    def map_answers(self) -> tuple[bool, frozenset[int]]:
        """(injective, image) by brute force."""
        injective, _ = brute_injective(self.map, cap=16)
        return injective, brute_image(self.map, cap=16)

    @cached_property
    def permutes(self) -> bool:
        n, modulus = self.case.field_n, self.case.modulus
        image = set()
        for x in range(1 << n):
            y = 0
            for e, c in self.case.coeffs:
                y ^= field_mul(c, field_power(x, e, modulus), modulus)
            image.add(y)
        return len(image) == 1 << n


def _assignment(values: dict, names: tuple[str, ...]) -> Assignment:
    if not isinstance(values, dict) or set(values) != set(names):
        raise ValueError(f"assignment does not name exactly the variables: {values!r}")
    trues = 0
    for i, name in enumerate(names):
        if values[name] not in (0, 1):
            raise ValueError(f"non-binary value for {name}")
        trues |= values[name] << i
    return Assignment(mask_of(range(len(names))), trues)


def _check_map_verdict(ref: Reference, command: str, doc: dict, rc: int) -> str | None:
    injective, image = ref.map_answers
    if doc.get("one_to_one") is not injective:
        return f"one_to_one={doc.get('one_to_one')!r}, oracle says {injective}"
    if rc != (0 if injective else 1):
        return f"exit {rc} for one_to_one={injective}"
    expected_count = None if command == "diag" else len(image)
    if doc.get("y_minterm_count") != expected_count:
        return f"y_minterm_count={doc.get('y_minterm_count')!r}, oracle says {expected_count}"
    witness = doc.get("witness")
    if injective:
        return None if witness is None else "witness given for an injective map"
    if not isinstance(witness, list) or len(witness) != 2:
        return "non-injective verdict without a witness pair"
    F = ref.map
    a1, a2 = (_assignment(w, ref.case.inputs) for w in witness)
    if a1 == a2:
        return "witness inputs are equal"
    if F.evaluate(a1) != F.evaluate(a2):
        return "witness inputs map to different outputs"
    return None


def _check_complement(ref: Reference, doc: dict, rc: int) -> str | None:
    _, image = ref.map_answers
    m = len(ref.case.outputs)
    missing = {y for y in range(1 << m) if y not in image}
    if rc != 0:
        return f"exit {rc}"
    if doc.get("size") != len(missing):
        return f"size={doc.get('size')!r}, oracle says {len(missing)}"
    points = doc.get("points")
    if not isinstance(points, list) or len(points) != len(missing):
        return "complement points missing or miscounted"
    got = set()
    for p in points:
        if len(p) != m or set(p) - {"0", "1"}:
            return f"malformed point {p!r}"
        got.add(sum(int(ch) << j for j, ch in enumerate(p)))
    if got != missing:
        return "complement points differ from the oracle's"
    if len(doc.get("system") or ()) != len(image):
        return "defining system does not have one factor per image point"
    return None


def _term_points(term: str, names: tuple[str, ...]) -> list[int]:
    """Points (bit i = variable i) of a cube written as ``a b' c``."""
    index = {name: i for i, name in enumerate(names)}
    pos = neg = 0
    if term != "1":
        for lit in term.split():
            name, bar = (lit[:-1], True) if lit.endswith("'") else (lit, False)
            bit = 1 << index[name]
            if (pos | neg) & bit:
                raise ValueError(f"repeated variable in term {term!r}")
            if bar:
                neg |= bit
            else:
                pos |= bit
    free = [i for i in range(len(names)) if not (pos | neg) >> i & 1]
    if len(free) > 16:
        raise ValueError(f"term {term!r} leaves {len(free)} variables free")
    out = []
    for k in range(1 << len(free)):
        p = pos
        for j, i in enumerate(free):
            if k >> j & 1:
                p |= 1 << i
        out.append(p)
    return out


def _check_system(ref: Reference, command: str, doc: dict, rc: int) -> str | None:
    facts, names = ref.case.facts, ref.case.inputs
    system = build_system(ref.case)
    uni = mask_of(range(len(names)))
    if rc != 0:
        return f"exit {rc}"
    if command == "unique":
        if doc.get("status") != facts["status"]:
            return f"status={doc.get('status')!r}, constructed {facts['status']}"
        if facts["status"] != "unique":
            return None if doc.get("assignment") is None else "assignment without unique status"
        a = _assignment(doc.get("assignment"), names)
        if not system.satisfied_by(a):
            return "returned assignment does not satisfy the system"
        if doc["assignment"] != facts["solution"]:
            return "returned assignment differs from the constructed solution"
        return None
    terms = doc.get("terms")
    if not isinstance(terms, list) or doc.get("count") != len(terms):
        return "term list missing or miscounted"
    if doc.get("satisfying_total") != facts["count"]:
        return f"satisfying_total={doc.get('satisfying_total')!r}, constructed {facts['count']}"
    seen: set[int] = set()
    for t in terms:
        for p in _term_points(t, names):
            if p in seen:
                return f"terms overlap at point {p:#x}"
            if not system.satisfied_by(Assignment(uni, p)):
                return f"term {t!r} holds a non-solution"
            seen.add(p)
    if len(seen) != facts["count"]:
        return f"terms cover {len(seen)} points, constructed {facts['count']}"
    return None


def _check_poly(ref: Reference, doc: dict, rc: int) -> str | None:
    ok = ref.permutes
    if doc.get("permutation") is not ok:
        return f"permutation={doc.get('permutation')!r}, field evaluation says {ok}"
    if rc != (0 if ok else 1):
        return f"exit {rc} for permutation={ok}"
    if doc.get("field_degree") != ref.case.field_n:
        return "field degree echoed wrongly"
    return None


def check(ref: Reference, command: str, rc, stdout: str) -> str | None:
    """None when the command's JSON answer agrees with the reference, else why not."""
    if rc == 2:
        return "exit 2"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict) or doc.get("command") != command:
        return "JSON document for another command"
    try:
        if ref.case.kind == "map":
            if command in ("goe", "coi"):
                return _check_complement(ref, doc, rc)
            return _check_map_verdict(ref, command, doc, rc)
        if ref.case.kind == "system":
            return _check_system(ref, command, doc, rc)
        return _check_poly(ref, doc, rc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"


#: The field that carries each command's verdict, for the checker self-test.
_VERDICT_FIELD = {
    "invert": "one_to_one",
    "one2one": "one_to_one",
    "diag": "one_to_one",
    "permpoly": "permutation",
    "goe": "size",
    "coi": "size",
    "unique": "status",
    "implicants": "satisfying_total",
}


def flipped(command: str, stdout: str) -> str:
    """The same answer with its verdict changed."""
    doc = json.loads(stdout)
    key = _VERDICT_FIELD[command]
    value = doc[key]
    if isinstance(value, bool):
        doc[key] = not value
    elif isinstance(value, int):
        doc[key] = value + 1
    else:
        doc[key] = {"none": "unique", "unique": "multiple", "multiple": "none"}[value]
    return json.dumps(doc)
