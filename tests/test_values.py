"""The contract of the immutable value classes, one table row per class.

Each class is built positionally, by keyword and from its defaults; each
refuses bad fields with its own message; equality is over the fields in
order and only between instances of the same class; the hash is the hash
of the field tuple; the repr names every field; and no attribute can be
assigned or deleted.
"""

import copy
import pickle
from typing import NamedTuple

import pytest

from boolinv.algebra import Anf, Assignment, BoolSystem, ImplicantSet, Term
from boolinv.cli import main
from boolinv.engine import ClusterPlan
from boolinv.gf2n import MAX_DEGREE, FieldElem, FieldSpec, UniPoly
from boolinv.maps import (
    BoolMap,
    ComplementResult,
    UniqueSolutionResult,
    Uniqueness,
    Verdict,
)
from boolinv.oracle import TruthTable, ValidationReport
from boolinv.parsing import MapProblem, PolyProblem, SystemProblem, VarTable

A = Assignment(3, 1)
T = Term(1, 2)
F = Anf(frozenset({1, 3}), 3)  # x0 + x0 x1
G = Anf(frozenset({0, 2}), 3)  # x1 + 1
SPEC = FieldSpec(2, 0b111)
E1, E3 = FieldElem(SPEC, 1), FieldElem(SPEC, 3)
MAP = BoolMap((F, G), 2)
SYSTEM = BoolSystem((F,), 3)
POLY = UniPoly(SPEC, ((0, E1), (1, E3)))
TABLE = VarTable(("a", "b", "y0", "y1"), 2)

R_F = "Anf(monomials=frozenset({1, 3}), universe=3)"
R_G = "Anf(monomials=frozenset({0, 2}), universe=3)"
R_SPEC = "FieldSpec(n=2, modulus=7)"
R_A = "Assignment(universe=3, trues=1)"


class Row(NamedTuple):
    cls: type
    fields: tuple[str, ...]
    args: tuple
    other: tuple  # the same class, unequal fields
    repr: str
    defaults: tuple = ()  # values of the trailing fields that have defaults
    errors: tuple = ()  # (args, ValueError message)


ROWS = [
    Row(
        Assignment, ("universe", "trues"), (3, 1), (3, 2), R_A,
        errors=(((1, 2), "assignment sets variables outside its universe"),),
    ),
    Row(
        Term, ("pos", "neg"), (1, 2), (2, 1), "Term(pos=1, neg=2)",
        defaults=(0, 0),
        errors=(((1, 1), "variable with both polarities in one term"),),
    ),
    Row(
        Anf, ("monomials", "universe"), (frozenset({1, 3}), 3), (frozenset({1, 3}), 7), R_F,
        errors=(((frozenset({4}), 3), "monomial uses a variable outside the universe"),),
    ),
    Row(
        BoolSystem, ("factors", "universe"), ((F,), 3), ((F, G), 3),
        f"BoolSystem(factors=({R_F},), universe=3)",
        errors=((((F,), 1), "factor uses a variable outside the system universe"),),
    ),
    Row(
        ImplicantSet, ("terms", "universe"), ((T,), 3), ((), 3),
        "ImplicantSet(terms=(Term(pos=1, neg=2),), universe=3)",
    ),
    Row(
        ClusterPlan, ("disjoint_factors", "residual", "split_var"), ((), (0, 1), 2), ((0,), (1,), None),
        "ClusterPlan(disjoint_factors=(), residual=(0, 1), split_var=2)",
        defaults=(None,),
    ),
    Row(
        BoolMap, ("coords", "n_in"), ((F, G), 2), ((G, F), 2),
        f"BoolMap(coords=({R_F}, {R_G}), n_in=2)",
        errors=((((Anf(frozenset({4}), 4),), 2), "monomial uses a variable outside the universe"),),
    ),
    Row(
        Verdict, ("one_to_one", "witness", "y_minterm_count"), (True, None, 4), (True, None, 3),
        "Verdict(one_to_one=True, witness=None, y_minterm_count=4)",
        errors=(
            ((True, (A, A), 4), "witness must be present exactly when not one-to-one"),
            ((False, None, 3), "witness must be present exactly when not one-to-one"),
        ),
    ),
    Row(
        UniqueSolutionResult, ("status", "assignment"), (Uniqueness.UNIQUE, A), (Uniqueness.UNIQUE, Assignment(3, 2)),
        f"UniqueSolutionResult(status=<Uniqueness.UNIQUE: 'unique'>, assignment={R_A})",
        errors=(
            ((Uniqueness.UNIQUE, None), "assignment must accompany UNIQUE and only UNIQUE"),
            ((Uniqueness.MULTIPLE, A), "assignment must accompany UNIQUE and only UNIQUE"),
        ),
    ),
    Row(
        ComplementResult, ("size", "image", "points"), (2, (0, 3), (1, 2)), (2, (0, 3), None),
        "ComplementResult(size=2, image=(0, 3), points=(1, 2))",
    ),
    Row(
        FieldSpec, ("n", "modulus"), (2, 0b111), (3, 0b1011), R_SPEC,
        errors=(
            ((0, 0b111), f"extension degree must be in 1..{MAX_DEGREE}"),
            ((2, 0b101), "modulus 0b101 is not irreducible of degree 2"),
        ),
    ),
    Row(
        FieldElem, ("spec", "value"), (SPEC, 3), (SPEC, 1), f"FieldElem(spec={R_SPEC}, value=3)",
        errors=(((SPEC, 4), "value 4 outside the field of 4"),),
    ),
    Row(
        UniPoly, ("spec", "terms"), (SPEC, ((0, E1), (1, E3))), (SPEC, ((0, E3), (1, E1))),
        f"UniPoly(spec={R_SPEC}, terms=((0, FieldElem(spec={R_SPEC}, value=1)), "
        f"(1, FieldElem(spec={R_SPEC}, value=3))))",
        errors=(
            ((SPEC, ((0, FieldElem(FieldSpec(3, 0b1011), 1)),)), "coefficient from a different field"),
            ((SPEC, ((1, E1), (0, E3))), "terms must be nonzero and in rising exponent"),
            ((SPEC, ((0, E1), (0, E3))), "terms must be nonzero and in rising exponent"),
            ((SPEC, ((1, FieldElem(SPEC, 0)),)), "terms must be nonzero and in rising exponent"),
            (
                (SPEC, (E1, E3)),  # the dense coefficients that UniPoly.of takes
                "terms must be (exponent, FieldElem) pairs; use UniPoly.of for dense coefficients",
            ),
        ),
    ),
    Row(TruthTable, ("bits", "universe"), (6, 3), (6, 7), "TruthTable(bits=6, universe=3)"),
    Row(
        ValidationReport,
        ("sound", "orthogonal", "complete", "unsound_term", "overlap", "missing_point"),
        (True, False, True, None, (0, 1, A), None),
        (True, False, True, None, (0, 2, A), None),
        "ValidationReport(sound=True, orthogonal=False, complete=True, unsound_term=None, "
        f"overlap=(0, 1, {R_A}), missing_point=None)",
        defaults=(None, None, None),
    ),
    Row(
        VarTable, ("names", "n_in"), (("a", "b", "y0", "y1"), 2), (("a", "b", "y0", "y1"), 3),
        "VarTable(names=('a', 'b', 'y0', 'y1'), n_in=2)",
    ),
    Row(
        MapProblem, ("map", "table"), (MAP, TABLE), (BoolMap((G, F), 2), TABLE),
        f"MapProblem(map={MAP!r}, table={TABLE!r})",
    ),
    Row(
        SystemProblem, ("system", "table"), (SYSTEM, TABLE), (BoolSystem((G,), 3), TABLE),
        f"SystemProblem(system={SYSTEM!r}, table={TABLE!r})",
    ),
    Row(
        PolyProblem, ("poly", "spec"), (POLY, SPEC), (UniPoly(SPEC, ((0, E3),)), SPEC),
        f"PolyProblem(poly={POLY!r}, spec={R_SPEC})",
    ),
]

ids = [row.cls.__name__ for row in ROWS]


def values(obj, row: Row) -> tuple:
    return tuple(getattr(obj, name) for name in row.fields)


@pytest.mark.parametrize("row", ROWS, ids=ids)
def test_construction_by_position_keyword_and_default(row):
    obj = row.cls(*row.args)
    assert values(obj, row) == row.args
    assert row.cls(**dict(zip(row.fields, row.args))) == obj
    if row.defaults:
        required = row.args[: len(row.args) - len(row.defaults)]
        assert values(row.cls(*required), row) == required + row.defaults


@pytest.mark.parametrize("row", ROWS, ids=ids)
def test_validation_messages(row):
    for args, message in row.errors:
        with pytest.raises(ValueError) as caught:
            row.cls(*args)
        assert str(caught.value) == message


@pytest.mark.parametrize("row", ROWS, ids=ids)
def test_equality_hash_and_repr_follow_the_fields(row):
    obj, twin, other = row.cls(*row.args), row.cls(*row.args), row.cls(*row.other)
    assert obj == twin and not obj != twin
    assert obj != other and not obj == other
    assert hash(obj) == hash(twin) == hash(values(obj, row))
    assert repr(obj) == row.repr
    # a copy or a pickled round trip is an equal value
    assert copy.copy(obj) == obj == pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("row", ROWS, ids=ids)
def test_equality_requires_the_same_class(row):
    subclass = type(f"Sub{row.cls.__name__}", (row.cls,), {"__slots__": ()})
    obj, sub = row.cls(*row.args), subclass(*row.args)
    assert values(sub, row) == values(obj, row)
    assert obj != sub and sub != obj
    assert obj != row.args and obj != dict(zip(row.fields, row.args))


def test_classes_with_the_same_field_values_differ():
    assert BoolSystem((), 3) != ImplicantSet((), 3)
    assert MapProblem(MAP, TABLE) != SystemProblem(MAP, TABLE)
    assert TruthTable(3, 1) != Assignment(3, 1)


@pytest.mark.parametrize("row", ROWS, ids=ids)
def test_attributes_cannot_be_assigned_or_deleted(row):
    obj = row.cls(*row.args)
    for name in (*row.fields, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    for name in row.fields:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert values(obj, row) == row.args


def test_derived_attributes_stay_out_of_the_fields():
    f = Anf(frozenset({1, 3}), 7)
    assert f.support == 3 and "support" not in repr(f)
    # the map's coordinates take its input universe
    assert BoolMap((Anf(frozenset({1}), 1),), 2) == BoolMap((Anf(frozenset({1}), 3),), 2)
    assert BoolMap((Anf(frozenset({1}), 1),), 2).coords[0].universe == 3
    # the dense coefficients are derived from the nonzero terms, zeros included
    sparse = UniPoly(SPEC, ((1, E3), (3, E1)))
    assert sparse.coefficients == (SPEC.zero(), E3, SPEC.zero(), E1)
    assert "coefficients" not in repr(sparse) and sparse.degree == 3
    with pytest.raises(AttributeError):
        sparse.coefficients = ()
    assert POLY.coefficients == (E1, E3) and UniPoly.of(SPEC, [1, 3, 0, 0]) == POLY
    assert UniPoly(SPEC, ()).coefficients == () and UniPoly(SPEC, ()).degree == -1


def test_permpoly_never_reads_the_dense_coefficients(tmp_path, monkeypatch, capsys):
    def refuse(poly):
        raise AssertionError("the dense coefficients were read")

    monkeypatch.setattr(UniPoly, "coefficients", property(refuse))
    path = tmp_path / "poly.txt"
    for text, answer in (
        ("field: n=4\npoly: X^1000000 + 3*X^15 + X^0\n", "no"),
        ("field: n=3 modulus=1011\npoly: 5*X^6 + X^0\n", "yes"),
        ("field: n=16\npoly: X^65534\n", "yes"),
    ):
        path.write_text(text)
        assert main(["permpoly", str(path)]) in (0, 1)
        out, err = capsys.readouterr()
        assert out == f"permutation: {answer}\n", err
