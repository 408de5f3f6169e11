"""Exact invertibility and image analysis for Boolean maps."""

from .algebra import (
    Anf,
    Assignment,
    BoolSystem,
    ImplicantSet,
    MissingVariableError,
    Term,
    mask_of,
    vars_of,
)
from .engine import BoundExceededError, EngineConfig, compose_product, implicants
from .maps import (
    BoolMap,
    ComplementResult,
    NonSquareMapError,
    Uniqueness,
    UniqueSolutionResult,
    Verdict,
    build_graph_system,
    coi,
    goe,
    graph_implicants,
    is_invertible_square,
    is_one_to_one_general,
    unique_solution,
)
from .collision import (
    build_collision_system,
    collision_implicants,
    diagonal_set,
    is_one_to_one_diagonal,
)
from .gf2n import (
    FieldElem,
    FieldSpec,
    UniPoly,
    coordinate_functions,
    is_permutation_polynomial,
)
from .parsing import (
    MapProblem,
    ParseError,
    PolyProblem,
    SystemProblem,
    VarTable,
    format_problem,
    parse_file,
    parse_text,
)

__version__ = "0.1.0"

#: The brute-force referee's names, resolved from ``boolinv.oracle`` on first
#: access so that importing the solver does not load it.
_ORACLE_NAMES = (
    "OrthogonalityError",
    "TruthTable",
    "ValidationReport",
    "brute_image",
    "brute_image_count",
    "brute_injective",
    "brute_solutions",
    "is_implicant",
    "og_sum_is_tautology",
    "solution_count",
    "validate_implicant_set",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Anf",
    "Assignment",
    "BoolMap",
    "BoolSystem",
    "BoundExceededError",
    "ComplementResult",
    "EngineConfig",
    "FieldElem",
    "FieldSpec",
    "ImplicantSet",
    "MapProblem",
    "MissingVariableError",
    "NonSquareMapError",
    "OrthogonalityError",
    "ParseError",
    "PolyProblem",
    "SystemProblem",
    "Term",
    "TruthTable",
    "UniPoly",
    "Uniqueness",
    "UniqueSolutionResult",
    "ValidationReport",
    "VarTable",
    "Verdict",
    "brute_image",
    "brute_image_count",
    "brute_injective",
    "brute_solutions",
    "build_collision_system",
    "build_graph_system",
    "coi",
    "collision_implicants",
    "compose_product",
    "coordinate_functions",
    "diagonal_set",
    "format_problem",
    "goe",
    "graph_implicants",
    "implicants",
    "is_implicant",
    "is_invertible_square",
    "is_one_to_one_diagonal",
    "is_one_to_one_general",
    "is_permutation_polynomial",
    "mask_of",
    "og_sum_is_tautology",
    "parse_file",
    "parse_text",
    "solution_count",
    "unique_solution",
    "validate_implicant_set",
    "vars_of",
    "__version__",
]
