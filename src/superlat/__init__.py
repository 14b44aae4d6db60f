"""Exact graded decompositions of endomorphism algebras over Q and
integer Gram-matrix factorization search."""

from .diophantine import (
    PosDefForm,
    three_squares_representable,
    two_squares_representable,
    vectors_of_norm,
)
from .errors import SuperlatError
from .forms import (
    GramForm,
    adjoint,
    dual_membership,
    ortho_complement_basis,
    outer,
    polarized_pullback,
    pullback,
    trace_form,
)
from .grading import (
    GradedContext,
    GradedDecomposition,
    conjugate_transport,
    even_basis,
    full_decomposition,
    is_even,
    is_odd,
    odd_basis,
    split,
    weight,
)
from .isometry import (
    CandidateIsometry,
    Certificate,
    IsometryProblem,
    SearchResult,
    brute_force_isometries,
    family_obstruction,
    find_isometries,
    squares_certificate,
    verify_certificate,
)
from .linalg import Mat, Vec
from .problem_io import (
    ProblemFile,
    load_problem,
    parse_problem,
    result_document,
    verify_document,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateIsometry",
    "Certificate",
    "GradedContext",
    "GradedDecomposition",
    "GramForm",
    "IsometryProblem",
    "Mat",
    "PosDefForm",
    "ProblemFile",
    "SearchResult",
    "SuperlatError",
    "Vec",
    "adjoint",
    "brute_force_isometries",
    "conjugate_transport",
    "dual_membership",
    "even_basis",
    "family_obstruction",
    "find_isometries",
    "full_decomposition",
    "is_even",
    "is_odd",
    "load_problem",
    "odd_basis",
    "ortho_complement_basis",
    "outer",
    "parse_problem",
    "polarized_pullback",
    "pullback",
    "result_document",
    "split",
    "squares_certificate",
    "three_squares_representable",
    "trace_form",
    "two_squares_representable",
    "vectors_of_norm",
    "verify_certificate",
    "verify_document",
    "weight",
]
