"""Exact symbolic calculus on infinite jet spaces.

Total derivatives, universal linearization, evolutionary derivations, the
Jacobi bracket of non-linear differential operators and the Hessian that
measures the linearization anomaly, all over exact rational arithmetic so
that every identity check is a canonical-form zero test.
"""

from .calculus import (
    evolutionary_apply,
    hessian_form,
    hessian_operator,
    jacobi_bracket,
    jacobi_bracket_coord,
    linearize,
    random_vector_operator,
    substitute_section,
)
from .expressions import (
    Bundle,
    EvaluationError,
    JetCoordinate,
    PolyExpr,
    SignatureMismatchError,
    random_expr,
)
from .identities import (
    Residual,
    check_bracket_leibniz,
    check_bracket_oracle,
    check_commutation,
    check_evolutionary_antihomomorphism,
    check_hessian_symmetry,
    check_jacobi_identity,
    check_linearization_anomaly,
    check_multiplier_identity,
    run_random_suite,
)
from .multiindex import MultiIndex, binom_product, sub_indices
from .operators import CDiffOperator, ShapeMismatchError
from .structures import (
    AuxClaim,
    SymmetryClaim,
    aux_residual,
    evaluate_claim_file,
    nonhomogeneous_diagonal_pair,
    symmetry_residual,
)
from .vectorops import RankMismatchError, VectorOperator

__version__ = "0.1.0"

__all__ = [
    "AuxClaim",
    "Bundle",
    "CDiffOperator",
    "EvaluationError",
    "JetCoordinate",
    "MultiIndex",
    "PolyExpr",
    "RankMismatchError",
    "Residual",
    "ShapeMismatchError",
    "SignatureMismatchError",
    "SymmetryClaim",
    "VectorOperator",
    "aux_residual",
    "binom_product",
    "check_bracket_leibniz",
    "check_bracket_oracle",
    "check_commutation",
    "check_evolutionary_antihomomorphism",
    "check_hessian_symmetry",
    "check_jacobi_identity",
    "check_linearization_anomaly",
    "check_multiplier_identity",
    "evaluate_claim_file",
    "evolutionary_apply",
    "hessian_form",
    "hessian_operator",
    "jacobi_bracket",
    "jacobi_bracket_coord",
    "linearize",
    "nonhomogeneous_diagonal_pair",
    "random_expr",
    "random_vector_operator",
    "run_random_suite",
    "sub_indices",
    "substitute_section",
    "symmetry_residual",
]
