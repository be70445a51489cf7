"""Numerical laboratory for finite-dimensional unitary colligations.

Evaluates Schur-Agler-class transfer functions on the polydisk and unit
ball from their realizations, computes exact higher-order partial
derivatives, and verifies the associated Schwarz-Pick-type inequalities
and operator identities against independent oracles.
"""

from .bounds import (
    BoundReport,
    ball_kernel_subchecks,
    bound_ball,
    bound_general,
    bound_polydisk,
    knese_residual,
    multiplier_gram_psd,
    wiener_check,
)
from .colligation import (
    Ball,
    Colligation,
    Polydisk,
    blaschke,
    colligation_hash,
    load_colligation,
    monomial,
    projection,
    random_colligation,
    save_colligation,
    structure_norm,
    symmetric_extremal,
    validate,
    zmatrix,
)
from .derivative import (
    MultiIndex,
    Polynomial,
    alpay_kaptanoglu,
    arrangements,
    cauchy_partial,
    kaijser_varopoulos,
    koperator,
    partial,
    partial_permsum,
    poly_partial,
)
from .errors import (
    ComplexityError,
    DegenerateGramWarning,
    DomainViolationError,
    StructureError,
)
from .matrixcore import haar_unitary, spectral_norm, unitarity_residual
from .transfer import (
    EvalContext,
    evaluate,
    identity_residuals,
    lnorm_bound_check,
    resolvent_norm_estimates,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BoundReport",
    "Colligation",
    "ComplexityError",
    "DegenerateGramWarning",
    "DomainViolationError",
    "EvalContext",
    "MultiIndex",
    "Polydisk",
    "Polynomial",
    "StructureError",
    "alpay_kaptanoglu",
    "arrangements",
    "ball_kernel_subchecks",
    "blaschke",
    "bound_ball",
    "bound_general",
    "bound_polydisk",
    "cauchy_partial",
    "colligation_hash",
    "evaluate",
    "haar_unitary",
    "identity_residuals",
    "kaijser_varopoulos",
    "knese_residual",
    "koperator",
    "lnorm_bound_check",
    "load_colligation",
    "monomial",
    "multiplier_gram_psd",
    "partial",
    "partial_permsum",
    "poly_partial",
    "projection",
    "random_colligation",
    "resolvent_norm_estimates",
    "save_colligation",
    "spectral_norm",
    "structure_norm",
    "symmetric_extremal",
    "unitarity_residual",
    "validate",
    "wiener_check",
    "zmatrix",
]
