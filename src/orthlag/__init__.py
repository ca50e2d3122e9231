"""Laguerre spectral calculus on positive orthants: transforms, the Laguerre
operator and its iterates/semigroup, weighted sequence norms, and
coefficient-decay classification."""

__version__ = "0.1.0"

from .core import (
    DomainError,
    laguerre_fn_derivatives,
    laguerre_fn_eval,
    laguerre_poly_eval,
    total_degree_indices,
    box_indices,
)
from .quadrature import QuadratureRule, gauss_laguerre_rule, integrate_orthant
from .transform import (
    CoefficientField,
    ScalarField,
    analyze,
    as_scalar_field,
    parseval_l2_norm,
    read_coefficients,
    synthesize,
    write_coefficients,
)
from .operators import (
    apply_E_pointwise,
    apply_E_spectral,
    iterate_norm,
    semigroup_propagate,
)
from .analysis import (
    DecayFit,
    EtaResult,
    MembershipReport,
    SpaceParams,
    classify_membership,
    estimate_decay_params,
    eta_seminorm,
    gtype_seminorm,
    norm_equivalence_gap,
    schwartz_seminorm,
    theta_weight,
    weighted_seq_norm,
)

__all__ = [
    "DomainError",
    "laguerre_poly_eval",
    "laguerre_fn_eval",
    "laguerre_fn_derivatives",
    "total_degree_indices",
    "box_indices",
    "QuadratureRule",
    "gauss_laguerre_rule",
    "integrate_orthant",
    "CoefficientField",
    "ScalarField",
    "analyze",
    "synthesize",
    "as_scalar_field",
    "parseval_l2_norm",
    "read_coefficients",
    "write_coefficients",
    "apply_E_spectral",
    "apply_E_pointwise",
    "iterate_norm",
    "semigroup_propagate",
    "SpaceParams",
    "DecayFit",
    "EtaResult",
    "MembershipReport",
    "theta_weight",
    "weighted_seq_norm",
    "norm_equivalence_gap",
    "estimate_decay_params",
    "classify_membership",
    "eta_seminorm",
    "gtype_seminorm",
    "schwartz_seminorm",
]
