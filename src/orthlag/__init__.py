"""Laguerre spectral calculus on positive orthants: transforms, the Laguerre
operator and its iterates/semigroup, weighted sequence norms, and
coefficient-decay classification."""

__version__ = "0.1.0"

from .core import (
    DomainError,
    exp_or_inf,
    truncation_index,
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
    log_iterate_norm,
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
    log_weighted_seq_norm,
    norm_equivalence_gap,
)

__all__ = [
    "DomainError",
    "exp_or_inf",
    "truncation_index",
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
    "log_iterate_norm",
    "semigroup_propagate",
    "SpaceParams",
    "DecayFit",
    "EtaResult",
    "MembershipReport",
    "log_weighted_seq_norm",
    "norm_equivalence_gap",
    "estimate_decay_params",
    "classify_membership",
    "eta_seminorm",
    "gtype_seminorm",
]
