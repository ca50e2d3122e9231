"""The Laguerre operator: pointwise differential form, spectral iterates,
and the smoothing semigroup.

The operator acts on the d-dimensional orthant as

    E f = -sum_j ( x_j d2f/dx_j2 + df/dx_j - (x_j/4) f + f/2 )

and diagonalizes on the Laguerre functions: the N-th iterate multiplies the
coefficient at index n by |n|^N, the semigroup at time t by e^{-t|n|}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .core import DomainError, exp_or_inf, index_order, validate_point
from .transform import CoefficientField, ScalarField


@dataclass(frozen=True)
class SpectralMultiplier:
    """Diagonal action n -> rule(n) on coefficient fields."""

    rule: Callable[[tuple[int, ...]], float]
    descriptor: str


def power_multiplier(N: int) -> SpectralMultiplier:
    """|n|^N with the convention 0^0 = 1 (N = 0 is the identity)."""
    if N != int(N) or N < 0:
        raise DomainError(f"operator power must be a nonnegative integer, got {N!r}")
    N = int(N)

    def rule(n):
        m = index_order(n)
        if N == 0:
            return 1.0
        if m == 0:
            return 0.0
        try:
            return float(m) ** N
        except OverflowError:  # the coefficient check rejects it as non-finite
            return math.inf

    return SpectralMultiplier(rule=rule, descriptor=f"E^{N}")


def semigroup_multiplier(t: float) -> SpectralMultiplier:
    """e^{-t|n|} for t >= 0."""
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"semigroup time must be finite and nonnegative, got {t!r}")

    def rule(n):
        return math.exp(-t * index_order(n))

    return SpectralMultiplier(rule=rule, descriptor=f"exp(-{t}E)")


def apply_multiplier(a: CoefficientField, mult: SpectralMultiplier) -> CoefficientField:
    return a.with_entries({n: mult.rule(n) * v for n, v in a.entries.items()})


def apply_E_spectral(a: CoefficientField, N: int) -> CoefficientField:
    """Coefficients of E^N f: entry at n scaled by |n|^N."""
    return apply_multiplier(a, power_multiplier(N))


def semigroup_propagate(a: CoefficientField, t: float) -> CoefficientField:
    """Coefficients of e^{-tE} f: entry at n scaled by e^{-t|n|}."""
    return apply_multiplier(a, semigroup_multiplier(t))


def iterate_norm(a: CoefficientField, N: int) -> float:
    """L2 norm of E^N applied to the truncated series.

    By orthonormality this is sqrt(sum |n|^{2N} a_n^2); the sum is taken in
    log space so large powers do not overflow before the square root; the
    result is inf where the norm itself exceeds binary64.
    """
    return exp_or_inf(log_iterate_norm(a, N))


def log_iterate_norm(a: CoefficientField, N: int) -> float:
    """log of `iterate_norm`; -inf when the norm is zero."""
    if N != int(N) or N < 0:
        raise DomainError(f"operator power must be a nonnegative integer, got {N!r}")
    N = int(N)
    logs = []
    for n, v in a.entries.items():
        if v == 0.0:
            continue
        m = index_order(n)
        if m == 0:
            if N == 0:
                logs.append(2.0 * math.log(abs(v)))
            continue
        logs.append(2.0 * N * math.log(m) + 2.0 * math.log(abs(v)))
    if not logs:
        return -math.inf
    return 0.5 * float(logsumexp(np.array(logs)))


def apply_E_pointwise(f: ScalarField, x) -> float:
    """Apply the differential operator at a point, using the field's
    analytic per-axis first and second derivatives."""
    if f.deriv is None:
        raise DomainError("field does not supply a derivative evaluator")
    pt = validate_point(x)
    if pt.size != f.dim:
        raise DomainError(f"point has dimension {pt.size}, expected {f.dim}")
    triples = f.deriv(pt)
    total = 0.0
    for j, (val, d1, d2) in enumerate(triples):
        xj = pt[j]
        total += xj * d2 + d1 - (xj / 4.0) * val + 0.5 * val
    return -total
