"""The Laguerre operator: pointwise differential form, spectral iterates,
and the smoothing semigroup.

The operator acts on the d-dimensional orthant as

    E f = -sum_j ( x_j d2f/dx_j2 + df/dx_j - (x_j/4) f + f/2 )

and diagonalizes on the Laguerre functions: the N-th iterate multiplies the
coefficient at index n by |n|^N, the semigroup at time t by e^{-t|n|}.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .core import DomainError, exp_or_inf, validate_point
from .transform import CoefficientField, ScalarField


def apply_multiplier(a: CoefficientField, factors: np.ndarray) -> CoefficientField:
    """Scale each stored term by its factor (one per term, in `a.index` order)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the coefficient check rejects non-finite products
        return a.with_values(factors * a.values)


def _check_power(N) -> int:
    if N != int(N) or N < 0:
        raise DomainError(f"operator power must be a nonnegative integer, got {N!r}")
    return int(N)


def apply_E_spectral(a: CoefficientField, N: int) -> CoefficientField:
    """Coefficients of E^N f: entry at n scaled by |n|^N (0^0 = 1, so N = 0
    is the identity)."""
    N = _check_power(N)

    def power(m):
        try:
            return float(m) ** N
        except OverflowError:  # the coefficient check rejects it as non-finite
            return math.inf

    return apply_multiplier(a, a.per_shell(power))


def semigroup_propagate(a: CoefficientField, t: float) -> CoefficientField:
    """Coefficients of e^{-tE} f: entry at n scaled by e^{-t|n|}, t >= 0."""
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"semigroup time must be finite and nonnegative, got {t!r}")
    return apply_multiplier(a, a.per_shell(lambda m: math.exp(-t * m)))


def log_shell_weighted_norm(a: CoefficientField, log_weight: Callable[[int], float], p: float) -> float:
    """log of the l^p norm of {|a_n| e^{log_weight(|n|)}}; -inf when it is zero.

    Terms with a_n = 0 or a zero weight are left out.  log|a_n| is taken with
    `math.log`, so results match the scalar formula bit for bit."""
    nonzero = a.values != 0.0
    log_abs = np.array([math.log(v) for v in np.abs(a.values[nonzero]).tolist()])
    logs = log_abs + a.per_shell(log_weight)[nonzero]
    logs = logs[logs > -math.inf]
    if logs.size == 0:
        return -math.inf
    if math.isinf(p):
        return float(logs.max())
    with np.errstate(over="ignore"):
        return float(logsumexp(p * logs)) / p


def iterate_norm(a: CoefficientField, N: int) -> float:
    """L2 norm of E^N applied to the truncated series.

    By orthonormality this is sqrt(sum |n|^{2N} a_n^2); the sum is taken in
    log space so large powers do not overflow before the square root; the
    result is inf where the norm itself exceeds binary64.
    """
    return exp_or_inf(log_iterate_norm(a, N))


def log_iterate_norm(a: CoefficientField, N: int) -> float:
    """log of `iterate_norm`; -inf when the norm is zero."""
    N = _check_power(N)

    def log_power(m):  # log |n|^N, with 0^0 = 1
        if m == 0:
            return 0.0 if N == 0 else -math.inf
        return N * math.log(m)

    return log_shell_weighted_norm(a, log_power, 2)


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
