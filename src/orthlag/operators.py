"""The Laguerre operator: pointwise differential form, spectral iterates,
and the smoothing semigroup.

The operator acts on the d-dimensional orthant as

    E f = -sum_j ( x_j d2f/dx_j2 + df/dx_j - (x_j/4) f + f/2 )

and diagonalizes on the Laguerre functions: the N-th iterate multiplies the
coefficient at index n by |n|^N, the semigroup at time t by e^{-t|n|}.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, _check_count, _validate_points
from .transform import CoefficientField, ScalarField


def apply_multiplier(a: CoefficientField, factors: np.ndarray) -> CoefficientField:
    """Scale each stored term by its factor (one per term, in `a.index` order)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the coefficient check rejects non-finite products
        return a.with_values(factors * a.values)


def apply_E_spectral(a: CoefficientField, N: int) -> CoefficientField:
    """Coefficients of E^N f: entry at n scaled by |n|^N (0^0 = 1, so N = 0
    is the identity)."""
    N = _check_count(N, "operator power must be a nonnegative integer")

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


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) of a nonempty 1-D float array.

    These are the NumPy operations that scipy.special.logsumexp performs on
    real 1-D input, so the result is the same to the bit: the elements tied
    with the maximum are counted and left out of the shifted sum, and the
    sum is divided by their count before log1p."""
    x_max = x.max()
    if not math.isfinite(x_max):  # +inf, an all -inf array, or nan
        return float(x_max)
    tied = x == x_max
    count = np.float64(np.count_nonzero(tied))
    shifted = np.exp(x - x_max)
    shifted[tied] = 0.0
    s = shifted.sum()
    if s != 0:
        s = s / count
    return float(np.log1p(s) + np.log(count) + x_max)


def log_shell_weighted_norm(a: CoefficientField, shell_log_weights: np.ndarray, p: float) -> float:
    """log of the l^p norm of {|a_n| e^{w_m}} over the stored terms, where
    w_m = shell_log_weights[k] is the log weight of shell m = a._shells[0][k];
    -inf when the norm is zero.

    Terms with a_n = 0 or a zero weight (w_m = -inf) are left out.  log|a_n|
    comes from `math.log`, once per field, so results match the scalar
    formula bit for bit."""
    log_abs, shell_of = a._log_abs
    logs = log_abs + shell_log_weights[shell_of]
    logs = logs[logs > -math.inf]
    if logs.size == 0:
        return -math.inf
    if math.isinf(p):
        return float(logs.max())
    with np.errstate(over="ignore"):
        return _logsumexp(p * logs) / p


def log_iterate_norm(a: CoefficientField, N: int) -> float:
    """log of the L2 norm of E^N applied to the truncated series; -inf when
    the norm is zero.  By orthonormality the norm is sqrt(sum |n|^{2N} a_n^2),
    summed in log space so no power overflows; `exp_or_inf` of the result is
    the norm, inf where it exceeds binary64."""
    N = _check_count(N, "operator power must be a nonnegative integer")
    # log |n|^N per shell, with 0^0 = 1
    log_powers = N * a._log_shells if N else np.zeros(a._log_shells.size)
    return log_shell_weighted_norm(a, log_powers, 2)


def apply_E_pointwise(f: ScalarField, points) -> np.ndarray:
    """Apply the differential operator at each of the (npts, d) points and
    return the npts values; one call of the field's `deriv` supplies the
    analytic per-axis first and second derivatives."""
    if f.deriv is None:
        raise DomainError("field does not supply a derivative evaluator")
    pts = _validate_points(points, f.dim)
    total = np.zeros(pts.shape[0])
    for xj, (val, d1, d2) in zip(pts.T, f.deriv(pts)):
        total += xj * d2 + d1 - (xj / 4.0) * val + 0.5 * val
    return -total
