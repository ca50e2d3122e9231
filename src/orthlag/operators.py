"""The Laguerre operator: pointwise differential form, spectral iterates,
and the smoothing semigroup.

The operator acts on the d-dimensional orthant as

    E f = -sum_j ( x_j d2f/dx_j2 + df/dx_j - (x_j/4) f + f/2 )

and diagonalizes on the Laguerre functions: the N-th iterate multiplies the
coefficient at index n by |n|^N, the semigroup at time t by e^{-t|n|}.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .core import DomainError, _check_count, _validate_points
from .transform import CoefficientField, ScalarField


def apply_multiplier(a: CoefficientField, factor: Callable[[int], float | None],
                     term: Callable[[int, float], float]) -> CoefficientField:
    """Scale each nonzero term by factor(|n|), one call per nonzero shell; a stored
    zero stays 0.0.  On a shell where factor(m) is None, the factor leaves binary64
    while a product may not: each of its terms a_n becomes term(m, a_n) instead."""
    terms, shell_of, shells = a._shells
    factors = [factor(m) for m in shells.tolist()]
    values = a.values.copy()
    with np.errstate(over="ignore"):  # the coefficient check rejects non-finite products
        values[terms] *= np.array([1.0 if f is None else f for f in factors])[shell_of]
    if None in factors:
        at = terms[np.array([f is None for f in factors])[shell_of]]
        values[at] = [term(m, v) for m, v in zip(a.orders[at].tolist(), values[at].tolist())]
    return a.with_values(values)


def apply_E_spectral(a: CoefficientField, N: int) -> CoefficientField:
    """Coefficients of E^N f: entry at n scaled by |n|^N (0^0 = 1, so N = 0
    is the identity; 0^N and 1^N are exact for every N).  Where |n|^N
    overflows binary64 the entry is the exact product rounded once."""
    N = _check_count(N, "operator power must be a nonnegative integer")

    def power(m):
        if m <= 1:  # exact integer power, where float(m) ** N would overflow converting N
            return float(m**N)
        try:
            return float(m) ** N
        except OverflowError:
            return None

    def exact(m, v):
        # a nonzero product below 2^1024 has |a_n| >= 2^-1074, so m^N < 2^2098
        if N > 2100 / math.log2(m):  # N may be past the float range
            return math.inf  # the coefficient check rejects it as non-finite
        p, q = v.as_integer_ratio()  # q is a power of 2
        try:
            return p * m**N / q  # int true division rounds once
        except OverflowError:
            return math.inf

    return apply_multiplier(a, power, exact)


def semigroup_propagate(a: CoefficientField, t: float) -> CoefficientField:
    """Coefficients of e^{-tE} f: entry at n scaled by e^{-t|n|}, t >= 0.
    Where e^{-t|n|} underflows to a subnormal or 0, the entry is formed in
    log space, so a large a_n keeps its normal-range product."""
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"semigroup time must be finite and nonnegative, got {t!r}")

    def decay(m):
        f = math.exp(-t * m)
        return f if f >= sys.float_info.min else None

    return apply_multiplier(a, decay, lambda m, v: math.copysign(math.exp(math.log(abs(v)) - t * m), v))


def _logsumexp(x: np.ndarray):
    """log(sum(exp(x))) along the last axis of a float array with nonempty
    rows: a float for 1-D x, else one value per row.

    These are the NumPy operations that scipy.special.logsumexp performs on
    real 1-D input, row by row, so each result is the same to the bit: the
    elements tied with the maximum are counted and left out of the shifted
    sum, and the sum is divided by their count before log1p.  A row whose
    maximum is +inf, -inf or nan gives that maximum."""
    x_max = x.max(axis=-1, keepdims=True)
    tied = x == x_max
    count = np.count_nonzero(tied, axis=-1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):  # only where the maximum is not finite
        shifted = x - x_max
        np.exp(shifted, out=shifted)
        shifted[tied] = 0.0
        out = np.log1p(shifted.sum(axis=-1) / count) + np.log(count) + x_max[..., 0]
    return out if x.ndim > 1 else float(out)


def _shell_log_norms(a: CoefficientField, p: float) -> np.ndarray:
    """log of the l^p norm of {|a_n| : |n| = m} for each shell m of a._shells:
    log b_m + log(sum (|a_n| / b_m)^p) / p with b_m the shell's largest |a_n|,
    by math.log, so one term per shell gives math.log|a_n| and p = inf gives
    log b_m, to the bit.  A shell's terms are one run in `index` order."""
    terms, shell_of, shells = a._shells
    top = mags = np.abs(a.values[terms])
    if shells.size < terms.size:  # some shell holds several terms
        top = np.maximum.reduceat(mags, starts := np.searchsorted(shell_of, np.arange(shells.size)))
    log_top = np.array([math.log(b) for b in top.tolist()])
    if math.isinf(p) or top is mags:  # the sum's log over p is 0: one term, or ties at inf
        return log_top
    return log_top + np.log(np.add.reduceat((mags / top[shell_of]) ** p, starts)) / p


def _log_norms(profile: np.ndarray, shell_log_weights: np.ndarray, p: float) -> np.ndarray:
    """log of the l^p norm of {|a_n| e^{w_m}} for each row w of the (rows, shells)
    log weights: the log-sum-exp of p (profile + w) over the shells, over p, with
    profile = `_shell_log_norms(a, p)`; -inf where the norm is zero.  Shells where
    the first row is -inf are left out (every row must be -inf there), so each row
    is its 1-D log-sum-exp to the bit.  Where p times the largest log leaves
    binary64 the logs are shifted by it first, so with several rows p times every
    log must stay in binary64 (as for `log_iterate_norm`'s p = 2 rows)."""
    kept = np.flatnonzero(shell_log_weights[0] > -math.inf)
    logs = profile[kept] + shell_log_weights.take(kept, axis=1)  # C order, as take keeps it
    top = logs.max(initial=-math.inf)
    if math.isinf(p) or math.isinf(top):  # the sup norm, no terms, or a weight of inf
        return logs.max(axis=1, initial=-math.inf)
    with np.errstate(over="ignore"):
        if math.isfinite(p * top):
            return _logsumexp(p * logs) / p
        return top + _logsumexp(p * (logs - top)) / p


MAX_OPERATOR_POWER = 2**53  # the largest N that binary64 holds exactly
ITERATE_WINDOW_VALUES = 2**11  # entries of one window of iterate norms


def log_iterate_norm(a: CoefficientField, N: int) -> float:
    """log of the L2 norm of E^N applied to the truncated series, for
    0 <= N <= 2^53; -inf when the norm is zero.  By orthonormality the norm
    is sqrt(sum_m m^{2N} P_m), P_m = sum_{|n|=m} a_n^2, summed in log space so
    no power overflows; `exp_or_inf` of it is the norm, inf past binary64.

    The field keeps its p = 2 profile (`_shell_log_norms`), math.log m per
    shell and the last window of B = max(1, ITERATE_WINDOW_VALUES // shells)
    powers from N on (shells with a nonzero term and m > 0): calls at N, N+1,
    ... cost one `_log_norms` call per B powers, each value to the bit."""
    N = _check_count(N, "operator power must be an integer in [0, 2^53]", hi=MAX_OPERATOR_POWER)
    if (cached := getattr(a, "_iterate_window", None)) is None:
        log_m = np.array([math.log(m) if m else -math.inf for m in a._shells[2].tolist()])
        cached = a._iterate_window = [_shell_log_norms(a, 2), log_m, 0, ()]
    profile, log_m, start, window = cached
    if N == 0:  # 0^0 = 1: every nonzero term, |n| = 0 included
        return float(_log_norms(profile, np.zeros((1, log_m.size)), 2)[0])
    if not start <= N < start + len(window):
        powers = N + np.arange(max(1, ITERATE_WINDOW_VALUES // max(1, np.count_nonzero(a._shells[2]))))
        start, window = cached[2:] = N, _log_norms(profile, np.multiply.outer(powers, log_m), 2)
    return float(window[N - start])


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
