"""Weighted sequence-space norms, coefficient-decay estimation, and the
seminorm diagnostics that classify membership in the decay-graded function
spaces on the orthant; every diagnostic takes a `CoefficientField`.

Coefficients decaying like e^{-c |n|^t} with some positive rate c put a
series in the union-type (Roumieu) class of their exponent t, and decay that
beats every rate at t in the intersection-type (Beurling) class.  All but
`norms` read the smoothness index alpha the same way (`norms` moves to
e^{h |n|^{1/alpha}} together with the benchmark's norm oracle):
  norms     weight |a_n| by theta_{h,alpha}(n) = e^{h |n|^{1/(2 alpha)}}
  classify  compares the decay exponent t fitted to shell maxima with 1/alpha
  alpha_hat the level 1/t of the fitted decay exponent t
  eta       divides ||E^N f|| by h^N N!^alpha
  gtype     divides ||x^{(p+k)/2} D^p f|| by A^{|p|+|k|} k^{(alpha/2)k} p^{(alpha/2)p}
A weighted norm whose log leaves binary64 is a DomainError; the equivalence
report gives its ratio and constant, and the caller compares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import DomainError, _check_count, exp_or_inf, truncation_index, truncation_shell_counts
from .operators import _log_norms, _shell_log_norms, log_iterate_norm
from .transform import CoefficientField


@dataclass(frozen=True)
class SpaceParams:
    """Identifies a target space: smoothness index alpha and scale (h for
    sequence/operator-iterate norms, A for derivative-based seminorms)."""

    alpha: float
    scale: float

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if not 0 < self.scale < math.inf:
            raise DomainError(f"scale must be finite and positive, got {self.scale}")


def log_theta_weight(order: int, params: SpaceParams) -> float:
    """log of the weight at shell |n| = order: h * |n|^(1/(2 alpha));
    inf where that exceeds binary64 (tiny alpha)."""
    if order == 0:
        return 0.0
    if params.alpha == 0:
        raise DomainError("weight exponent is undefined at alpha = 0")
    try:
        return params.scale * float(order) ** (1.0 / (2.0 * params.alpha))
    except OverflowError:
        return math.inf


def log_weighted_seq_norm(a: CoefficientField, params: SpaceParams, p: float) -> float:
    """log of the l^p norm of {|a_n| theta_{h,alpha}(n)}, computed in log
    space; -inf when the norm is zero, and `exp_or_inf` of it is the norm.
    A log that is itself beyond binary64 (a weight that overflows, as at
    tiny alpha) is a DomainError."""
    if not p >= 1:  # nan too
        raise DomainError(f"norm index must satisfy p >= 1, got {p}")
    # log_theta_weight uses Python's ** per shell; NumPy's power may differ in the last bit
    shell_log_weights = np.array([[log_theta_weight(m, params) for m in a._shells[2].tolist()]], dtype=float)
    if (log_norm := float(_log_norms(_shell_log_norms(a, p), shell_log_weights, p)[0])) == math.inf:
        raise DomainError(f"the weighted l^{p:g} norm is beyond binary64 even in log form"
                          f" at alpha={params.alpha}, h={params.scale}")
    return log_norm


@dataclass(frozen=True)
class EquivalenceReport:
    """Two-sided norm comparison: the weighted l2 norm at the smaller scale is
    bounded by `constant` times the weighted sup norm at the larger scale."""

    l2_norm: float
    sup_norm: float
    ratio: float
    constant: float


def norm_equivalence_gap(a: CoefficientField, h: float, h1: float, alpha: float) -> EquivalenceReport:
    """Compare ||a||_{l2, theta_{h1}} against ||a||_{linf, theta_h} (h1 < h).

    The bound constant is the truncated value of
    C = (sum over the truncation set of e^{2 (h1-h) |n|^{1/(2 alpha)}})^{1/2},
    inf where it exceeds binary64.
    The ratio comes from the log norms, so it stays finite where both norms
    exceed binary64 (small alpha).  The report carries the ratio and the
    constant; whether the bound holds is the caller's comparison."""
    if not 0 < h1 < h:
        raise DomainError(f"need 0 < h1 < h, got h1={h1}, h={h}")
    counts = truncation_shell_counts(a.truncation_kind, a.dim, a.degree)
    log_l2 = log_weighted_seq_norm(a, SpaceParams(alpha=alpha, scale=h1), 2)
    log_sup = log_weighted_seq_norm(a, SpaceParams(alpha=alpha, scale=h), math.inf)
    # log C^2 is the l^1 log norm over the shells of count_m (a Python int may pass binary64)
    # weighted by e^{-2 (h-h1) m^{1/(2 alpha)}} (-inf where the exponent overflows)
    gap = SpaceParams(alpha=alpha, scale=h - h1)
    weights = np.array([[-2 * log_theta_weight(m, gap) for m in range(len(counts))]])
    constant = exp_or_inf(float(_log_norms(np.array([math.log(c) for c in counts]), weights, 1)[0]) / 2)
    ratio = 0.0 if log_sup == -math.inf else math.exp(log_l2 - log_sup)
    return EquivalenceReport(l2_norm=exp_or_inf(log_l2), sup_norm=exp_or_inf(log_sup),
                             ratio=ratio, constant=constant)


# ---------------------------------------------------------------------------
# decay-parameter estimation
# ---------------------------------------------------------------------------

DEFAULT_FIT_FLOOR = 1e-280


class InsufficientSupportError(DomainError):
    """Too few coefficient shells above the floor to fit a decay law."""

    def __init__(self, message, finitely_supported=False):
        super().__init__(message)
        self.finitely_supported = finitely_supported


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of |a_n| ~ C e^{-c |n|^t} on shell maxima.

    `alpha_hat` = 1/t is the level alpha whose target exponent 1/alpha (see
    `classify_membership`) is the fitted decay exponent t = `exponent`."""

    alpha_hat: float
    c_hat: float
    residual: float
    support_size: int
    exponent: float
    log_amplitude: float
    shells: np.ndarray = field(repr=False, compare=False)  # the shells m fitted, increasing
    log_maxima: np.ndarray = field(repr=False, compare=False)  # log b_m on them


def _shell_points(a: CoefficientField, floor: float):
    """(number of shells that hold a nonzero term, the shells m whose maximum
    b_m = max_{|n|=m} |a_n| exceeds the floor in log, log b_m on those shells)."""
    shells, log_maxima = a._shells[2], _shell_log_norms(a, math.inf)
    usable = log_maxima > math.log(floor)
    return shells.size, shells[usable].astype(float), log_maxima[usable]


def _linear_decay_fit(ms: np.ndarray, ys: np.ndarray, t):
    """Least squares of ys ~ log C - c * ms^t over at least 2 distinct shells
    ms: (log C, c, rms residual), as floats for a scalar t and as arrays for
    a 1-D array of exponents, one fit per exponent.

    Closed form on centred data, with phi = ms^t: the slope is
    sum (phi - mean phi)(ys - mean ys) / sum (phi - mean phi)^2, and the
    residuals are formed explicitly, since Syy - slope * Spy cancels on
    exact data and would leave the exponent search minimising noise.  ys is
    shifted by ys[0] before centring, so constant data has slope exactly 0,
    and 0 - slope turns that into c = 0.0, never -0.0.  The sums are einsums,
    which reduce each row alike (a matmul need not), so a row of the array
    path is the scalar path's fit to the bit."""
    n = ms.size
    dphi = ms ** np.asarray(t, dtype=float)[..., None]  # one row per exponent, centred in place
    phi_bar = dphi.sum(axis=-1, keepdims=True) / n
    dphi -= phi_bar
    dy = ys - ys[0]
    dy_bar = dy.sum() / n
    dy -= dy_bar
    slope = np.einsum("...i,...i->...", dphi, dy) / np.einsum("...i,...i->...", dphi, dphi)
    dphi *= -slope[..., None]
    resid = np.add(dy, dphi, out=dphi)
    rms = np.sqrt(np.einsum("...i,...i->...", resid, resid) / n)
    c = 0.0 - slope
    log_c0 = ys[0] + dy_bar + c * phi_bar[..., 0]
    if np.ndim(t) == 0:
        return float(log_c0), float(c), float(rms)
    return log_c0, c, rms


EXPONENT_GRID = np.linspace(0.05, 4.0, 80)
FIT_BLOCK_VALUES = 2**20  # cap on exponents x shells in one grid-scan block: 8 MiB per array
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 70


def _golden_section(fun, lo, hi):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def estimate_decay_params(a: CoefficientField, floor: float = DEFAULT_FIT_FLOOR) -> DecayFit:
    """Fit the stretched-exponential decay law to the shell maxima of a.

    Shell maxima b_m = max_{|n|=m} |a_n| above the floor are fitted by
    log b_m ~ log C - c m^t, each t by the closed form of `_linear_decay_fit`.
    The exponent t is scanned on EXPONENT_GRID, in blocks of at most
    FIT_BLOCK_VALUES exponent-shell pairs, and refined around the best grid
    point by golden section; the fit is deterministic.
    """
    if not 0 < floor < math.inf:
        raise DomainError(f"floor must be finite and positive, got {floor}")
    n_nonzero, ms, ys = _shell_points(a, floor)
    if ms.size < 3:
        finite = n_nonzero < 3
        raise InsufficientSupportError(
            "fewer than 3 coefficient shells above the floor"
            + ("; sequence is finitely supported" if finite else ""),
            finitely_supported=finite,
        )
    step = max(1, FIT_BLOCK_VALUES // ms.size)
    grid_rss = np.concatenate([_linear_decay_fit(ms, ys, EXPONENT_GRID[i:i + step])[2]
                               for i in range(0, EXPONENT_GRID.size, step)])
    best = int(np.argmin(grid_rss))
    lo = EXPONENT_GRID[max(best - 1, 0)]
    hi = EXPONENT_GRID[min(best + 1, len(EXPONENT_GRID) - 1)]
    t_hat = float(_golden_section(lambda t: _linear_decay_fit(ms, ys, t)[2], float(lo), float(hi)))
    log_c0, c_hat, resid = _linear_decay_fit(ms, ys, t_hat)
    return DecayFit(
        alpha_hat=1.0 / t_hat,
        c_hat=c_hat,
        residual=resid,
        support_size=ms.size,
        exponent=t_hat,
        log_amplitude=log_c0,
        shells=ms,
        log_maxima=ys,
    )


# ---------------------------------------------------------------------------
# membership classification
# ---------------------------------------------------------------------------

VERDICT_ROUMIEU = "roumieu"
VERDICT_BEURLING = "beurling"
VERDICT_NOT_MEMBER = "not_member"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_FINITELY_SUPPORTED = "finitely_supported"

MEMBER_VERDICTS = (VERDICT_ROUMIEU, VERDICT_BEURLING, VERDICT_FINITELY_SUPPORTED)

EXPONENT_TOLERANCE = 0.05
RESIDUAL_LIMIT = 1.5


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    alpha: float
    target_exponent: float
    fit: DecayFit | None = None
    rate_trend: tuple[float, float] | None = None
    details: str = ""

    @property
    def is_member(self) -> bool:
        return self.verdict in MEMBER_VERDICTS


def classify_membership(
    a: CoefficientField, alpha: float, floor: float = DEFAULT_FIT_FLOOR
) -> MembershipReport:
    """Decide whether the expansion belongs to the smoothness class at level
    alpha, via the coefficient characterization.

    Membership at level alpha corresponds to coefficients in the sequence
    class at level alpha/2, whose weight exponent is |n|^{1/alpha}; so the
    fitted decay exponent t is compared against 1/alpha.  At the boundary
    t = 1/alpha the union vs intersection distinction is asymptotic; it is
    resolved by the trend of the fitted rate across nested truncations and
    reported as a trend, not a proof.
    """
    if not 0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    target = 1.0 / alpha
    report = partial(MembershipReport, alpha=alpha, target_exponent=target)
    try:
        fit = estimate_decay_params(a, floor)
    except InsufficientSupportError as exc:
        if exc.finitely_supported:
            return report(VERDICT_FINITELY_SUPPORTED,
                          details="finitely supported: member of every decay class")
        return report(VERDICT_INCONCLUSIVE, details=str(exc))
    if fit.residual > RESIDUAL_LIMIT:
        return report(VERDICT_INCONCLUSIVE, fit=fit,
                      details=f"fit residual {fit.residual:.3g} too large for a verdict")
    if fit.c_hat <= 0:
        return report(VERDICT_NOT_MEMBER, fit=fit, details="no coefficient decay detected")
    if fit.exponent > target + EXPONENT_TOLERANCE:
        return report(VERDICT_BEURLING, fit=fit,
                      details=f"decay exponent {fit.exponent:.4f} beats {target:.4f}")
    if fit.exponent < target - EXPONENT_TOLERANCE:
        return report(VERDICT_NOT_MEMBER, fit=fit,
                      details=f"decay exponent {fit.exponent:.4f} below required {target:.4f}")
    # Boundary exponent: compare the fitted rate (exponent pinned at the
    # target) on the first half of the shells against the full range.
    ms, ys = fit.shells, fit.log_maxima
    half = ms.size // 2
    if half < 2:
        return report(VERDICT_INCONCLUSIVE, fit=fit,
                      details=f"boundary exponent, but {ms.size} shells above the floor"
                              f" leave {half} in the first half, too few for a rate trend")
    _, c_half, _ = _linear_decay_fit(ms[:half], ys[:half], target)
    _, c_full, _ = _linear_decay_fit(ms, ys, target)
    if c_full > 1.25 * c_half + 0.05:
        return report(VERDICT_BEURLING, fit=fit, rate_trend=(c_half, c_full),
                      details="boundary exponent with rate increasing across nested truncations")
    return report(VERDICT_ROUMIEU, fit=fit, rate_trend=(c_half, c_full),
                  details=f"boundary exponent with stable rate c ~ {c_full:.4f}")


# ---------------------------------------------------------------------------
# operator-iterate seminorm
# ---------------------------------------------------------------------------

class EtaResult(NamedTuple):
    value: float  # inf where the supremum exceeds binary64
    argmax: int
    growing: bool
    log_value: float  # log of the supremum; -inf when it is zero


MAX_ETA_POWERS = 2**19  # cap on N_max: the ratio list, and about a second on a two-term field
MAX_ETA_WORK = 2**26  # cap on N_max x nonzero shells: 2.4-2.6 s at the cap on 121 shells (2-core VM)


def eta_seminorm(a: CoefficientField, params: SpaceParams, N_max: int) -> EtaResult:
    """sup over 1 <= N <= N_max of ||E^N f||_{L2} / (h^N N!^alpha).

    The supremum runs over positive integers only.  The `growing` flag is set
    when the ratio is still strictly increasing at N_max, i.e. the supremum
    was not witnessed within range.  All ratios are formed in log space
    termwise, so monotonicity in h and alpha holds exactly in floating point.
    Each ||E^N f|| is one `log_iterate_norm` call (one window per run of N).
    N_max above MAX_ETA_POWERS, or N_max times the nonzero shells above
    MAX_ETA_WORK, is a DomainError, raised before any norm is computed."""
    N_max = _check_count(N_max, f"N_max must be an integer in [1, {MAX_ETA_POWERS}]", 1, MAX_ETA_POWERS)
    shells = a._shells[2].size
    if (work := N_max * shells) > MAX_ETA_WORK:
        raise DomainError(f"N_max {N_max} over {shells} nonzero shells makes {work} iterate-norm terms,"
                          f" above the cap of {MAX_ETA_WORK}")
    log_h = math.log(params.scale)
    # a zero norm (-inf) minus finite terms stays -inf
    log_ratios = [log_iterate_norm(a, N) - N * log_h - params.alpha * math.lgamma(N + 1)
                  for N in range(1, N_max + 1)]
    best = max(range(N_max), key=log_ratios.__getitem__)  # the first maximum
    # so a best at N_max is strictly above every earlier ratio
    return EtaResult(value=exp_or_inf(log_ratios[best]), argmax=best + 1,
                     growing=best == N_max - 1 and N_max >= 2, log_value=log_ratios[best])


# ---------------------------------------------------------------------------
# derivative-based seminorms
# ---------------------------------------------------------------------------

MAX_GTYPE_BOX = 2**20  # cap on the entries of the G-type seminorm's dense stack (8 MiB per copy)


@dataclass(frozen=True)
class GTypeReport:
    """Truncated derivative-based seminorm in log form: the first (p, k) in
    graded-lex order to reach the maximum ratio, its log, and the log running
    maximum per order max(|p|, |k|) = 0..P (saturated when the last two agree)."""

    argmax: tuple[tuple[int, ...], tuple[int, ...]]
    log_value: float  # -inf when every ratio is zero
    log_running_max: tuple[float, ...]

    @property
    def value(self) -> float:
        """The seminorm; inf where it exceeds binary64."""
        return exp_or_inf(self.log_value)


def _scaled(c: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row c[i] divided by its max |c[i]|, that log added to
    log_scale[i]: the same quantities kept in range (a zero row is kept)."""
    top = np.abs(c).reshape(len(c), -1).max(axis=1)
    top = np.where(top > 0, top, 1.0)
    return c / top.reshape((-1,) + (1,) * (c.ndim - 1)), log_scale + np.log(top)


def _derivative(c: np.ndarray, j: int) -> np.ndarray:
    """Coefficients of d/dx f from those of f along axis j.  By
    L_n' = -sum_{m<n} L_m, (D a)_n = -a_n/2 - sum_{m > n} a_m: one reverse
    cumulative sum."""
    tail = np.flip(np.cumsum(np.flip(c, j), axis=j), j)  # sum over m >= n
    return c / 2 - tail


def _times_x(c: np.ndarray, j: int) -> np.ndarray:
    """Coefficients of x f from those of f along axis j: the Jacobi matrix
    (J c)_m = (2m+1) c_m - (m+1) c_{m+1} - m c_{m-1}, from the three-term
    recurrence.  Exact while the last entry along j is zero."""
    c = np.moveaxis(c, j, 0)
    m = np.arange(c.shape[0], dtype=float).reshape((-1,) + (1,) * (c.ndim - 1))
    out = (2 * m + 1) * c
    out[:-1] -= (m[:-1] + 1) * c[1:]
    out[1:] -= m[1:] * c[:-1]
    return np.moveaxis(out, 0, j)


def _lex_walk(rows: np.ndarray, start, op):
    """For each row n of a total-degree set in lexicographic order, yield the
    stack reached from `start` = (c, log scale) by n_j products with op along
    each axis j, rescaled after each.  In that order a row is the previous
    one plus e_i with zeros after i, so it takes one product from the head
    kept for axis i, and memory stays at d stacks."""
    d = rows.shape[1]
    heads, prev = [start] * d, [0] * d
    for row in rows.tolist():
        i = next((j for j in range(d) if row[j] != prev[j]), d)
        if i < d:
            c, log_scale = heads[i]
            heads[i:] = [_scaled(op(c, i + 1), log_scale)] * (d - i)  # axis 0 runs over the stack
        prev = row
        yield heads[-1]


def _log_gtype_norms(a: CoefficientField, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(orders = truncation_index("total", dim, P), log ||x^{(p+k)/2} D^p f||_{L2}
    indexed [p, k] over its rows); -inf where the norm is zero.

    Exact by Parseval: with s = p + k and b = D^p a, the squared norm is
    <J^t b, J^{s-t} b> at t = floor(s/2), J^t holding t_j Jacobi factors
    along each axis j.  Every D^p a sits in one stack of dense boxes of
    max n_j + 1 + P entries per axis (n over the terms), which J^t never
    leaves.  Each D^p from one D^{p-e_j} and each J^t from one J^{t-e_j} is
    rescaled after every product, the log scale carried apart: no P overflows."""
    n = math.comb(P + a.dim, a.dim)
    index, values, reach = a._terms
    box = [m + 1 + P for m in reach]
    width = math.prod(box)
    if n * width > MAX_GTYPE_BOX:
        raise DomainError(f"G-type seminorm at P={P} needs {n} x {width} dense"
                          f" coefficients, above the cap of {MAX_GTYPE_BOX}")
    orders = truncation_index("total", a.dim, P)
    dense = np.zeros([1] + box)
    dense[(0, *index.T)] = values
    lex = np.lexsort(orders.T[::-1])
    by_lex = orders[lex]  # row i of the stack is D^{by_lex[i]} a
    stack = zip(*_lex_walk(by_lex, _scaled(dense, np.zeros(1)), _derivative))
    slot = np.full((P + 1,) * a.dim, -1)  # the position of each k in `orders`
    slot[tuple(orders.T)] = np.arange(n)
    out = np.empty((n, n))
    for t, (u, log_u) in zip(by_lex, _lex_walk(by_lex, tuple(map(np.concatenate, stack)), _times_x)):
        for odd in product((0, 1), repeat=a.dim):
            k = 2 * t + odd - by_lex  # the k that reach this t from each p
            pi = np.flatnonzero((k >= 0).all(axis=1) & (k.sum(axis=1) <= P))
            v = u[pi]
            for j in np.flatnonzero(odd).tolist():
                v = _times_x(v, j + 1)
            sq = np.einsum("ij,ij->i", u[pi].reshape(len(pi), width), v.reshape(len(pi), width))
            with np.errstate(divide="ignore"):
                out[lex[pi], slot[tuple(k[pi].T)]] = 0.5 * np.log(np.maximum(sq, 0.0)) + log_u[pi]
    return orders, out


def gtype_seminorm(a: CoefficientField, params: SpaceParams, P: int = 6) -> GTypeReport:
    """Maximum over |p|, |k| <= P of

        ||x^{(p+k)/2} D^p f||_{L2} / (A^{|p|+|k|} k^{(alpha/2)k} p^{(alpha/2)p})

    for f = sum_n a_n l_n, with the convention 0^0 = 1 in the denominator
    factors.  The norms are exact in the coefficients (`_log_gtype_norms`)
    and every ratio is formed in log space, so the report stays finite for P
    in the hundreds.  The true supremum over all orders is not computable;
    the report carries the running maximum per order so saturation is
    visible.
    """
    P = _check_count(P, "max order must be a nonnegative integer")
    orders, log_norms = _log_gtype_norms(a, P)
    # log of A^{|n|} prod_j n_j^{(alpha/2) n_j}, 0^0 = 1
    log_weight = (orders.sum(axis=1) * math.log(params.scale)
                  + params.alpha / 2.0 * (orders * np.log(np.maximum(orders, 1))).sum(axis=1))
    log_ratio = log_norms - log_weight[:, None] - log_weight[None, :]
    per_order = np.full(P + 1, -math.inf)
    shell = orders.sum(axis=1)
    np.maximum.at(per_order, np.maximum.outer(shell, shell).ravel(), log_ratio.ravel())
    pi, ki = divmod(int(np.argmax(log_ratio)), len(orders))  # the first maximum, graded-lex
    return GTypeReport(argmax=(tuple(orders[pi].tolist()), tuple(orders[ki].tolist())),
                       log_value=float(log_ratio[pi, ki]),
                       log_running_max=tuple(np.maximum.accumulate(per_order).tolist()))
