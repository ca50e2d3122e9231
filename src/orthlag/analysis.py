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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import DomainError, _check_count, exp_or_inf, truncation_index, truncation_shell_counts
from .operators import log_iterate_norm, log_shell_weighted_norm
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
    space; -inf when the norm is zero, and `exp_or_inf` of it is the norm."""
    if not p >= 1:  # nan too
        raise DomainError(f"norm index must satisfy p >= 1, got {p}")
    # log_theta_weight uses Python's ** per shell; NumPy's power may differ in the last bit
    shell_log_weights = np.array([log_theta_weight(m, params) for m in a._shells[0].tolist()], dtype=float)
    return log_shell_weighted_norm(a, shell_log_weights, p)


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
    C = (sum over the truncation set of e^{2 (h1-h) |n|^{1/(2 alpha)}})^{1/2}.
    The ratio comes from the log norms, so it stays finite where both norms
    exceed binary64 (small alpha); a log norm that is inf is a domain error."""
    if not 0 < h1 < h:
        raise DomainError(f"need 0 < h1 < h, got h1={h1}, h={h}")
    log_l2 = log_weighted_seq_norm(a, SpaceParams(alpha=alpha, scale=h1), 2)
    log_sup = log_weighted_seq_norm(a, SpaceParams(alpha=alpha, scale=h), math.inf)
    if math.inf in (log_l2, log_sup):
        raise DomainError(f"a weighted norm is beyond binary64 even in log form at alpha={alpha}")
    counts = truncation_shell_counts(a.truncation_kind, a.dim, a.degree)
    # per shell e^{-2 (h-h1) m^{1/(2 alpha)}}, which is 0 where the exponent overflows
    gap = SpaceParams(alpha=alpha, scale=h - h1)
    shell_terms = [c * math.exp(-2.0 * log_theta_weight(m, gap)) for m, c in enumerate(counts)]
    constant = math.sqrt(math.fsum(shell_terms))
    ratio = 0.0 if log_sup == -math.inf else math.exp(log_l2 - log_sup)
    if ratio > constant * (1.0 + 1e-12):
        raise ArithmeticError(
            f"norm-equivalence bound violated: ratio {ratio} exceeds constant {constant}"
        )
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


def _shell_points(a: CoefficientField, floor: float):
    """(number of shells with a nonzero maximum, the shells m whose maximum
    b_m exceeds the floor, log b_m on those shells)."""
    shells, maxima = a.shell_maxima()
    usable = maxima > floor
    ys = np.array([math.log(b) for b in maxima[usable].tolist()])
    return int(np.count_nonzero(maxima)), shells[usable].astype(float), ys


def _linear_decay_fit(ms: np.ndarray, ys: np.ndarray, t: float):
    """For fixed exponent t, least squares of ys ~ logC - c * ms^t."""
    phi = ms ** t
    design = np.column_stack([np.ones_like(phi), -phi])
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ sol
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(resid ** 2)))


EXPONENT_GRID = np.linspace(0.05, 4.0, 80)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fun, lo, hi, iters=70):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
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
    log b_m ~ log C - c m^t with the exponent t scanned on a fixed grid and
    refined by golden section; the fit is deterministic.
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

    def rss(t):
        return _linear_decay_fit(ms, ys, t)[2]

    grid_rss = [rss(t) for t in EXPONENT_GRID]
    best = int(np.argmin(grid_rss))
    lo = EXPONENT_GRID[max(best - 1, 0)]
    hi = EXPONENT_GRID[min(best + 1, len(EXPONENT_GRID) - 1)]
    t_hat = float(_golden_section(rss, float(lo), float(hi)))
    log_c0, c_hat, resid = _linear_decay_fit(ms, ys, t_hat)
    return DecayFit(
        alpha_hat=1.0 / t_hat,
        c_hat=c_hat,
        residual=resid,
        support_size=ms.size,
        exponent=t_hat,
        log_amplitude=log_c0,
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
    _, ms, ys = _shell_points(a, floor)
    half = ms.size // 2
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


def eta_seminorm(a: CoefficientField, params: SpaceParams, N_max: int) -> EtaResult:
    """sup over 1 <= N <= N_max of ||E^N f||_{L2} / (h^N N!^alpha).

    The supremum runs over positive integers only.  The `growing` flag is set
    when the ratio is still strictly increasing at N_max, i.e. the supremum
    was not witnessed within range.  All ratios are formed in log space
    termwise, so monotonicity in h and alpha holds exactly in floating point.
    """
    N_max = _check_count(N_max, "N_max must be an integer >= 1", 1)
    log_h = math.log(params.scale)
    log_ratios = []
    for N in range(1, N_max + 1):
        lg = log_iterate_norm(a, N)
        if lg == -math.inf:
            log_ratios.append(-math.inf)
        else:
            log_ratios.append(lg - N * log_h - params.alpha * math.lgamma(N + 1))
    best = max(range(N_max), key=lambda i: log_ratios[i])
    growing = (
        best == N_max - 1
        and N_max >= 2
        and log_ratios[-1] > log_ratios[-2]
    )
    return EtaResult(value=exp_or_inf(log_ratios[best]), argmax=best + 1, growing=growing,
                     log_value=log_ratios[best])


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
    max n_j + 1 + P entries per axis, which J^t never leaves.  Each D^p comes
    from one D^{p-e_j} and each J^t from one J^{t-e_j}, rescaled after every
    product with the log scale carried apart, so no P overflows."""
    n = math.comb(P + a.dim, a.dim)
    box = [int(m) + 1 + P for m in a.index.max(axis=0, initial=0).tolist()]
    width = math.prod(box)
    if n * width > MAX_GTYPE_BOX:
        raise DomainError(f"G-type seminorm at P={P} needs {n} x {width} dense"
                          f" coefficients, above the cap of {MAX_GTYPE_BOX}")
    orders = truncation_index("total", a.dim, P)
    dense = np.zeros([1] + box)
    dense[(0, *a.index.T)] = a.values
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
