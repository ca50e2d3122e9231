"""Weighted sequence-space norms, coefficient-decay estimation, and the
seminorm diagnostics that classify membership in the decay-graded function
spaces on the orthant.

The weight family is theta_{h,alpha}(n) = e^{h |n|^{1/(2 alpha)}}.  A series
with coefficients decaying like e^{-c |n|^t} belongs to the union-type
(Roumieu) class at level alpha when t = 1/(2 alpha) with some positive rate,
and to the intersection-type (Beurling) class when the decay beats every rate
at that exponent.  The classifier estimates (c, t) from shell maxima and maps
the fitted exponent through the coefficient characterization: membership of f
at smoothness level alpha corresponds to coefficient decay exponent 1/alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DomainError, exp_or_inf, index_order, total_degree_indices
from .operators import log_iterate_norm, log_shell_weighted_norm
from .quadrature import QuadratureRule, gauss_laguerre_rule, integrate_orthant
from .transform import CoefficientField, ScalarField

ROUMIEU = "union"
BEURLING = "intersection"


@dataclass(frozen=True)
class SpaceParams:
    """Identifies a target space: smoothness index alpha, scale (h for
    sequence/operator-iterate norms, A for derivative-based seminorms), and
    union (Roumieu) vs intersection (Beurling) quantification."""

    alpha: float
    scale: float
    kind: str = ROUMIEU

    def __post_init__(self):
        if self.alpha < 0:
            raise DomainError(f"alpha must be nonnegative, got {self.alpha}")
        if self.scale <= 0:
            raise DomainError(f"scale must be positive, got {self.scale}")
        if self.kind not in (ROUMIEU, BEURLING):
            raise DomainError(f"kind must be {ROUMIEU!r} or {BEURLING!r}")


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


def theta_weight(n, params: SpaceParams) -> float:
    """e^{h |n|^{1/(2 alpha)}}; equals 1 at |n| = 0."""
    return exp_or_inf(log_theta_weight(index_order(n), params))


def log_weighted_seq_norm(a: CoefficientField, params: SpaceParams, p: float) -> float:
    """log of `weighted_seq_norm`; -inf when the norm is zero."""
    if p < 1:
        raise DomainError(f"norm index must satisfy p >= 1, got {p}")
    return log_shell_weighted_norm(a, lambda m: log_theta_weight(m, params), p)


def weighted_seq_norm(a: CoefficientField, params: SpaceParams, p: float) -> float:
    """l^p norm of {|a_n| theta_{h,alpha}(n)}, computed in log space; inf
    where it exceeds binary64."""
    return exp_or_inf(log_weighted_seq_norm(a, params, p))


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
    counts = np.bincount([index_order(n) for n in a.truncation_set()])
    # per shell e^{-2 (h-h1) m^{1/(2 alpha)}}, which is 0 where the exponent overflows
    gap = SpaceParams(alpha=alpha, scale=h - h1)
    shell_terms = counts * np.array([math.exp(-2.0 * log_theta_weight(m, gap)) for m in range(counts.size)])
    constant = math.sqrt(math.fsum(shell_terms.tolist()))
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

    `alpha_hat` = 1/(2t) is the sequence-space level whose weight exponent
    matches the fitted decay exponent t = `exponent`."""

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
    if floor <= 0:
        raise DomainError(f"floor must be positive, got {floor}")
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
        alpha_hat=1.0 / (2.0 * t_hat),
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
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    target = 1.0 / alpha
    try:
        fit = estimate_decay_params(a, floor)
    except InsufficientSupportError as exc:
        if exc.finitely_supported:
            return MembershipReport(
                verdict=VERDICT_FINITELY_SUPPORTED,
                alpha=alpha,
                target_exponent=target,
                details="finitely supported: member of every decay class",
            )
        return MembershipReport(
            verdict=VERDICT_INCONCLUSIVE,
            alpha=alpha,
            target_exponent=target,
            details=str(exc),
        )
    if fit.residual > RESIDUAL_LIMIT:
        return MembershipReport(
            verdict=VERDICT_INCONCLUSIVE,
            alpha=alpha,
            target_exponent=target,
            fit=fit,
            details=f"fit residual {fit.residual:.3g} too large for a verdict",
        )
    if fit.c_hat <= 0:
        return MembershipReport(
            verdict=VERDICT_NOT_MEMBER,
            alpha=alpha,
            target_exponent=target,
            fit=fit,
            details="no coefficient decay detected",
        )
    if fit.exponent > target + EXPONENT_TOLERANCE:
        return MembershipReport(
            verdict=VERDICT_BEURLING,
            alpha=alpha,
            target_exponent=target,
            fit=fit,
            details=f"decay exponent {fit.exponent:.4f} beats {target:.4f}",
        )
    if fit.exponent < target - EXPONENT_TOLERANCE:
        return MembershipReport(
            verdict=VERDICT_NOT_MEMBER,
            alpha=alpha,
            target_exponent=target,
            fit=fit,
            details=f"decay exponent {fit.exponent:.4f} below required {target:.4f}",
        )
    # Boundary exponent: compare the fitted rate (exponent pinned at the
    # target) on the first half of the shells against the full range.
    _, ms, ys = _shell_points(a, floor)
    half = ms.size // 2
    _, c_half, _ = _linear_decay_fit(ms[:half], ys[:half], target)
    _, c_full, _ = _linear_decay_fit(ms, ys, target)
    trend = (c_half, c_full)
    if c_full > 1.25 * c_half + 0.05:
        verdict = VERDICT_BEURLING
        details = "boundary exponent with rate increasing across nested truncations"
    else:
        verdict = VERDICT_ROUMIEU
        details = f"boundary exponent with stable rate c ~ {c_full:.4f}"
    return MembershipReport(
        verdict=verdict,
        alpha=alpha,
        target_exponent=target,
        fit=fit,
        rate_trend=trend,
        details=details,
    )


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
    if N_max < 1:
        raise DomainError(f"N_max must be >= 1, got {N_max}")
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

@dataclass(frozen=True)
class GridSpec:
    """Search grid for orthant suprema: a log-spaced grid (plus the boundary
    point 0) refined locally around the running maximum."""

    low: float = 1e-3
    high: float = 100.0
    points: int = 200
    refine_rounds: int = 8
    refine_points: int = 33


def _axis_grid(spec: GridSpec) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(spec.low, spec.high, spec.points)])


def schwartz_seminorm(
    f: ScalarField,
    k,
    p,
    grid: GridSpec | None = None,
) -> float:
    """Grid supremum of x^k |D^p f(x)| over the closed orthant.

    Reported as a lower bound of the true supremum: the coarse log-spaced grid
    is refined around the located maximum, shrinking the search box each round.
    """
    grid = grid or GridSpec()
    k = tuple(int(v) for v in k)
    p = tuple(int(v) for v in p)
    if len(k) != f.dim or len(p) != f.dim:
        raise DomainError("seminorm multi-indices must match the field dimension")

    if any(v > 0 for v in p):
        if f.partial is None:
            raise DomainError("field does not supply high-order partial derivatives")
        df = lambda x: f.partial(p, x)
    else:
        df = f.evaluator

    def g(x):
        mono = 1.0
        for xj, kj in zip(x, k):
            mono *= xj ** kj
        return mono * abs(float(df(np.asarray(x, dtype=float))))

    axis = _axis_grid(grid)
    if f.dim == 1:
        pts = axis[:, None]
    else:
        mesh = np.meshgrid(*([axis[:: max(1, len(axis) // 40)]] * f.dim), indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
    vals = np.array([g(x) for x in pts])
    best = int(np.argmax(vals))
    best_x = pts[best].copy()
    best_val = float(vals[best])

    width = np.full(f.dim, (grid.high - grid.low) / grid.points * 4.0)
    width = np.maximum(width, best_x * 0.1 + 1e-3)
    for _ in range(grid.refine_rounds):
        for j in range(f.dim):
            lo = max(0.0, best_x[j] - width[j])
            hi = best_x[j] + width[j]
            for xj in np.linspace(lo, hi, grid.refine_points):
                cand = best_x.copy()
                cand[j] = xj
                val = g(cand)
                if val > best_val:
                    best_val = val
                    best_x = cand
        width *= 0.2
    return best_val


@dataclass(frozen=True)
class GTypeReport:
    """Truncated derivative-based seminorm: the running maximum of the
    weighted L2 ratios over derivative/monomial orders up to P."""

    value: float
    argmax: tuple[tuple[int, ...], tuple[int, ...]]
    running_max: list[float]
    increments: list[float]


def gtype_seminorm(
    f: ScalarField,
    params: SpaceParams,
    P: int = 6,
    rule: QuadratureRule | None = None,
) -> GTypeReport:
    """Maximum over |p|, |k| <= P of

        ||x^{(p+k)/2} D^p f||_{L2} / (A^{|p|+|k|} k^{(alpha/2)k} p^{(alpha/2)p})

    with the convention 0^0 = 1 in the denominator factors.  The true
    supremum over all orders is not computable; the report carries the
    running maximum per order so saturation is visible.
    """
    if f.partial is None:
        raise DomainError("field does not supply high-order partial derivatives")
    if P < 0:
        raise DomainError(f"max order must be >= 0, got {P}")
    rule = rule or gauss_laguerre_rule(128)
    log_A = math.log(params.scale)
    half_alpha = params.alpha / 2.0

    def log_weighted_power(idx):
        # log of prod_j idx_j^{(alpha/2) idx_j}, 0^0 = 1
        return half_alpha * sum(v * math.log(v) for v in idx if v > 0)

    p_list = list(total_degree_indices(f.dim, P))
    k_list = list(total_degree_indices(f.dim, P))
    best_val = 0.0
    best_pair = (p_list[0], k_list[0])
    per_order = {}
    for p in p_list:
        for k in k_list:
            def integrand(x, _p=p, _k=k):
                mono = 1.0
                for xj, pj, kj in zip(x, _p, _k):
                    mono *= xj ** (pj + kj)
                dval = float(f.partial(_p, x))
                return mono * dval * dval

            sq = integrate_orthant(integrand, rule, f.dim)
            sq = max(sq, 0.0)
            log_num = 0.5 * math.log(sq) if sq > 0 else -math.inf
            log_den = (sum(p) + sum(k)) * log_A + log_weighted_power(k) + log_weighted_power(p)
            ratio = 0.0 if log_num == -math.inf else math.exp(log_num - log_den)
            order = max(sum(p), sum(k))
            per_order[order] = max(per_order.get(order, 0.0), ratio)
            if ratio > best_val:
                best_val = ratio
                best_pair = (p, k)
    running = []
    cur = 0.0
    for order in range(P + 1):
        cur = max(cur, per_order.get(order, 0.0))
        running.append(cur)
    increments = [running[0]] + [running[i] - running[i - 1] for i in range(1, len(running))]
    return GTypeReport(value=best_val, argmax=best_pair, running_max=running, increments=increments)


def sigma_seminorm(
    f: ScalarField,
    params: SpaceParams,
    j: int | None = None,
    P: int = 6,
    rule: QuadratureRule | None = None,
    grid: GridSpec | None = None,
) -> float:
    """Full seminorm at order j: the weighted-derivative part plus the
    supremum part max over |p| <= j, |k| <= j of sup_x x^k |D^p f|."""
    j = P if j is None else j
    gt = gtype_seminorm(f, params, P=P, rule=rule)
    sup_part = 0.0
    for p in total_degree_indices(f.dim, j):
        for k in total_degree_indices(f.dim, j):
            sup_part = max(sup_part, schwartz_seminorm(f, k, p, grid=grid))
    return gt.value + sup_part
