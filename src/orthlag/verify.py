"""Self-check suite: the library's invariants evaluated at fixed seeds, with
measured versus allowed tolerances.  Exposed through the `verify` CLI
subcommand so the checks are user-runnable on any install.

A check returns (name, measured, allowed), or a list of these; `run_suite`
passes it when measured <= allowed, under the `SUITES` key it is listed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, fields, operators, quadrature, transform
from .core import exp_or_inf, laguerre_fn_derivative_sweep, laguerre_fn_sweep, truncation_index


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    allowed: float
    passed: bool


def _total_degree_template(dim, degree):
    """Zeros on the total-degree set, validated once per shape in a check."""
    index = truncation_index("total", dim, degree)
    return transform.CoefficientField._from_arrays(dim, "total", degree, index, np.zeros(len(index)))


def _random_field(rng, template):
    # the same draws as one call per term, in `truncation_index` order
    return template.with_values(rng.uniform(-1.0, 1.0, size=template.values.size))


# --- core ------------------------------------------------------------------

def check_recurrence_consistency():
    worst = 0.0
    for x in (0.1, 1.0, 10.0, 50.0):
        l = laguerre_fn_sweep(61, x)[:, 0]
        for j in range(1, 60):
            resid = abs((j + 1) * l[j + 1] - (2 * j + 1 - x) * l[j] + j * l[j - 1])
            worst = max(worst, resid / max(1.0, abs(l[j])))
    return "three-term recurrence residual", worst, 1e-12


def _unit_field(n):
    """The field l_n: the single term a_n = 1."""
    return transform.CoefficientField(len(n), "total", sum(n), {tuple(n): 1.0})


def check_boundary_values():
    worst = 0.0
    for n in [(0,), (5,), (17,), (2, 3), (0, 7, 4)]:
        worst = max(worst, abs(transform.synthesize(_unit_field(n), np.zeros((1, len(n))))[0] - 1.0))
    return "value 1 at the orthant corner", worst, 1e-13


def check_ode_residual():
    xs = np.geomspace(1e-3, 80.0, 200)
    l, dl, ddl = laguerre_fn_derivative_sweep(40, xs)
    worst = 0.0
    for j in range(41):
        resid = xs * ddl[j] + dl[j] - (xs / 4.0) * l[j] + 0.5 * l[j] + j * l[j]
        worst = max(worst, float(np.max(np.abs(resid))))
    return "eigen-ODE pointwise residual (j <= 40)", worst, 1e-8


def check_tensor_factorization():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n = tuple(rng.integers(0, 9, size=3))
        x = rng.uniform(0.0, 30.0, size=3)
        prod = 1.0
        for nj, xj in zip(n, x):
            prod *= laguerre_fn_sweep(nj, xj)[nj, 0]
        worst = max(worst, abs(transform.synthesize(_unit_field(n), x[None, :])[0] - prod))
    return "tensor-product factorization", worst, 1e-14


# --- quadrature ------------------------------------------------------------

def check_moment_exactness():
    worst = 0.0
    for K in (4, 8, 16):
        rule = quadrature.gauss_laguerre_rule(K)
        for m in range(2 * K):
            approx = float(np.sum(rule.weights * rule.nodes ** m))
            worst = max(worst, abs(approx - math.factorial(m)) / math.factorial(m))
    return "moment exactness m <= 2K-1", worst, 1e-10


def check_weight_sum():
    worst = 0.0
    for K in (1, 8, 64, 256):
        rule = quadrature.gauss_laguerre_rule(K)
        worst = max(worst, abs(float(np.sum(rule.weights)) - 1.0))
    return "weights sum to 1", worst, 1e-13


def check_gram_identity():
    rule = quadrature.gauss_laguerre_rule(64)
    V = laguerre_fn_sweep(32, rule.nodes)
    G = (V * rule.modified_weights) @ V.T
    worst = float(np.max(np.abs(G - np.eye(33))))
    return "Gram matrix vs identity (M = 32)", worst, 1e-10


MOMENT_ROWS = 128  # log-sum-exp rows per block: 0.5 MiB at K = 512


def check_log_space_moments():
    # the moments in log form reach the nodes whose bare weight underflows;
    # each row's log-sum-exp is its 1-D value to the bit
    K = 512
    rule = quadrature.gauss_laguerre_rule(K)
    log_w = rule.log_modified_weights - rule.nodes
    log_x = np.log(rule.nodes)
    worst = 0.0
    for lo in range(0, 2 * K, MOMENT_ROWS):
        m = np.arange(lo, min(lo + MOMENT_ROWS, 2 * K))
        exact = np.array([math.lgamma(k + 1) for k in m.tolist()])
        lse = operators._logsumexp(log_w + np.multiply.outer(m.astype(np.float64), log_x))
        worst = max(worst, float(np.max(np.abs(lse - exact) / np.maximum(1.0, exact))))
    return f"log-space moments m <= 2K-1 (K = {K})", worst, 1e-12


# --- transform ---------------------------------------------------------------

def check_exp_decay_coefficients():
    rule = quadrature.gauss_laguerre_rule(64)
    a = transform.analyze(fields.exp_decay_field(1), 20, rule)
    worst1 = max(
        abs(a.get((n,)) - (2.0 / 3.0) * (1.0 / 3.0) ** n) for n in range(21)
    )
    a2 = transform.analyze(fields.exp_decay_field(2), 12, rule)
    worst2 = max(
        abs(a2.get(n) - (2.0 / 3.0) ** 2 * (1.0 / 3.0) ** sum(n))
        for n in truncation_index("total", 2, 12).tolist()
    )
    return [("e^{-x} coefficients (1-D)", worst1, 1e-10), ("e^{-x1-x2} coefficients (2-D)", worst2, 1e-9)]


def check_parseval():
    rule = quadrature.gauss_laguerre_rule(64)
    f = fields.exp_decay_field(1)
    a = transform.analyze(f, 40, rule)
    sq = quadrature.integrate_orthant(lambda x: f.evaluator(x) ** 2, rule, 1)
    gap = abs(transform.parseval_l2_norm(a) ** 2 - sq)
    return "Parseval vs quadrature of f^2", gap, 1e-12


def check_linearity():
    rule = quadrature.gauss_laguerre_rule(48)
    f = fields.exp_decay_field(1)
    g = fields.poly_exp_field([1.0, 1.0])
    alpha, beta = 0.7, -1.3
    combo = transform.ScalarField(
        dim=1, evaluator=lambda x: alpha * f.evaluator(x) + beta * g.evaluator(x)
    )
    af = transform.analyze(f, 20, rule)
    ag = transform.analyze(g, 20, rule)
    ac = transform.analyze(combo, 20, rule)
    worst = float(np.max(np.abs(ac.values - (alpha * af.values + beta * ag.values))))
    return "analyze linearity", worst, 1e-12


def check_roundtrip():
    rng = np.random.default_rng(5)
    rule = quadrature.gauss_laguerre_rule(48)
    a = _random_field(rng, _total_degree_template(1, 20))
    fa = transform.as_scalar_field(a)
    back = transform.analyze(fa, 20, rule)
    worst = float(np.max(np.abs(back.values - a.values)))
    return "analyze(synthesize(a)) roundtrip", worst, 1e-10


# --- operator ----------------------------------------------------------------

def check_spectral_pointwise():
    rng = np.random.default_rng(17)
    templates = {d: _total_degree_template(d, 12) for d in (1, 2)}
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 3))
        a = _random_field(rng, templates[d])
        pts = rng.uniform(0.0, 15.0, size=(50, d))
        pointwise = operators.apply_E_pointwise(transform.as_scalar_field(a), pts)
        spectral = transform.synthesize(operators.apply_E_spectral(a, 1), pts)
        worst = max(worst, float(np.max(np.abs(pointwise - spectral))))
    return "pointwise vs spectral application", worst, 1e-7


def _max_rel_gap(one, two):
    """max |one_n - two_n| / max(1, |two_n|) over two fields with the same terms."""
    return float(np.max(np.abs(one.values - two.values) / np.maximum(1.0, np.abs(two.values))))


def check_semigroup_law():
    rng = np.random.default_rng(23)
    template = _total_degree_template(2, 10)
    worst = 0.0
    for _ in range(20):
        a = _random_field(rng, template)
        s, t = rng.uniform(0.0, 2.0, size=2)
        one = operators.semigroup_propagate(operators.semigroup_propagate(a, s), t)
        two = operators.semigroup_propagate(a, s + t)
        worst = max(worst, _max_rel_gap(one, two))
    return "semigroup law e^{-sE} e^{-tE} = e^{-(s+t)E}", worst, 1e-13


def check_commutation():
    rng = np.random.default_rng(29)
    template = _total_degree_template(2, 10)
    worst = 0.0
    for _ in range(20):
        a = _random_field(rng, template)
        t = float(rng.uniform(0.0, 2.0))
        N = int(rng.integers(0, 5))
        one = operators.apply_E_spectral(operators.semigroup_propagate(a, t), N)
        two = operators.semigroup_propagate(operators.apply_E_spectral(a, N), t)
        worst = max(worst, _max_rel_gap(one, two))
    return "iterates commute with the semigroup", worst, 1e-13


def check_iterate_norm_logspace():
    rng = np.random.default_rng(31)
    template = _total_degree_template(1, 15)
    worst = 0.0
    for _ in range(10):
        a = _random_field(rng, template)
        for N in (0, 1, 3, 6):
            naive = math.sqrt(
                math.fsum((m ** (2 * N) if m or N == 0 else 0.0) * v * v
                          for m, v in zip(a.orders.tolist(), a.values.tolist()))
            )
            val = exp_or_inf(operators.log_iterate_norm(a, N))
            worst = max(worst, abs(val - naive) / max(naive, 1e-300))
    return "log-space iterate norm vs naive sum", worst, 1e-10


# --- analysis ----------------------------------------------------------------

def check_eta_eigenfunction():
    worst = 0.0
    for p in (1, 3, 7):
        a = _unit_field((p,))
        for h in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0, 2.0):
                res = analysis.eta_seminorm(a, analysis.SpaceParams(alpha, h), 60)
                direct = max((p / h) ** N / math.factorial(N) ** alpha for N in range(1, 61))
                worst = max(worst, abs(res.value - direct) / direct)
    return "eigenfunction ratio formula", worst, 1e-12


def check_eta_monotonicity():
    rng = np.random.default_rng(37)
    template = _total_degree_template(1, 15)
    bad = 0.0
    for _ in range(100):
        a = _random_field(rng, template)
        e_small_h = analysis.eta_seminorm(a, analysis.SpaceParams(1.0, 0.5), 30).value
        e_big_h = analysis.eta_seminorm(a, analysis.SpaceParams(1.0, 2.0), 30).value
        e_small_al = analysis.eta_seminorm(a, analysis.SpaceParams(0.5, 1.0), 30).value
        e_big_al = analysis.eta_seminorm(a, analysis.SpaceParams(2.0, 1.0), 30).value
        if e_big_h > e_small_h or e_big_al > e_small_al:
            bad += 1.0
    return "eta nonincreasing in h and alpha", bad, 0.0


def check_norm_ordering():
    rng = np.random.default_rng(41)
    bad = 0.0
    params = analysis.SpaceParams(1.0, 1.0)
    template = _total_degree_template(1, 12)
    for _ in range(100):
        a = _random_field(rng, template)
        n_inf, n_2, n_1 = (exp_or_inf(analysis.log_weighted_seq_norm(a, params, p)) for p in (math.inf, 2, 1))
        if not (n_inf <= n_2 <= n_1):
            bad += 1.0
    return "weighted norm ordering linf <= l2 <= l1", bad, 0.0


def check_equivalence_bound():
    rng = np.random.default_rng(43)
    template = _total_degree_template(1, 20)
    worst = 0.0
    for _ in range(100):
        a = _random_field(rng, template)
        rep = analysis.norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1.0)
        worst = max(worst, rep.ratio / rep.constant)
    return "norm-equivalence ratio within constant", worst, 1.0


def check_decay_fit():
    worst_t, worst_c = 0.0, 0.0
    for c_true in (1.0, 2.0):
        for t_true in (0.5, 2.0 / 3.0, 1.0):
            entries = {
                (m,): math.exp(-c_true * m ** t_true) if c_true * m ** t_true < 700 else 0.0
                for m in range(401)
            }
            a = transform.CoefficientField(1, "total", 400, entries)
            fit = analysis.estimate_decay_params(a)
            worst_t = max(worst_t, abs(fit.exponent - t_true))
            worst_c = max(worst_c, abs(fit.c_hat - c_true))
    measured = max(worst_t / 0.03, worst_c / 0.05)
    return "decay fit recovers (c, t)", measured, 1.0


def check_classifier_scaling():
    entries = {(m,): math.exp(-2.0 * math.sqrt(m)) for m in range(201)}
    a = transform.CoefficientField(1, "total", 200, entries)
    scaled = a.with_values(-137.5 * a.values)
    same = analysis.classify_membership(a, 2.0).verdict == analysis.classify_membership(scaled, 2.0).verdict
    return "classifier scale invariance", 0.0 if same else 1.0, 0.0


SUITES = {
    "core": [
        check_recurrence_consistency,
        check_boundary_values,
        check_ode_residual,
        check_tensor_factorization,
    ],
    "quadrature": [
        check_moment_exactness,
        check_weight_sum,
        check_gram_identity,
        check_log_space_moments,
    ],
    "transform": [
        check_exp_decay_coefficients,
        check_parseval,
        check_linearity,
        check_roundtrip,
    ],
    "operator": [
        check_spectral_pointwise,
        check_semigroup_law,
        check_commutation,
        check_iterate_norm_logspace,
    ],
    "analysis": [
        check_eta_eigenfunction,
        check_eta_monotonicity,
        check_norm_ordering,
        check_equivalence_bound,
        check_decay_fit,
        check_classifier_scaling,
    ],
}


def run_suite(name: str = "all") -> list[CheckResult]:
    """The results of one suite's checks, or of every suite's for "all"."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {['all', *SUITES]}")
    suites = SUITES if name == "all" else {name: SUITES[name]}
    results = []
    for suite, checks in suites.items():
        for fn in checks:
            out = fn()
            for check, measured, allowed in out if isinstance(out, list) else [out]:
                results.append(CheckResult(suite, check, float(measured), float(allowed),
                                           bool(measured <= allowed)))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.suite:>10s} | {r.name:<{width}s} | measured {r.measured:.6e}"
            f" | allowed {r.allowed:.6e}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
