"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test prints a single PASS/FAIL line so the suite doubles as a report:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

from orthlag.analysis import (
    SpaceParams,
    VERDICT_BEURLING,
    VERDICT_NOT_MEMBER,
    VERDICT_ROUMIEU,
    classify_membership,
    estimate_decay_params,
    eta_seminorm,
    gtype_seminorm,
    norm_equivalence_gap,
    weighted_seq_norm,
)
from orthlag.core import laguerre_fn_derivative_sweep, laguerre_fn_sweep, truncation_index
from orthlag.fields import exp_decay_field
from orthlag.operators import apply_E_pointwise, apply_E_spectral, semigroup_propagate
from orthlag.quadrature import gauss_laguerre_rule
from orthlag.transform import CoefficientField, analyze, as_scalar_field, parseval_l2_norm, synthesize
from orthlag.verify import format_report, run_suite


def report(number, label, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def random_field(rng, dim, degree):
    entries = {n: rng.uniform(-1, 1) for n in map(tuple, truncation_index("total", dim, degree).tolist())}
    return CoefficientField(dim, "total", degree, entries)


def stretched_entries(c, t, degree=400, perturb=None):
    entries = {}
    for m in range(degree + 1):
        e = c * m**t
        v = math.exp(-e) if e < 700 else 0.0
        if perturb is not None and v != 0.0:
            v *= perturb[m]
        entries[(m,)] = v
    return CoefficientField(1, "total", degree, entries)


def test_criterion_1_orthonormality():
    start = time.perf_counter()
    rule = gauss_laguerre_rule(64)
    basis = laguerre_fn_sweep(32, rule.nodes)  # (33, 64)
    weighted = basis * rule.modified_weights
    gram = weighted @ basis.T
    deviation = np.max(np.abs(gram - np.eye(33)))
    elapsed = time.perf_counter() - start
    report(1, f"Gram matrix deviation {deviation:.2e} in {elapsed:.3f}s",
           deviation <= 1e-10 and elapsed < 1.0)


def test_criterion_2_eigenrelation_residual():
    xs = np.geomspace(80.0 / 200.0, 80.0, 200)
    l, dl, ddl = laguerre_fn_derivative_sweep(40, xs)
    worst = 0.0
    for j in range(41):
        resid = xs * ddl[j] + dl[j] - (xs / 4.0) * l[j] + 0.5 * l[j] + j * l[j]
        worst = max(worst, float(np.max(np.abs(resid))))
    report(2, f"ODE residual {worst:.2e} over j <= 40", worst <= 1e-8)


def test_criterion_3_spectral_vs_pointwise():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        dim = 1 + trial % 2
        a = random_field(rng, dim, 12)
        fa = as_scalar_field(a)
        pts = rng.uniform(0.0, 15.0, size=(50, dim))
        spec = synthesize(apply_E_spectral(a, 1), pts)
        worst = max(worst, float(np.max(np.abs(apply_E_pointwise(fa, pts) - spec))))
    report(3, f"operator agreement {worst:.2e} over 100 trials", worst <= 1e-7)


def test_criterion_4_closed_form_transform():
    rule = gauss_laguerre_rule(64)
    a1 = analyze(exp_decay_field(1), 20, rule)
    err1 = max(abs(a1.get((n,)) - (2 / 3) * (1 / 3) ** n) for n in range(21))
    a2 = analyze(exp_decay_field(2), 12, rule)
    err2 = max(
        abs(a2.get(n) - (2 / 3) ** 2 * (1 / 3) ** sum(n))
        for n in truncation_index("total", 2, 12).tolist()
    )
    report(4, f"coefficient errors 1-D {err1:.2e}, 2-D {err2:.2e}",
           err1 <= 1e-10 and err2 <= 1e-9)


def test_criterion_5_parseval():
    rule = gauss_laguerre_rule(64)
    a = analyze(exp_decay_field(1), 40, rule)
    gap = abs(parseval_l2_norm(a) ** 2 - 0.5)
    report(5, f"Parseval gap {gap:.2e}", gap <= 1e-12)


def test_criterion_6_eigenfunction_eta():
    worst = 0.0
    ok = True
    for p in (1, 3, 7):
        a = CoefficientField(1, "total", p, {(p,): 1.0})
        for h in (0.5, 1.0, 2.0):
            for alpha in (0.5, 1.0, 2.0):
                res = eta_seminorm(a, SpaceParams(alpha, h), 60)
                logs = [
                    N * (math.log(p) - math.log(h)) - alpha * gammaln(N + 1)
                    for N in range(1, 61)
                ]
                expected = math.exp(max(logs))
                worst = max(worst, abs(res.value - expected) / expected)
        # alpha = 0: the sup over all N is finite exactly when p <= h
        for h in (0.5, 1.0, 2.0, 7.0):
            res = eta_seminorm(a, SpaceParams(0.0, h), 60)
            ok = ok and (res.growing == (p > h))
    report(6, f"eta relative error {worst:.2e}, alpha=0 finiteness consistent",
           ok and worst <= 1e-12)


def test_criterion_7_decay_fit_recovery():
    start = time.perf_counter()
    worst_t = worst_c = 0.0
    for c in (1.0, 2.0):
        for t in (0.5, 2.0 / 3.0, 1.0):
            fit = estimate_decay_params(stretched_entries(c, t))
            worst_t = max(worst_t, abs(fit.exponent - t))
            worst_c = max(worst_c, abs(fit.c_hat - c))
    elapsed = time.perf_counter() - start
    report(7, f"fit errors t {worst_t:.3f}, c {worst_c:.3f} in {elapsed:.2f}s",
           worst_t <= 0.03 and worst_c <= 0.05 and elapsed < 5.0)


def test_criterion_8_membership_directional():
    rng = np.random.default_rng(7)
    families = [(c, t) for c in (1.0, 2.0) for t in (0.5, 2.0 / 3.0, 1.0)]
    hits = 0
    for trial in range(100):
        c, t = families[trial % len(families)]
        perturb = rng.uniform(0.5, 1.5, size=401)
        a = stretched_entries(c, t, perturb=perturb)
        roumieu = classify_membership(a, alpha=1.0 / t)
        beurling = classify_membership(a, alpha=2.0 / t)
        if roumieu.verdict == VERDICT_ROUMIEU and beurling.verdict == VERDICT_BEURLING:
            hits += 1
    poly = CoefficientField(
        1, "total", 400, {(m,): 1.0 / (1 + m) ** 2 for m in range(401)}
    )
    poly_ok = all(
        classify_membership(poly, alpha).verdict == VERDICT_NOT_MEMBER
        for alpha in (0.5, 1.0, 1.5, 2.0)
    )
    report(8, f"classifier agreement {hits}/100, polynomial rejected {poly_ok}",
           hits >= 95 and poly_ok)


def test_criterion_9_monotonicity_suite():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        a = random_field(rng, 1, 8)
        lo_h = eta_seminorm(a, SpaceParams(1.0, 0.5), 20).value
        hi_h = eta_seminorm(a, SpaceParams(1.0, 2.0), 20).value
        lo_al = eta_seminorm(a, SpaceParams(0.5, 1.0), 20).value
        hi_al = eta_seminorm(a, SpaceParams(2.0, 1.0), 20).value
        ok = ok and hi_h <= lo_h and hi_al <= lo_al
        params = SpaceParams(1.0, 1.0)
        n_inf = weighted_seq_norm(a, params, math.inf)
        n_2 = weighted_seq_norm(a, params, 2)
        n_1 = weighted_seq_norm(a, params, 1)
        ok = ok and n_inf <= n_2 <= n_1
        rep = norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1.0)
        ok = ok and rep.ratio <= rep.constant
    report(9, "eta/norm monotonicity and equivalence bound over 1000 sequences", ok)


def test_criterion_10_semigroup_laws():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        a = random_field(rng, 2, 8)
        s, t = rng.uniform(0.0, 3.0, size=2)
        one = semigroup_propagate(semigroup_propagate(a, s), t)
        two = semigroup_propagate(a, s + t)
        for n in a.entries:
            denom = max(abs(two.get(n)), 1e-300)
            worst = max(worst, abs(one.get(n) - two.get(n)) / denom)
        lhs = apply_E_spectral(semigroup_propagate(a, t), 3)
        rhs = semigroup_propagate(apply_E_spectral(a, 3), t)
        for n in a.entries:
            denom = max(abs(rhs.get(n)), 1e-300)
            worst = max(worst, abs(lhs.get(n) - rhs.get(n)) / denom)
    report(10, f"semigroup law deviation {worst:.2e}", worst <= 1e-13)


def test_criterion_11_verify_determinism():
    first = format_report(run_suite("all"))
    second = format_report(run_suite("all"))
    ok = first == second and "FAIL" not in first
    report(11, "verification report identical across runs", ok)


def test_criterion_12_gtype_transition_at_the_critical_index():
    # l_1 is in every Pilipovic space, but the G-type spaces are trivial
    # below alpha = 1: there the seminorm grows without bound in P, while at
    # alpha = 1 and 1.5 it is reached at low order and stays put
    l1 = CoefficientField(1, "total", 1, {(1,): 1.0})
    orders = (4, 8, 16, 24, 100)
    below = [gtype_seminorm(l1, SpaceParams(0.5, 1.0), P).log_running_max[-1] for P in orders]
    ok = all(math.isfinite(v) for v in below) and all(x < y for x, y in zip(below, below[1:]))
    for alpha, value in ((1.0, 1.871), (1.5, 1.732)):
        reps = [gtype_seminorm(l1, SpaceParams(alpha, 1.0), P) for P in orders]
        top = [rep.log_running_max[-1] for rep in reps]
        ok = ok and max(top) - min(top) <= 1e-12
        ok = ok and reps[0].value == pytest.approx(value, abs=5e-4)
    for alpha in (0.5, 1.0, 1.5):
        ok = ok and not eta_seminorm(l1, SpaceParams(alpha, 1.0), 60).growing
    report(12, f"l_1 G-type log seminorm at alpha=0.5 grows {below[0]:.3f} -> {below[-1]:.1f}"
               " over P <= 100; constant at alpha = 1, 1.5", ok)
