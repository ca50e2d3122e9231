"""The self-check suite: each check's suite comes from `SUITES`, and a check
that misses its bound is a [FAIL] line with exit 3, not a traceback."""

import math

import numpy as np
import pytest

from orthlag import analysis, quadrature, verify
from orthlag.cli import main
from orthlag.operators import _logsumexp
from orthlag.core import truncation_index
from orthlag.transform import CoefficientField
from orthlag.verify import SUITES, check_log_space_moments, run_suite

ALL_CHECKS = [
    ("core", "three-term recurrence residual"),
    ("core", "value 1 at the orthant corner"),
    ("core", "eigen-ODE pointwise residual (j <= 40)"),
    ("core", "tensor-product factorization"),
    ("quadrature", "moment exactness m <= 2K-1"),
    ("quadrature", "weights sum to 1"),
    ("quadrature", "Gram matrix vs identity (M = 32)"),
    ("quadrature", "log-space moments m <= 2K-1 (K = 512)"),
    ("transform", "e^{-x} coefficients (1-D)"),
    ("transform", "e^{-x1-x2} coefficients (2-D)"),
    ("transform", "Parseval vs quadrature of f^2"),
    ("transform", "analyze linearity"),
    ("transform", "analyze(synthesize(a)) roundtrip"),
    ("operator", "pointwise vs spectral application"),
    ("operator", "semigroup law e^{-sE} e^{-tE} = e^{-(s+t)E}"),
    ("operator", "iterates commute with the semigroup"),
    ("operator", "log-space iterate norm vs naive sum"),
    ("analysis", "eigenfunction ratio formula"),
    ("analysis", "eta nonincreasing in h and alpha"),
    ("analysis", "weighted norm ordering linf <= l2 <= l1"),
    ("analysis", "norm-equivalence ratio within constant"),
    ("analysis", "decay fit recovers (c, t)"),
    ("analysis", "classifier scale invariance"),
]


def test_every_check_in_order_under_its_suite():
    results = run_suite("all")
    assert [(r.suite, r.name) for r in results] == ALL_CHECKS
    assert all(r.passed for r in results)


@pytest.mark.parametrize("suite", list(SUITES))
def test_one_suite_runs_its_own_checks(suite):
    assert [(r.suite, r.name) for r in run_suite(suite)] == [c for c in ALL_CHECKS if c[0] == suite]


def test_unknown_suite():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")


def test_a_broken_equivalence_bound_is_a_fail_line(monkeypatch, capsys):
    real = analysis.log_weighted_seq_norm

    def inflated_l2(a, params, p):  # the l2 norm e^50 times too large
        return real(a, params, p) + (50.0 if p == 2 else 0.0)

    monkeypatch.setattr(analysis, "log_weighted_seq_norm", inflated_l2)
    a = CoefficientField(1, "total", 3, {(0,): 1.0, (2,): -0.5})
    rep = analysis.norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1.0)  # reports, does not raise
    assert math.isfinite(rep.ratio) and rep.ratio > rep.constant
    assert main(["verify", "--suite", "analysis"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert any("norm-equivalence ratio within constant" in line for line in failed)
    assert out.splitlines()[-1].endswith("checks passed")


def test_blocked_log_space_moments_measure_the_per_moment_loop():
    # the reference: one 1-D log-sum-exp per moment m
    K = 512
    rule = quadrature.gauss_laguerre_rule(K)
    log_w = rule.log_modified_weights - rule.nodes
    log_x = np.log(rule.nodes)
    worst = 0.0
    for m in range(2 * K):
        exact = math.lgamma(m + 1)
        worst = max(worst, abs(_logsumexp(log_w + m * log_x) - exact) / max(1.0, exact))
    name, measured, allowed = check_log_space_moments()
    assert measured.hex() == worst.hex()
    assert (name, allowed) == (f"log-space moments m <= 2K-1 (K = {K})", 1e-12)


def validated_random_field(rng, template):
    """The random field built by one validated, sorted construction per draw."""
    index = truncation_index("total", template.dim, template.degree)
    values = rng.uniform(-1.0, 1.0, size=len(index))
    return CoefficientField._from_arrays(template.dim, "total", template.degree, index, values)


@pytest.mark.parametrize("dim,degree", [(1, 12), (1, 15), (1, 20), (2, 10), (2, 12), (3, 4)])
def test_template_fields_are_the_validated_fields(dim, degree):
    template = verify._total_degree_template(dim, degree)
    one, two = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(5):
        assert verify._random_field(one, template) == validated_random_field(two, template)


def test_the_checks_on_random_fields_measure_what_validated_fields_give(monkeypatch):
    suites = ("transform", "operator", "analysis")
    fast = [r for suite in suites for r in run_suite(suite)]
    monkeypatch.setattr(verify, "_random_field", validated_random_field)
    assert fast == [r for suite in suites for r in run_suite(suite)]
