"""The oracles agree with closed forms computed another way."""

import math

import numpy as np
import pytest
from numpy.polynomial import laguerre as nlag
from numpy.polynomial import polynomial as npoly

import oracles as orc


def _coeffs_by_quadrature(f, degree, K=100):
    """a_n = int_0^inf f(x) L_n(x) e^{-x/2} dx by NumPy's Gauss-Laguerre rule."""
    x, w = nlag.laggauss(K)
    basis = np.array([nlag.lagval(x, np.eye(degree + 1)[n]) for n in range(degree + 1)])
    return basis @ (w * np.exp(x / 2.0) * f(x))


def test_exp_decay_oracle_is_the_transform_of_exp():
    idx = orc.total_degree_set(1, 12)
    got = orc.exp_decay_coeffs(idx)
    want = _coeffs_by_quadrature(lambda x: np.exp(-x), 12)
    assert np.max(np.abs(got - want)) < 1e-11  # the quadrature itself is good to ~1e-12


def test_exp_decay_oracle_is_a_product_across_axes():
    idx = orc.total_degree_set(3, 5)
    one = orc.exp_decay_coeffs(orc.total_degree_set(1, 5))
    assert np.allclose(orc.exp_decay_coeffs(idx), np.prod(one[idx], axis=1), rtol=1e-15)


def test_poly_exp_oracle_resums_to_the_polynomial():
    c = [0.5, -1.25, 2.0, 0.125]
    idx = orc.total_degree_set(1, 10)
    coeffs = orc.poly_exp_coeffs(idx, c)
    x = np.linspace(0.0, 30.0, 50)
    assert np.allclose(nlag.lagval(x, coeffs), npoly.polyval(x, c), rtol=1e-12, atol=1e-9)
    want = _coeffs_by_quadrature(lambda x: npoly.polyval(x, c) * np.exp(-x / 2.0), 10)
    assert np.max(np.abs(coeffs - want)) < 1e-10


def test_unit_oracle():
    idx = orc.total_degree_set(2, 4)
    u = orc.unit_coeffs(idx, [1, 2])
    assert u.sum() == 1.0 and tuple(idx[u == 1.0][0]) == (1, 2)


def test_eta_reference_matches_the_eigenfunction_formula():
    # a single coefficient at |n| = p: ||E^N f|| = p^N
    for p in (1, 3, 7):
        idx = orc.total_degree_set(1, 8)
        vals = orc.unit_coeffs(idx, [p])
        for h, alpha in ((0.6, 1.0), (1.7, 0.5), (1.1, 2.0)):  # no ties in N
            log_val, argmax, _ = orc.eta_reference(idx, vals, alpha, h, 60)
            direct = [(p / h) ** N / math.factorial(N) ** alpha for N in range(1, 61)]
            assert math.exp(log_val) == pytest.approx(max(direct), rel=1e-12)
            assert argmax == int(np.argmax(direct)) + 1


def test_weighted_norm_reference_matches_a_direct_sum():
    rng = np.random.default_rng(0)
    idx = orc.total_degree_set(2, 6)
    vals = rng.uniform(-1.0, 1.0, len(idx))
    alpha, h = 0.8, 1.3
    w = np.abs(vals) * np.exp(h * idx.sum(axis=1) ** (1.0 / (2.0 * alpha)))
    for p, direct in ((1.0, w.sum()), (2.0, math.sqrt((w ** 2).sum())), (math.inf, w.max())):
        assert math.exp(orc.log_weighted_norm(idx, vals, alpha, h, p)) == \
            pytest.approx(direct, rel=1e-13)


def test_spectral_references():
    idx = orc.total_degree_set(2, 3)
    vals = np.arange(1.0, len(idx) + 1)
    m = idx.sum(axis=1)
    assert np.array_equal(orc.power_coeffs(idx, vals, 0), vals)
    assert np.array_equal(orc.power_coeffs(idx, vals, 2), vals * m ** 2)
    assert np.allclose(orc.semigroup_coeffs(idx, vals, 0.5), vals * np.exp(-0.5 * m))


def test_expected_verdict():
    assert orc.expected_verdict(0.8, 1.0 / 0.6, -0.2) == "beurling"
    assert orc.expected_verdict(0.6, 1.0 / 0.8, 0.2) == "not_member"
    assert orc.expected_verdict(0.7, 1.0 / 0.7, 0.0) == "roumieu"


def test_relative_error_and_digits():
    assert orc.rel_err([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert orc.digits(0.0) == 16.0
    assert orc.digits(1e-8) == pytest.approx(8.0)
    # exp(L) with L = 500: a relative error of 500 eps is full precision
    assert orc.exp_rel_err(math.exp(500.0) * (1 + 500 * 2e-16), 500.0) == pytest.approx(2e-16)
