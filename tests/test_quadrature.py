import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from orthlag.core import DomainError, laguerre_fn_sweep
from orthlag.quadrature import (
    default_rule_size,
    gauss_laguerre_rule,
    integrate_orthant,
)


class TestRuleConstruction:
    def test_one_point_rule(self):
        rule = gauss_laguerre_rule(1)
        assert rule.nodes == pytest.approx([1.0])
        assert rule.weights == pytest.approx([1.0])

    def test_two_point_nodes(self):
        # roots of L_2(x) = (x^2 - 4x + 2)/2
        rule = gauss_laguerre_rule(2)
        assert rule.nodes == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], rel=1e-14)

    def test_two_point_cubic_exactness(self):
        rule = gauss_laguerre_rule(2)
        assert float(np.sum(rule.weights * rule.nodes**3)) == pytest.approx(6.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        for K in (1, 5, 40, 200):
            rule = gauss_laguerre_rule(K)
            assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)

    def test_nodes_positive_and_increasing(self):
        rule = gauss_laguerre_rule(100)
        assert rule.nodes[0] > 0
        assert np.all(np.diff(rule.nodes) > 0)

    @pytest.mark.parametrize("K", [0, -3, 513, 2.5])
    def test_rejects_bad_sizes(self, K):
        with pytest.raises(DomainError):
            gauss_laguerre_rule(K)

    def test_matches_reference_rule(self):
        xs, ws = np.polynomial.laguerre.laggauss(30)
        rule = gauss_laguerre_rule(30)
        assert rule.nodes == pytest.approx(xs, abs=1e-12)
        assert rule.weights == pytest.approx(ws, abs=1e-13)


class TestMomentExactness:
    @pytest.mark.parametrize("K", [4, 8, 16])
    def test_factorial_moments(self, K):
        rule = gauss_laguerre_rule(K)
        for m in range(2 * K):
            approx = float(np.sum(rule.weights * rule.nodes**m))
            assert approx == pytest.approx(math.factorial(m), rel=1e-10)


class TestModifiedWeights:
    def test_finite_and_positive_up_to_max_size(self):
        for K in (64, 256, 512):
            rule = gauss_laguerre_rule(K)
            mw = rule.modified_weights
            assert np.all(np.isfinite(rule.log_modified_weights))
            assert np.all(np.isfinite(mw)) and np.all(mw > 0)

    def test_consistent_with_bare_weights(self):
        rule = gauss_laguerre_rule(40)
        assert rule.modified_weights == pytest.approx(
            rule.weights * np.exp(rule.nodes), rel=1e-12
        )


    @pytest.mark.parametrize("K", [416, 512])
    def test_log_space_moments_up_to_degree_2K_minus_1(self, K):
        # log sum_k w_k x_k^m = log m!, with w_k from the log-modified weights,
        # so the nodes whose bare weight underflows count as well
        rule = gauss_laguerre_rule(K)
        log_w = rule.log_modified_weights - rule.nodes
        log_x = np.log(rule.nodes)
        worst = 0.0
        for m in range(2 * K):
            terms = log_w + m * log_x
            top = terms.max()
            lse = top + math.log(float(np.sum(np.exp(terms - top))))
            exact = math.lgamma(m + 1)
            worst = max(worst, abs(lse - exact) / max(1.0, exact))
        assert worst <= 1e-12

    @pytest.mark.parametrize("K", [1, 2, 30, 136, 512])
    def test_matches_eigenvector_rule(self, K):
        # reference: nodes and squared first eigenvector components of the
        # Jacobi matrix, compared where that weight is a normal binary64 number
        nodes, vecs = eigh_tridiagonal(
            2.0 * np.arange(K) + 1.0, np.arange(1.0, K), lapack_driver="stev"
        )
        with np.errstate(under="ignore"):
            weights = vecs[0] ** 2
        normal = weights >= np.finfo(float).tiny
        rule = gauss_laguerre_rule(K)
        assert rule.nodes == pytest.approx(nodes, rel=1e-10)
        assert rule.log_modified_weights[normal] == pytest.approx(
            np.log(weights[normal]) + nodes[normal], abs=1e-10
        )


class TestGramProperty:
    @pytest.mark.parametrize("M,K", [(8, 9), (16, 20), (32, 64)])
    def test_orthonormality(self, M, K):
        rule = gauss_laguerre_rule(K)
        V = laguerre_fn_sweep(M, rule.nodes)
        G = (V * rule.modified_weights) @ V.T
        assert np.max(np.abs(G - np.eye(M + 1))) <= 1e-10


class TestIntegrateOrthant:
    def test_unit_mass_1d(self):
        rule = gauss_laguerre_rule(40)
        val = integrate_orthant(lambda x: math.exp(-x[0]), rule, 1)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_unit_mass_2d(self):
        rule = gauss_laguerre_rule(40)
        val = integrate_orthant(lambda x: math.exp(-x[0] - x[1]), rule, 2)
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_ground_state_normalization(self):
        rule = gauss_laguerre_rule(40)
        val = integrate_orthant(lambda x: math.exp(-x[0]), rule, 1)  # l_0^2 = e^{-x}
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_three_dimensional_streaming(self):
        rule = gauss_laguerre_rule(12)
        val = integrate_orthant(lambda x: math.exp(-x.sum()), rule, 3)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_non_finite_integrand_reports_node(self):
        rule = gauss_laguerre_rule(8)
        with pytest.raises(DomainError, match="non-finite"):
            integrate_orthant(lambda x: math.inf, rule, 1)

    def test_repeated_integral_is_bitwise_identical(self):
        rule = gauss_laguerre_rule(24)
        f = lambda x: math.sin(x[0]) * math.exp(-x[0] - x[1])
        first = integrate_orthant(f, rule, 2)
        assert all(integrate_orthant(f, rule, 2) == first for _ in range(3))
        # the correctly rounded sum of the weighted node values, in any order
        w = rule.modified_weights
        terms = [w[i] * w[j] * f(np.array([rule.nodes[i], rule.nodes[j]]))
                 for j in range(rule.size) for i in range(rule.size)]
        assert first == math.fsum(terms)


def test_default_rule_size_margin():
    assert default_rule_size(20) == 36
    assert default_rule_size(510) == 512
