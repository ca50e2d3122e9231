import math
from itertools import product

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from orthlag.core import DomainError, laguerre_fn_sweep
from orthlag.fields import exp_decay_field
from orthlag.quadrature import (
    MAX_RULE_SIZE,
    QuadratureRule,
    _node_grid_values,
    _rule,
    default_rule_size,
    gauss_laguerre_rule,
    integrate_orthant,
)
from orthlag.transform import analyze


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

    @pytest.mark.parametrize("K", [0, -3, 513, 2.5, 3.0, math.nan, "3"])
    def test_rejects_bad_sizes(self, K):
        # decided before the per-size cache is reached, which holds ints only
        before = _rule.cache_info()
        with pytest.raises(DomainError):
            gauss_laguerre_rule(K)
        assert _rule.cache_info() == before

    def test_nodes_equal_the_tridiagonal_solver_bit_for_bit(self):
        # the dense eigvalsh and SciPy's tridiagonal route end in the same
        # LAPACK eigenvalue solver on the same matrix
        for K in range(1, MAX_RULE_SIZE + 1):
            want = eigvalsh_tridiagonal(2.0 * np.arange(K) + 1.0, np.arange(1.0, K))
            assert np.array_equal(gauss_laguerre_rule(K).nodes, want), K

    def test_one_rule_per_size(self):
        rule = gauss_laguerre_rule(37)
        assert gauss_laguerre_rule(37) is rule
        assert gauss_laguerre_rule(np.int64(37)) is rule
        assert gauss_laguerre_rule(np.uint16(37)) is rule
        assert gauss_laguerre_rule(38) is not rule

    @pytest.mark.parametrize("field", ["nodes", "log_modified_weights"])
    def test_shared_arrays_are_read_only(self, field):
        rule = gauss_laguerre_rule(9)
        before = getattr(rule, field).copy()
        with pytest.raises(ValueError, match="read-only"):
            getattr(rule, field)[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            getattr(rule, field)[...] *= 2.0
        assert np.array_equal(getattr(gauss_laguerre_rule(9), field), before)

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

    def test_grid_beyond_the_cap_is_a_domain_error(self):
        # 64^5 nodes: the node grid alone would hold 8 GiB
        with pytest.raises(DomainError, match=f"grid of {64 ** 5} points, above the cap"):
            integrate_orthant(lambda x: 1.0, gauss_laguerre_rule(64), 5)

    def test_a_grid_past_24_axes_is_named_without_its_count(self):
        # K >= 2 nodes in d > 24 axes make more than 2^24 points: K^d is not formed
        with pytest.raises(DomainError, match=r"grid of 2\^25 points, above the cap"):
            integrate_orthant(lambda x: 1.0, gauss_laguerre_rule(2), 25)
        with pytest.raises(DomainError, match=r"grid of 17\^3000000 points, above the cap"):
            integrate_orthant(lambda x: 1.0, gauss_laguerre_rule(17), 3_000_000)
        with pytest.raises(DomainError, match=f"grid of {3 ** 16} points, above the cap"):
            integrate_orthant(lambda x: 1.0, gauss_laguerre_rule(3), 16)
        # one node makes one point in any dimension
        one_node = integrate_orthant(lambda x: float(x.size), gauss_laguerre_rule(1), 40)
        assert one_node == pytest.approx(40 * math.e ** 40)

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


class TestNodeGrid:
    """`_node_grid_values` hands the evaluator one read-only row per node."""

    NODES = gauss_laguerre_rule(5).nodes

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_call_per_node_in_product_order(self, d):
        seen = []

        def record(x):
            seen.append(tuple(x.tolist()))
            return float(len(seen))

        values = _node_grid_values(record, self.NODES, d)
        assert seen == list(product(self.NODES.tolist(), repeat=d))
        assert values.shape == (5,) * d
        assert values.ravel().tolist() == [float(i + 1) for i in range(5 ** d)]

    def test_an_evaluator_that_writes_into_its_argument_raises(self):
        def write(x):
            x[0] = 0.0
            return 1.0

        with pytest.raises(ValueError, match="read-only"):
            _node_grid_values(write, self.NODES, 2)

    def test_a_refused_write_does_not_corrupt_later_nodes(self):
        seen = []

        def try_to_write(x):
            with pytest.raises(ValueError, match="read-only"):
                x *= 2.0
            seen.append(tuple(x.tolist()))
            return 1.0

        _node_grid_values(try_to_write, self.NODES, 3)
        assert seen == list(product(self.NODES.tolist(), repeat=3))

    def test_the_first_non_finite_node_is_named_as_a_tuple_of_floats(self):
        calls = []

        def blow_up(x):
            calls.append(x)
            return math.inf if x[1] > 1.0 else 1.0

        first = next(x for x in product(self.NODES.tolist(), repeat=2) if x[1] > 1.0)
        with pytest.raises(DomainError) as err:
            _node_grid_values(blow_up, self.NODES, 2)
        assert str(err.value) == f"non-finite integrand value inf at node {first}"
        assert len(calls) == list(product(self.NODES.tolist(), repeat=2)).index(first) + 1


    def test_a_1d_evaluator_that_writes_into_its_argument_raises(self):
        def write(x):
            x[0] = 0.0
            return 1.0

        with pytest.raises(ValueError, match="read-only"):
            _node_grid_values(write, self.NODES, 1)

    def test_a_refused_write_does_not_corrupt_later_nodes_in_1d(self):
        seen = []

        def try_to_write(x):
            with pytest.raises(ValueError, match="read-only"):
                x *= 2.0
            seen.append(tuple(x.tolist()))
            return 1.0

        _node_grid_values(try_to_write, self.NODES, 1)
        assert seen == [(x,) for x in self.NODES.tolist()]

    def test_the_first_non_finite_node_of_a_1d_grid_is_named_as_a_tuple_of_floats(self):
        calls = []

        def blow_up(x):
            calls.append(x)
            return math.inf if x[0] > 1.0 else 1.0

        first = next(x for x in self.NODES.tolist() if x > 1.0)
        with pytest.raises(DomainError) as err:
            _node_grid_values(blow_up, self.NODES, 1)
        assert str(err.value) == f"non-finite integrand value inf at node {(first,)}"
        assert len(calls) == self.NODES.tolist().index(first) + 1

    @pytest.mark.parametrize("d,blocks", [(1, 1), (2, 5), (3, 5)])
    def test_rows_are_views_of_one_block_per_node_of_the_first_axis_past_1d(self, d, blocks):
        # in 1-D all K nodes are rows of one (K, 1) block; else one (K^(d-1), d) block per x_1
        rows = []
        _node_grid_values(lambda x: rows.append(x) or 1.0, self.NODES, d)
        bases = {id(x.base): x.base for x in rows}
        assert len(bases) == blocks
        assert all(b.shape == (5 ** d // blocks, d) and not b.flags.writeable for b in bases.values())


class TestRuleValidation:
    """A rule is checked on construction and compared by its arrays."""

    def test_distinct_rules_compare_unequal_without_raising(self):
        assert (gauss_laguerre_rule(3) == gauss_laguerre_rule(4)) is False
        assert gauss_laguerre_rule(3) != gauss_laguerre_rule(4)
        assert gauss_laguerre_rule(3) != "a rule"

    def test_a_rule_equals_a_rule_built_from_copies_of_its_arrays(self):
        rule = gauss_laguerre_rule(6)
        assert QuadratureRule(rule.nodes.copy(), rule.log_modified_weights.copy()) == rule

    def test_rules_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(gauss_laguerre_rule(3))

    def test_a_hand_built_rule_keeps_read_only_copies(self):
        nodes, logw = np.array([0.5, 2.0]), np.array([-0.1, 0.3])
        rule = QuadratureRule(nodes, logw)
        nodes[0] = logw[0] = 9.0
        assert rule.nodes.tolist() == [0.5, 2.0] and rule.log_modified_weights.tolist() == [-0.1, 0.3]
        assert not rule.nodes.flags.writeable and not rule.log_modified_weights.flags.writeable

    @pytest.mark.parametrize("nodes,logw,message", [
        ([1.0, 2.0], [0.0], "one length >= 1"),
        ([], [], "one length >= 1"),
        ([[1.0, 2.0]], [[0.0, 0.0]], "1-D"),
        (1.0, 0.0, "1-D"),
        ([1.0, math.nan], [0.0, 0.0], "finite"),
        ([1.0, 2.0], [0.0, -math.inf], "finite"),
        ([-1e-300, 2.0], [0.0, 0.0], ">= 0"),
    ], ids=["length-mismatch", "empty", "two-dim", "scalar", "nan-node", "inf-weight", "negative-node"])
    def test_a_malformed_rule_is_a_one_line_domain_error(self, nodes, logw, message):
        with pytest.raises(DomainError, match=message) as err:
            QuadratureRule(np.array(nodes), np.array(logw))
        assert "\n" not in str(err.value)

    def test_a_mismatched_rule_never_reaches_analyze(self):
        # nodes [1, 2] with one log weight once broadcast into a silently wrong 2-term field
        with pytest.raises(DomainError, match="one length"):
            analyze(exp_decay_field(1), 1, QuadratureRule(np.array([1.0, 2.0]), np.array([0.0])))


def test_default_rule_size_margin():
    assert default_rule_size(20) == 36
    assert default_rule_size(510) == 512
