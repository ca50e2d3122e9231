import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthlag.analysis import (
    DEFAULT_FIT_FLOOR,
    GridSpec,
    InsufficientSupportError,
    SpaceParams,
    VERDICT_BEURLING,
    VERDICT_FINITELY_SUPPORTED,
    VERDICT_NOT_MEMBER,
    VERDICT_ROUMIEU,
    classify_membership,
    estimate_decay_params,
    eta_seminorm,
    gtype_seminorm,
    log_theta_weight,
    log_weighted_seq_norm,
    norm_equivalence_gap,
    schwartz_seminorm,
    sigma_seminorm,
    theta_weight,
    weighted_seq_norm,
)
from orthlag.core import DomainError, total_degree_indices
from orthlag.fields import exp_decay_field, laguerre_field
from orthlag.transform import CoefficientField


def shell_sequence(rate_fn, degree, dim=1):
    entries = {}
    for n in total_degree_indices(dim, degree):
        v = rate_fn(sum(n))
        entries[n] = v
    return CoefficientField(dim, "total", degree, entries)


def stretched(c, t, degree=400):
    def rate(m):
        e = c * m**t
        return math.exp(-e) if e < 700 else 0.0

    return shell_sequence(rate, degree)


def random_field(rng, dim, degree):
    entries = {n: rng.uniform(-1, 1) for n in total_degree_indices(dim, degree)}
    return CoefficientField(dim, "total", degree, entries)


class TestThetaWeight:
    def test_unit_at_origin(self):
        assert theta_weight((0, 0), SpaceParams(1.7, 3.2)) == 1.0

    def test_alpha_half_is_linear_exponent(self):
        assert theta_weight((4,), SpaceParams(0.5, 1.0)) == pytest.approx(math.exp(4.0), rel=1e-14)

    def test_alpha_one_is_sqrt_exponent(self):
        assert theta_weight((2, 2), SpaceParams(1.0, 2.0)) == pytest.approx(math.exp(4.0), rel=1e-14)

    @given(
        m=st.integers(min_value=2, max_value=100),
        h=st.floats(min_value=0.1, max_value=5.0),
        alpha=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, m, h, alpha):
        p = SpaceParams(alpha, h)
        assert log_theta_weight(m, p) >= log_theta_weight(m - 1, p)
        assert log_theta_weight(m, SpaceParams(alpha, h + 0.5)) >= log_theta_weight(m, p)
        # strictly decreasing in alpha for |n| >= 2
        assert log_theta_weight(m, SpaceParams(alpha + 0.5, h)) < log_theta_weight(m, p)


class TestWeightedSeqNorm:
    def test_single_entry_sup(self):
        a = CoefficientField(1, "total", 5, {(5,): 1.0})
        p = SpaceParams(1.0, 2.0)
        assert weighted_seq_norm(a, p, math.inf) == pytest.approx(theta_weight((5,), p), rel=1e-14)

    def test_two_term_l2(self):
        a = CoefficientField(1, "total", 1, {(0,): 1.0, (1,): 1.0})
        val = weighted_seq_norm(a, SpaceParams(0.5, 1.0), 2)
        assert val == pytest.approx(math.sqrt(1 + math.e**2), rel=1e-13)

    def test_zero_sequence(self):
        a = CoefficientField(1, "total", 3, {})
        for p in (1, 2, math.inf):
            assert weighted_seq_norm(a, SpaceParams(1.0, 1.0), p) == 0.0

    def test_rejects_p_below_one(self):
        a = CoefficientField(1, "total", 1, {(0,): 1.0})
        with pytest.raises(DomainError):
            weighted_seq_norm(a, SpaceParams(1.0, 1.0), 0.5)

    def test_norm_ordering(self):
        rng = np.random.default_rng(8)
        params = SpaceParams(1.0, 1.0)
        for _ in range(50):
            a = random_field(rng, 1, 12)
            n_inf = weighted_seq_norm(a, params, math.inf)
            n_2 = weighted_seq_norm(a, params, 2)
            n_1 = weighted_seq_norm(a, params, 1)
            assert n_inf <= n_2 <= n_1

    def test_log_form_matches_the_value(self):
        rng = np.random.default_rng(9)
        a = random_field(rng, 2, 10)
        params = SpaceParams(0.7, 1.5)
        for p in (1, 2, math.inf):
            assert log_weighted_seq_norm(a, params, p) == pytest.approx(
                math.log(weighted_seq_norm(a, params, p)), rel=1e-14)
        assert log_weighted_seq_norm(CoefficientField(1, "total", 2, {}), params, 2) == -math.inf

    def test_beyond_binary64_is_inf_with_finite_log(self):
        a = CoefficientField(1, "total", 1, {(0,): 1e308, (1,): 1e308})
        params = SpaceParams(1.0, 1.0)
        assert weighted_seq_norm(a, params, 1) == math.inf
        assert log_weighted_seq_norm(a, params, 1) == pytest.approx(
            math.log(1e308) + math.log1p(math.e), rel=1e-15)

    def test_tiny_alpha_weight_overflows_to_inf(self):
        params = SpaceParams(1e-5, 1.0)
        assert log_theta_weight(3, params) == math.inf
        assert theta_weight((3,), params) == math.inf
        a = CoefficientField(1, "total", 3, {(0,): 1.0, (3,): 0.5})
        for p in (1, 2, math.inf):
            assert weighted_seq_norm(a, params, p) == math.inf


class TestNormEquivalence:
    def test_unit_at_origin(self):
        a = CoefficientField(1, "total", 3, {(0,): 1.0})
        rep = norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1.0)
        assert rep.l2_norm == 1.0 and rep.sup_norm == 1.0
        assert rep.ratio == 1.0 <= rep.constant

    def test_random_sequences_within_constant(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = random_field(rng, 1, 20)
            rep = norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1.0)
            assert rep.ratio <= rep.constant

    def test_geometric_decay(self):
        a = shell_sequence(lambda m: 0.5**m, 30)
        rep = norm_equivalence_gap(a, h=1.0, h1=0.5, alpha=1.0)
        assert rep.ratio <= rep.constant

    def test_rejects_bad_scales(self):
        a = CoefficientField(1, "total", 1, {(0,): 1.0})
        with pytest.raises(DomainError):
            norm_equivalence_gap(a, h=1.0, h1=1.0, alpha=1.0)

    SMALL_ALPHA_FIELD = {(0,): 1.0, (1,): -0.5, (2,): 0.25, (3,): 0.125}

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-3])
    def test_small_alpha_norms_beyond_binary64(self, alpha):
        # both weighted norms are inf; the true ratio, about e^{-3^(1/(2 alpha))},
        # is below the smallest subnormal, and the shells m >= 2 add nothing
        # to the constant
        a = CoefficientField(1, "total", 3, self.SMALL_ALPHA_FIELD)
        rep = norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=alpha)
        assert rep.l2_norm == rep.sup_norm == math.inf
        assert rep.ratio == 0.0
        assert rep.constant == math.sqrt(1.0 + math.exp(-2.0))

    def test_small_alpha_ratio_from_the_log_norms(self):
        import mpmath

        alpha, h, h1 = 0.05, 1.0, 1.0 - 1e-4
        a = CoefficientField(1, "total", 3, self.SMALL_ALPHA_FIELD)
        rep = norm_equivalence_gap(a, h=h, h1=h1, alpha=alpha)
        mpmath.mp.dps = 50
        e = mpmath.mpf(1) / (2 * mpmath.mpf(alpha))
        l2 = mpmath.sqrt(mpmath.fsum(
            (v * mpmath.exp(mpmath.mpf(h1) * m ** e)) ** 2 for (m,), v in a.entries.items()))
        sup = max(abs(v) * mpmath.exp(mpmath.mpf(h) * m ** e) for (m,), v in a.entries.items())
        assert rep.l2_norm == rep.sup_norm == math.inf
        assert rep.ratio == pytest.approx(float(l2 / sup), rel=1e-9)
        assert 0.0 < rep.ratio <= rep.constant

    def test_alpha_whose_log_norm_overflows_is_a_domain_error(self):
        a = CoefficientField(1, "total", 3, self.SMALL_ALPHA_FIELD)
        with pytest.raises(DomainError, match="beyond binary64"):
            norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1e-5)


class TestDecayFit:
    def test_recovers_square_root_exponent(self):
        fit = estimate_decay_params(stretched(2.0, 0.5))
        assert fit.alpha_hat == pytest.approx(1.0, abs=0.05)
        assert fit.c_hat == pytest.approx(2.0, abs=0.05)

    def test_recovers_linear_exponent(self):
        fit = estimate_decay_params(stretched(1.0, 1.0, degree=60))
        assert fit.alpha_hat == pytest.approx(0.5, abs=0.05)
        assert fit.c_hat == pytest.approx(1.0, abs=0.05)

    def test_finitely_supported_reported(self):
        a = CoefficientField(1, "total", 10, {(2,): 1.0})
        with pytest.raises(InsufficientSupportError) as err:
            estimate_decay_params(a)
        assert err.value.finitely_supported

    def test_floor_excludes_noise(self):
        entries = {(m,): math.exp(-m) if m < 300 else 0.0 for m in range(400)}
        a = CoefficientField(1, "total", 400, entries)
        fit = estimate_decay_params(a, floor=1e-100)
        assert fit.support_size < 300
        assert fit.exponent == pytest.approx(1.0, abs=0.01)


class TestClassifier:
    def test_roumieu_at_boundary_exponent(self):
        # decay e^{-2 sqrt(m)}: t = 1/2 = 1/alpha at alpha = 2
        rep = classify_membership(stretched(2.0, 0.5), alpha=2.0)
        assert rep.verdict == VERDICT_ROUMIEU

    def test_beurling_above_boundary(self):
        rep = classify_membership(stretched(1.0, 2.0 / 3.0), alpha=2.0)
        assert rep.verdict == VERDICT_BEURLING

    def test_polynomial_decay_rejected_for_every_alpha(self):
        a = shell_sequence(lambda m: 1.0 / (1 + m) ** 2, 400)
        for alpha in (0.5, 1.0, 2.0):
            assert classify_membership(a, alpha).verdict == VERDICT_NOT_MEMBER

    def test_too_slow_decay_rejected(self):
        # t = 1/2 decay fails the alpha = 1 requirement t >= 1
        rep = classify_membership(stretched(2.0, 0.5), alpha=1.0)
        assert rep.verdict == VERDICT_NOT_MEMBER

    def test_finitely_supported_is_member(self):
        a = CoefficientField(1, "total", 10, {(0,): 1.0, (3,): -0.5})
        rep = classify_membership(a, alpha=1.0)
        assert rep.verdict == VERDICT_FINITELY_SUPPORTED
        assert rep.is_member

    def test_scale_invariance(self):
        a = stretched(2.0, 0.5, degree=200)
        for c in (-137.5, 1e-8, 3.0):
            scaled = a.with_values(c * a.values)
            assert classify_membership(scaled, 2.0).verdict == VERDICT_ROUMIEU

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            classify_membership(stretched(1.0, 1.0, degree=50), alpha=0.0)


class TestEtaSeminorm:
    def test_ground_state_vanishes(self):
        a = CoefficientField(1, "total", 0, {(0,): 1.0})
        res = eta_seminorm(a, SpaceParams(1.0, 1.0), 30)
        assert res.value == 0.0

    def test_eigenfunction_peak(self):
        a = CoefficientField(1, "total", 3, {(3,): 1.0})
        res = eta_seminorm(a, SpaceParams(1.0, 1.0), 60)
        assert res.value == pytest.approx(4.5, rel=1e-12)
        assert res.argmax in (2, 3)
        assert not res.growing

    def test_value_beyond_binary64_is_inf_with_finite_log(self):
        a = CoefficientField(1, "total", 3, {(3,): 1.0})
        res = eta_seminorm(a, SpaceParams(0.1, 1e-9), 60)
        # the ratio 3^N / (h^N N!^0.1) still grows at N = 60
        expected = 60 * math.log(3.0) - 60 * math.log(1e-9) - 0.1 * math.lgamma(61)
        assert res.value == math.inf and res.argmax == 60 and res.growing
        assert res.log_value == pytest.approx(expected, rel=1e-14)

    def test_alpha_zero_finite_iff_index_below_scale(self):
        h = 3.0
        for p in (1, 2, 3):
            a = CoefficientField(1, "total", p, {(p,): 1.0})
            assert not eta_seminorm(a, SpaceParams(0.0, h), 60).growing
        for p in (4, 7):
            a = CoefficientField(1, "total", p, {(p,): 1.0})
            assert eta_seminorm(a, SpaceParams(0.0, h), 60).growing

    def test_monotone_in_scale_and_alpha(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = random_field(rng, 1, 15)
            small_h = eta_seminorm(a, SpaceParams(1.0, 0.5), 30).value
            big_h = eta_seminorm(a, SpaceParams(1.0, 2.0), 30).value
            small_al = eta_seminorm(a, SpaceParams(0.5, 1.0), 30).value
            big_al = eta_seminorm(a, SpaceParams(2.0, 1.0), 30).value
            assert big_h <= small_h
            assert big_al <= small_al

    def test_growth_flag_directional(self):
        # member family at the boundary exponent: flag clears for large h,
        # sets for small h; polynomial decay keeps the flag set at both
        member = stretched(2.0, 1.0, degree=200)
        poly = shell_sequence(lambda m: 1.0 / (1 + m) ** 2, 200)
        params = lambda h: SpaceParams(1.0, h)
        assert eta_seminorm(member, params(0.2), 40).growing
        assert not eta_seminorm(member, params(1.0), 40).growing
        assert eta_seminorm(poly, params(0.2), 40).growing
        assert eta_seminorm(poly, params(1.0), 40).growing


class TestSchwartzSeminorm:
    def test_plain_sup_at_boundary(self):
        f = laguerre_field((0,))
        assert schwartz_seminorm(f, (0,), (0,)) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_sup_interior(self):
        f = laguerre_field((0,))
        val = schwartz_seminorm(f, (1,), (0,))
        assert val == pytest.approx(2.0 / math.e, rel=1e-8)

    def test_derivative_sup_at_boundary(self):
        f = laguerre_field((0,))
        assert schwartz_seminorm(f, (0,), (1,)) == pytest.approx(0.5, abs=1e-12)

    def test_requires_partials(self):
        from orthlag.transform import ScalarField

        f = ScalarField(1, lambda x: math.exp(-x[0]))
        with pytest.raises(DomainError):
            schwartz_seminorm(f, (0,), (1,))

    def test_two_dimensional(self):
        f = exp_decay_field(2)
        # max of x1 e^{-x1-x2} is 1/e at (1, 0)
        val = schwartz_seminorm(f, (1, 0), (0, 0), GridSpec(points=60))
        assert val == pytest.approx(1.0 / math.e, rel=1e-6)


class TestGTypeSeminorm:
    def test_ground_state_base_term(self):
        f = laguerre_field((0,))
        rep = gtype_seminorm(f, SpaceParams(1.0, 1.0), P=2)
        # p = k = 0 ratio is ||e^{-x/2}||_{L2} = 1
        assert rep.running_max[0] == pytest.approx(1.0, rel=1e-12)

    def test_first_moment_term(self):
        # p=0, k=1: ||x^{1/2} e^{-x/2}|| = 1 since Gamma(2) = 1
        f = laguerre_field((0,))
        rep = gtype_seminorm(f, SpaceParams(1.0, 1.0), P=1)
        assert rep.value == pytest.approx(1.0, rel=1e-10)

    def test_derivative_term_value(self):
        # p=1, k=0: ||(1/2) e^{-x/2}|| = 1/2, below the k=1 term
        f = laguerre_field((0,))
        rep = gtype_seminorm(f, SpaceParams(1.0, 1.0), P=1)
        assert rep.argmax in (((0,), (1,)), ((0,), (0,)))

    def test_stabilizes_for_smooth_members(self):
        f = exp_decay_field(1)
        rep = gtype_seminorm(f, SpaceParams(1.0, 1.0), P=5)
        assert rep.increments[-1] == 0.0

    def test_requires_partials(self):
        from orthlag.transform import ScalarField

        f = ScalarField(1, lambda x: math.exp(-x[0]))
        with pytest.raises(DomainError):
            gtype_seminorm(f, SpaceParams(1.0, 1.0))


class TestCrossConsistency:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("name", ["l0", "exp-decay"])
    def test_derivative_seminorm_finite_iff_member(self, alpha, name):
        # bounded derivative seminorm with vanishing increments should agree
        # with coefficient-decay membership for these smooth members
        from orthlag.quadrature import gauss_laguerre_rule
        from orthlag.transform import analyze

        f = laguerre_field((0,)) if name == "l0" else exp_decay_field(1)
        rep = gtype_seminorm(f, SpaceParams(alpha, 1.0), P=5)
        assert math.isfinite(rep.value)
        assert rep.increments[-1] == 0.0

        a = analyze(f, 60, gauss_laguerre_rule(96))
        # drop quadrature noise so the coefficient support is honest
        a = CoefficientField(a.dim, a.truncation_kind, a.degree,
                             {n: v for n, v in a.entries.items() if abs(v) > 1e-12})
        member = classify_membership(a, alpha)
        assert member.is_member

    def test_sigma_adds_sup_part(self):
        f = laguerre_field((0,))
        params = SpaceParams(1.0, 1.0)
        total = sigma_seminorm(f, params, j=1, P=1, grid=GridSpec(points=80))
        gt = gtype_seminorm(f, params, P=1)
        assert total > gt.value
