import functools
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.laguerre import lag2poly

from orthlag.analysis import (
    DEFAULT_FIT_FLOOR,
    InsufficientSupportError,
    SpaceParams,
    VERDICT_BEURLING,
    VERDICT_FINITELY_SUPPORTED,
    VERDICT_NOT_MEMBER,
    VERDICT_ROUMIEU,
    _log_gtype_norms,
    classify_membership,
    estimate_decay_params,
    eta_seminorm,
    gtype_seminorm,
    log_theta_weight,
    log_weighted_seq_norm,
    norm_equivalence_gap,
)
from orthlag.core import DomainError, exp_or_inf, truncation_index
from orthlag.fields import exp_decay_field, field_by_name, laguerre_field
from orthlag.quadrature import gauss_laguerre_rule, integrate_orthant
from orthlag.transform import CoefficientField, analyze


def shell_sequence(rate_fn, degree, dim=1):
    entries = {}
    for n in map(tuple, truncation_index("total", dim, degree).tolist()):
        v = rate_fn(sum(n))
        entries[n] = v
    return CoefficientField(dim, "total", degree, entries)


def stretched(c, t, degree=400):
    def rate(m):
        e = c * m**t
        return math.exp(-e) if e < 700 else 0.0

    return shell_sequence(rate, degree)


def random_field(rng, dim, degree):
    entries = {n: rng.uniform(-1, 1) for n in map(tuple, truncation_index("total", dim, degree).tolist())}
    return CoefficientField(dim, "total", degree, entries)


class TestThetaWeight:
    def test_unit_at_origin(self):
        assert exp_or_inf(log_theta_weight(0, SpaceParams(1.7, 3.2))) == 1.0

    def test_alpha_half_is_linear_exponent(self):
        assert exp_or_inf(log_theta_weight(4, SpaceParams(0.5, 1.0))) == pytest.approx(math.exp(4.0), rel=1e-14)

    def test_alpha_one_is_sqrt_exponent(self):
        # the weight depends on n only through |n| = 2 + 2
        assert exp_or_inf(log_theta_weight(4, SpaceParams(1.0, 2.0))) == pytest.approx(math.exp(4.0), rel=1e-14)

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


def seq_norm(a, params, p):
    """The weighted norm itself, inf where it exceeds binary64."""
    return exp_or_inf(log_weighted_seq_norm(a, params, p))


class TestWeightedSeqNorm:
    def test_single_entry_sup(self):
        a = CoefficientField(1, "total", 5, {(5,): 1.0})
        p = SpaceParams(1.0, 2.0)
        assert seq_norm(a, p, math.inf) == pytest.approx(exp_or_inf(log_theta_weight(5, p)), rel=1e-14)

    def test_two_term_l2(self):
        a = CoefficientField(1, "total", 1, {(0,): 1.0, (1,): 1.0})
        val = seq_norm(a, SpaceParams(0.5, 1.0), 2)
        assert val == pytest.approx(math.sqrt(1 + math.e**2), rel=1e-13)

    def test_zero_sequence(self):
        a = CoefficientField(1, "total", 3, {})
        for p in (1, 2, math.inf):
            assert seq_norm(a, SpaceParams(1.0, 1.0), p) == 0.0

    def test_rejects_p_below_one(self):
        a = CoefficientField(1, "total", 1, {(0,): 1.0})
        with pytest.raises(DomainError):
            log_weighted_seq_norm(a, SpaceParams(1.0, 1.0), 0.5)

    def test_norm_ordering(self):
        rng = np.random.default_rng(8)
        params = SpaceParams(1.0, 1.0)
        for _ in range(50):
            a = random_field(rng, 1, 12)
            n_inf = seq_norm(a, params, math.inf)
            n_2 = seq_norm(a, params, 2)
            n_1 = seq_norm(a, params, 1)
            assert n_inf <= n_2 <= n_1

    def test_log_form_matches_the_value(self):
        # against the norm summed directly, |a_n| e^{h |n|^{1/(2 alpha)}} term by term
        rng = np.random.default_rng(9)
        a = random_field(rng, 2, 10)
        params = SpaceParams(0.7, 1.5)
        terms = [abs(v) * math.exp(1.5 * sum(n) ** (1 / 1.4)) for n, v in a.entries.items()]
        for p, direct in ((1, math.fsum(terms)), (2, math.sqrt(math.fsum(t * t for t in terms))),
                          (math.inf, max(terms))):
            assert log_weighted_seq_norm(a, params, p) == pytest.approx(math.log(direct), rel=1e-14)
        assert log_weighted_seq_norm(CoefficientField(1, "total", 2, {}), params, 2) == -math.inf

    def test_beyond_binary64_is_inf_with_finite_log(self):
        a = CoefficientField(1, "total", 1, {(0,): 1e308, (1,): 1e308})
        params = SpaceParams(1.0, 1.0)
        assert seq_norm(a, params, 1) == math.inf
        assert log_weighted_seq_norm(a, params, 1) == pytest.approx(
            math.log(1e308) + math.log1p(math.e), rel=1e-15)

    def test_tiny_alpha_weight_overflows_to_inf(self):
        params = SpaceParams(1e-5, 1.0)
        assert log_theta_weight(3, params) == math.inf
        assert exp_or_inf(log_theta_weight(3, params)) == math.inf
        a = CoefficientField(1, "total", 3, {(0,): 1.0, (3,): 0.5})
        for p in (1, 2, math.inf):
            assert seq_norm(a, params, p) == math.inf


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

    @pytest.mark.parametrize("kind,constant", [("total", 11.767917792776617), ("box", 11.84234246442796)])
    def test_shell_counts_without_the_truncation_set(self, kind, constant):
        # a d=3 header of degree 150 spans 585k (total) or 3.4M (box) indices
        a = CoefficientField._from_arrays(3, kind, 150, np.array([[0, 0, 0], [1, 2, 3]]),
                                          np.array([1.0, 0.5]))
        tracemalloc.start()
        try:
            rep = norm_equivalence_gap(a, h=1.0, h1=0.5, alpha=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert rep.constant == pytest.approx(constant, rel=1e-14)

    def test_alpha_whose_log_norm_overflows_is_a_domain_error(self):
        a = CoefficientField(1, "total", 3, self.SMALL_ALPHA_FIELD)
        with pytest.raises(DomainError, match="beyond binary64"):
            norm_equivalence_gap(a, h=2.0, h1=1.0, alpha=1e-5)


class TestDecayFit:
    def test_recovers_square_root_exponent(self):
        fit = estimate_decay_params(stretched(2.0, 0.5))
        assert fit.alpha_hat == pytest.approx(2.0, abs=0.05)  # 1/t, classify's scale
        assert fit.c_hat == pytest.approx(2.0, abs=0.05)

    def test_recovers_linear_exponent(self):
        fit = estimate_decay_params(stretched(1.0, 1.0, degree=60))
        assert fit.alpha_hat == pytest.approx(1.0, abs=0.05)
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


def reference_field_spec(name, dim):
    """(per-axis ascending polynomial coefficients, per-axis rates) of the
    built-in fields `l:<idx>` and `poly-exp:<coeffs>`, as in `fields`."""
    if name.startswith("l:"):
        coeffs = [lag2poly(np.eye(n + 1)[n]) for n in map(int, name[2:].split(","))]
    else:
        coeffs = [[float(c) for c in name[len("poly-exp:"):].split(",")]] * dim
    return coeffs, [0.5] * len(coeffs)


def reference_partial(axis_coeffs, rates):
    """The mixed partial D^p f of f = prod_j P_j(x_j) e^{-s_j x_j}, as the
    built-in fields once supplied it, with its per-axis derivative cache.
    Values are memoized per (p, x), since one field is measured at several
    alpha; x is a tuple."""
    deriv_cache = [[np.asarray(c, dtype=float)] for c in axis_coeffs]

    def axis_value(j, order, xj):
        cache = deriv_cache[j]
        while len(cache) <= order:
            # d/dx (P e^{-sx}) / e^{-sx} = P' - sP
            cache.append(npoly.polysub(npoly.polyder(cache[-1]), rates[j] * cache[-1]))
        return float(npoly.polyval(xj, cache[order]) * np.exp(-rates[j] * xj))

    @functools.cache
    def partial(p, x):
        val = 1.0
        for j in range(len(rates)):
            val *= axis_value(j, p[j], x[j])
        return val

    return partial


def reference_gtype_seminorm(partial, dim, params, P=6, rule=None):
    """The former quadrature path of `gtype_seminorm`, kept as the reference:
    each ||x^{(p+k)/2} D^p f||^2 by a tensor Gauss-Laguerre rule over the
    pointwise partials.  Returns (argmax, log ratio per (p, k), log running
    maximum per order), with the same first-maximum rule."""
    rule = rule or gauss_laguerre_rule(128)
    log_A = math.log(params.scale)
    half_alpha = params.alpha / 2.0

    def log_weighted_power(idx):
        # log of prod_j idx_j^{(alpha/2) idx_j}, 0^0 = 1
        return half_alpha * sum(v * math.log(v) for v in idx if v > 0)

    p_list = k_list = list(map(tuple, truncation_index("total", dim, P).tolist()))
    best_val = -math.inf
    best_pair = (p_list[0], k_list[0])
    per_order, log_ratios = {}, {}
    for p in p_list:
        for k in k_list:
            def integrand(x, _p=p, _k=k):
                mono = 1.0
                for xj, pj, kj in zip(x, _p, _k):
                    mono *= xj ** (pj + kj)
                dval = partial(_p, tuple(x.tolist()))
                return mono * dval * dval

            sq = max(integrate_orthant(integrand, rule, dim), 0.0)
            log_num = 0.5 * math.log(sq) if sq > 0 else -math.inf
            log_den = (sum(p) + sum(k)) * log_A + log_weighted_power(k) + log_weighted_power(p)
            log_ratios[p, k] = ratio = log_num - log_den
            order = max(sum(p), sum(k))
            per_order[order] = max(per_order.get(order, -math.inf), ratio)
            if ratio > best_val:
                best_val = ratio
                best_pair = (p, k)
    running = list(itertools.accumulate((per_order.get(m, -math.inf) for m in range(P + 1)), max))
    return best_pair, log_ratios, running


class TestGTypeSeminorm:
    def test_ground_state_base_term(self):
        a = analyze(laguerre_field((0,)), 20, gauss_laguerre_rule(36))
        rep = gtype_seminorm(a, SpaceParams(1.0, 1.0), P=2)
        # p = k = 0 ratio is ||e^{-x/2}||_{L2} = 1
        assert math.exp(rep.log_running_max[0]) == pytest.approx(1.0, rel=1e-12)

    def test_first_moment_term(self):
        # p=0, k=1: ||x^{1/2} e^{-x/2}|| = 1 since Gamma(2) = 1
        a = analyze(laguerre_field((0,)), 20, gauss_laguerre_rule(36))
        rep = gtype_seminorm(a, SpaceParams(1.0, 1.0), P=1)
        assert rep.value == pytest.approx(1.0, rel=1e-10)

    def test_derivative_term_value(self):
        # p=1, k=0: ||(1/2) e^{-x/2}|| = 1/2, below the k=1 term
        a = analyze(laguerre_field((0,)), 20, gauss_laguerre_rule(36))
        rep = gtype_seminorm(a, SpaceParams(1.0, 1.0), P=1)
        assert rep.argmax in (((0,), (1,)), ((0,), (0,)))

    def test_stabilizes_for_smooth_members(self):
        # ||x^{k/2} D^p e^{-x}|| = (k!/2^{k+1})^{1/2}: the maximum 1/sqrt(2) is at p = k = 0
        a = analyze(exp_decay_field(1), 60, gauss_laguerre_rule(96))
        rep = gtype_seminorm(a, SpaceParams(1.0, 1.0), P=5)
        assert rep.log_running_max[-1] == rep.log_running_max[-2]
        assert rep.value == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_ground_state_norms_match_the_closed_form(self):
        # D^p l_0 = (-1/2)^p l_0, so ||x^{(p+k)/2} D^p l_0|| = 2^{-p} sqrt((p+k)!)
        orders, log_norms = _log_gtype_norms(CoefficientField(1, "total", 0, {(0,): 1.0}), 60)
        p, k = orders[:, 0][:, None], orders[:, 0][None, :]
        want = -p * math.log(2) + 0.5 * np.vectorize(math.lgamma)(p + k + 1)
        np.testing.assert_allclose(log_norms, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name,dim,kind,P,K", [
        ("l:1", 1, "total", 8, 128),
        ("poly-exp:1,0.5,-0.3", 1, "total", 8, 128),
        # 16 nodes integrate x^{p_j+k_j} P_j^2 exactly while p_j + k_j + 2 deg P_j <= 31
        ("l:2,1", 2, "box", 3, 16),
        ("poly-exp:1,-0.5", 2, "box", 3, 16),
        # d = 3 takes the lex walk through every head; 8 nodes are exact here
        ("l:1,2,1", 3, "box", 2, 8),
    ])
    def test_matches_the_quadrature_reference(self, name, dim, kind, P, K):
        a = analyze(field_by_name(name, dim), 4, gauss_laguerre_rule(20), kind=kind)
        partial = reference_partial(*reference_field_spec(name, dim))
        for alpha in (0.5, 1.0, 1.5):
            params = SpaceParams(alpha, 1.0)
            rep = gtype_seminorm(a, params, P)
            argmax, log_ratios, log_running = reference_gtype_seminorm(
                partial, dim, params, P, gauss_laguerre_rule(K))
            # the logs to 1e-12 relative, or absolute near log 1 = 0 (the value to 1e-12 relative)
            np.testing.assert_allclose(rep.log_running_max, log_running, rtol=1e-12, atol=1e-12)
            top, runner_up = sorted(log_ratios.values())[:-3:-1]
            if top - runner_up > 1e-12:
                assert rep.argmax == argmax

    def test_large_orders_stay_finite_in_log_form(self):
        # at P = 200 the largest norm of l_1 is about e^865, beyond binary64
        l1 = CoefficientField(1, "total", 1, {(1,): 1.0})
        assert _log_gtype_norms(l1, 200)[1].max() > math.log(sys.float_info.max)
        rep = gtype_seminorm(l1, SpaceParams(0.5, 1.0), P=200)
        assert rep.log_value == pytest.approx(334.786, abs=1e-3)
        assert rep.value == pytest.approx(math.exp(rep.log_value), rel=1e-15)
        assert all(math.isfinite(v) for v in rep.log_running_max)

    def test_zero_field_is_zero(self):
        rep = gtype_seminorm(CoefficientField(2, "total", 3), SpaceParams(1.0, 1.0), P=2)
        assert rep.log_value == -math.inf and rep.value == 0.0
        assert rep.argmax == ((0, 0), (0, 0))

    @pytest.mark.parametrize("entries,P", [({(2**40,): 1.0}, 2), ({(3, 2): 1.0}, 2**10)])
    def test_a_box_beyond_the_cap_is_a_domain_error(self, entries, P):
        n = next(iter(entries))
        a = CoefficientField(len(n), "box", max(n), entries)
        tracemalloc.start()
        with pytest.raises(DomainError, match="above the cap"):
            gtype_seminorm(a, SpaceParams(1.0, 1.0), P)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("P", [-1, 2.5])
    def test_rejects_a_bad_order(self, P):
        with pytest.raises(DomainError):
            gtype_seminorm(CoefficientField(1, "total", 0, {(0,): 1.0}), SpaceParams(1.0, 1.0), P)


class TestCrossConsistency:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("name", ["l0", "exp-decay"])
    def test_derivative_seminorm_finite_iff_member(self, alpha, name):
        # a finite derivative seminorm whose running maximum has saturated
        # should agree with coefficient-decay membership for these smooth members
        f = laguerre_field((0,)) if name == "l0" else exp_decay_field(1)
        a = analyze(f, 60, gauss_laguerre_rule(96))
        rep = gtype_seminorm(a, SpaceParams(alpha, 1.0), P=5)
        assert math.isfinite(rep.value)
        assert rep.log_running_max[-1] == rep.log_running_max[-2]

        # drop quadrature noise so the coefficient support is honest
        a = CoefficientField(a.dim, a.truncation_kind, a.degree,
                             {n: v for n, v in a.entries.items() if abs(v) > 1e-12})
        member = classify_membership(a, alpha)
        assert member.is_member
