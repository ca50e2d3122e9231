import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from orthlag.analysis import SpaceParams, eta_seminorm, log_theta_weight, log_weighted_seq_norm
from orthlag.core import DomainError, exp_or_inf, truncation_index
from orthlag.fields import exp_decay_field, laguerre_field
from orthlag.operators import (
    _logsumexp,
    apply_E_pointwise,
    apply_E_spectral,
    log_iterate_norm,
    semigroup_propagate,
)
from orthlag.transform import CoefficientField, ScalarField, as_scalar_field, synthesize


def unit_field(n, degree=None):
    n = tuple(n)
    degree = sum(n) if degree is None else degree
    return CoefficientField(len(n), "total", degree, {n: 1.0})


def random_field(rng, dim, degree):
    entries = {n: rng.uniform(-1, 1) for n in map(tuple, truncation_index("total", dim, degree).tolist())}
    return CoefficientField(dim, "total", degree, entries)


class TestPointwise:
    def test_annihilates_ground_state(self):
        f = laguerre_field((0,))
        got = apply_E_pointwise(f, [[0.0], [0.5], [3.0], [20.0]])
        assert got.shape == (4,)
        assert got == pytest.approx(np.zeros(4), abs=1e-10)

    def test_first_eigenfunction(self):
        f = laguerre_field((1,))
        expected = (1 - 2.0) * math.exp(-1.0)  # 1 * l_1(2)
        assert apply_E_pointwise(f, [[2.0]])[0] == pytest.approx(expected, rel=1e-12)

    def test_exp_decay_by_symbolic_differentiation(self):
        # f = e^{-x}: -(x f'' + f' - (x/4) f + f/2) = e^{-x}(1/2 - 3x/4)
        f = exp_decay_field(1)
        assert apply_E_pointwise(f, [[1.0]])[0] == pytest.approx(-math.exp(-1.0) / 4, rel=1e-12)

    def test_requires_derivatives(self):
        f = ScalarField(1, lambda x: math.exp(-x[0]))
        with pytest.raises(DomainError):
            apply_E_pointwise(f, [[1.0]])

    def test_multidimensional_eigenfunction(self):
        f = laguerre_field((2, 3))
        x = np.array([1.3, 0.7])
        assert apply_E_pointwise(f, [x])[0] == pytest.approx(5 * synthesize(unit_field((2, 3)), [x])[0], rel=1e-11)

    @pytest.mark.parametrize("bad", [[[1.0, math.nan]], [[1.0, -0.5]], [[1.0, 2.0, 3.0]], [[1.0]]],
                             ids=["nan", "negative", "three-columns", "one-column"])
    def test_bad_points_are_domain_errors(self, bad):
        for f in (laguerre_field((2, 3)), as_scalar_field(unit_field((2, 3)))):
            with pytest.raises(DomainError):
                apply_E_pointwise(f, bad)


class TestSpectral:
    def test_zero_power_is_identity(self):
        rng = np.random.default_rng(0)
        a = random_field(rng, 2, 6)
        assert apply_E_spectral(a, 0).entries == a.entries

    def test_eigenvalue_power(self):
        a = unit_field((2, 3))
        out = apply_E_spectral(a, 2)
        assert out.get((2, 3)) == 25.0

    def test_annihilates_constant_index(self):
        a = unit_field((0,), degree=4)
        for N in (1, 2, 7):
            assert apply_E_spectral(a, N).get((0,)) == 0.0

    def test_zero_zero_convention(self):
        assert apply_E_spectral(unit_field((0,)), 0).get((0,)) == 1.0

    def test_rejects_negative_power(self):
        with pytest.raises(DomainError):
            apply_E_spectral(unit_field((1,)), -1)


def per_entry_reference(a, factor):
    """The former per-entry multiplier: factor(|n|) * v for each stored
    entry, as Python floats; a non-finite result is reported as None."""
    out = {}
    for n, v in a.entries.items():
        w = factor(sum(n)) * v
        if not math.isfinite(w):
            return None
        out[n] = w
    return out


def python_power(N):
    def factor(m):
        try:
            return float(m) ** N
        except OverflowError:
            return math.inf

    return factor


class TestBitwiseAgainstPerEntry:
    @pytest.mark.parametrize("N", [0, 1, 2, 7, 30, 200])
    def test_apply_E_spectral(self, N):
        rng = np.random.default_rng(N)
        for dim, degree in ((1, 30), (2, 12), (3, 6)):  # 30^200 is within binary64
            a = random_field(rng, dim, degree)
            assert dict(apply_E_spectral(a, N).entries) == per_entry_reference(a, python_power(N))

    def test_power_that_overflows_is_a_domain_error(self):
        # 30^300 is beyond binary64: the per-entry product is inf, and the
        # field rejects it, also when the value there is 0 (inf * 0 = nan)
        for value in (0.5, 0.0):
            a = CoefficientField(1, "total", 30, {(2,): 1.0, (30,): value})
            assert per_entry_reference(a, python_power(300)) is None
            with pytest.raises(DomainError, match=r"index \(30,\) is not finite"):
                apply_E_spectral(a, 300)

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 1.0, math.log(2.0), 25.0, 800.0])
    def test_semigroup_propagate(self, t):
        rng = np.random.default_rng(17)
        for dim, degree in ((1, 40), (2, 12), (3, 6)):
            a = random_field(rng, dim, degree)
            want = per_entry_reference(a, lambda m: math.exp(-t * m))
            assert dict(semigroup_propagate(a, t).entries) == want


class TestIterateNorm:
    def test_single_eigenfunction(self):
        for p in (1, 4, 9):
            a = unit_field((p,))
            for N in (0, 1, 3, 10):
                assert exp_or_inf(log_iterate_norm(a, N)) == pytest.approx(float(p) ** N, rel=1e-12)

    def test_two_term_sum(self):
        a = CoefficientField(1, "total", 2, {(1,): 1.0, (2,): 1.0})
        assert exp_or_inf(log_iterate_norm(a, 3)) == pytest.approx(math.sqrt(65.0), rel=1e-12)

    def test_ground_state_vanishes(self):
        a = unit_field((0,))
        for N in (1, 5):
            assert exp_or_inf(log_iterate_norm(a, N)) == 0.0

    def test_logspace_matches_naive(self):
        rng = np.random.default_rng(1)
        a = random_field(rng, 1, 15)
        for N in (0, 2, 5):
            naive = math.sqrt(
                math.fsum(
                    (sum(n) ** (2 * N) if sum(n) > 0 else (1.0 if N == 0 else 0.0)) * v * v
                    for n, v in a.entries.items()
                )
            )
            assert exp_or_inf(log_iterate_norm(a, N)) == pytest.approx(naive, rel=1e-10)

    def test_no_overflow_for_large_powers(self):
        a = CoefficientField(1, "total", 30, {(30,): 1e-200})
        val = exp_or_inf(log_iterate_norm(a, 200))
        # naive 30^400 overflows; log-space value is exp(200 log 30 - 200 log 10 ...)
        assert math.isfinite(math.log(val))


def reference_log_shell_weighted_norm(a, log_weight, p):
    """The former log-space norm: the math.log list built per call, one call
    of log_weight per shell, and scipy.special.logsumexp."""
    nonzero = a.values != 0.0
    log_abs = np.array([math.log(v) for v in np.abs(a.values[nonzero]).tolist()])
    logs = log_abs + a.per_shell(log_weight)[nonzero]
    logs = logs[logs > -math.inf]
    if logs.size == 0:
        return -math.inf
    if math.isinf(p):
        return float(logs.max())
    with np.errstate(over="ignore"):
        return float(logsumexp(p * logs)) / p


def reference_log_iterate_norm(a, N):
    def log_power(m):  # log |n|^N, with 0^0 = 1
        if m == 0:
            return 0.0 if N == 0 else -math.inf
        return N * math.log(m)

    return reference_log_shell_weighted_norm(a, log_power, 2)


def reference_eta(a, params, N_max):
    """(log_value, argmax, growing) of the eta seminorm on the reference norm."""
    log_ratios = []
    for N in range(1, N_max + 1):
        lg = reference_log_iterate_norm(a, N)
        log_ratios.append(-math.inf if lg == -math.inf
                          else lg - N * math.log(params.scale) - params.alpha * math.lgamma(N + 1))
    best = max(range(N_max), key=lambda i: log_ratios[i])
    growing = best == N_max - 1 and N_max >= 2 and log_ratios[-1] > log_ratios[-2]
    return log_ratios[best], best + 1, growing


def reference_fields():
    """Random d = 1..3 fields with zeros at tiny and huge scales, a sparse box
    field with a huge |n|, the all-zero field and a field holding n = 0 only."""
    rng = np.random.default_rng(23)
    fields = []
    for dim, degree in ((1, 40), (2, 12), (3, 6)):
        for scale in (1e-300, 1e200):
            idx = list(map(tuple, truncation_index("total", dim, degree).tolist()))
            vals = rng.standard_normal(len(idx)) * scale
            vals[rng.random(len(idx)) < 0.3] = 0.0
            fields.append(CoefficientField(dim, "total", degree, dict(zip(idx, vals.tolist()))))
    fields.append(CoefficientField(2, "box", 10**15, {(10**15, 3): 1e-30, (0, 0): 2.0, (7, 10**12): -0.5}))
    zeros = dict.fromkeys(map(tuple, truncation_index("total", 2, 5).tolist()), 0.0)
    fields.append(CoefficientField(2, "total", 5, zeros))
    fields.append(CoefficientField(1, "total", 4, {(0,): -3.5}))
    return fields


def same_bits(x, y):
    return float(x).hex() == float(y).hex()


class TestBitwiseAgainstSciPyNorm:
    @pytest.mark.parametrize("a", reference_fields())
    def test_log_iterate_norm(self, a):
        for N in range(201):
            assert same_bits(log_iterate_norm(a, N), reference_log_iterate_norm(a, N)), N

    @pytest.mark.parametrize("a", reference_fields())
    def test_log_weighted_seq_norm(self, a):
        for p in (1, 2, 3.5, math.inf):
            for alpha in (1e-3, 0.05, 0.37, 1.0, 2.0):
                for h in (0.1, 1.0, 7.5, 50.0):
                    params = SpaceParams(alpha=alpha, scale=h)
                    want = reference_log_shell_weighted_norm(a, lambda m: log_theta_weight(m, params), p)
                    assert same_bits(log_weighted_seq_norm(a, params, p), want), (p, alpha, h)

    @pytest.mark.parametrize("a", reference_fields())
    def test_eta_seminorm(self, a):
        for alpha, h, N_max in ((0.3, 1.5, 40), (1.0, 0.5, 25), (2.0, 20.0, 60)):
            params = SpaceParams(alpha=alpha, scale=h)
            r = eta_seminorm(a, params, N_max)
            log_value, argmax, growing = reference_eta(a, params, N_max)
            assert same_bits(r.log_value, log_value) and (r.argmax, r.growing) == (argmax, growing)


@st.composite
def logsumexp_inputs(draw):
    """1-64 finite floats below a center, spread by up to 1e3, with the
    maximum repeated a drawn number of times, in shuffled order.  A center
    near 0 keeps the last bits of the shifted sum visible in the result."""
    size = draw(st.integers(min_value=1, max_value=64))
    center = draw(st.one_of(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=-1e6, max_value=1e6)))
    spread = draw(st.floats(min_value=0.0, max_value=1e3))
    ties = draw(st.integers(min_value=0, max_value=size))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    x = center - spread * rng.random(size)
    x[:ties] = x.max()
    return rng.permutation(x).tolist()


@given(logsumexp_inputs())
@example([math.inf, 1.0])
@example([-math.inf, -math.inf])
@example([-math.inf, 0.0, -700.0])
@settings(max_examples=1000, deadline=None)
def test_logsumexp_matches_scipy_bit_for_bit(x):
    x = np.array(x)
    assert same_bits(_logsumexp(x), logsumexp(x))


class TestSemigroup:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(2)
        a = random_field(rng, 1, 8)
        assert semigroup_propagate(a, 0.0).entries == a.entries

    def test_half_life(self):
        a = unit_field((1,))
        out = semigroup_propagate(a, math.log(2.0))
        assert out.get((1,)) == pytest.approx(0.5, rel=1e-15)

    def test_contracts_l2_norm(self):
        from orthlag.transform import parseval_l2_norm

        rng = np.random.default_rng(3)
        a = random_field(rng, 2, 8)
        assert parseval_l2_norm(semigroup_propagate(a, 1.0)) <= parseval_l2_norm(a)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            semigroup_propagate(unit_field((1,)), -0.1)

    @given(
        s=st.floats(min_value=0.0, max_value=3.0),
        t=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_group_law(self, s, t, seed):
        rng = np.random.default_rng(seed)
        a = random_field(rng, 1, 8)
        one = semigroup_propagate(semigroup_propagate(a, s), t)
        two = semigroup_propagate(a, s + t)
        for n in a.entries:
            assert one.get(n) == pytest.approx(two.get(n), rel=1e-13, abs=1e-300)

    def test_commutes_with_iterates(self):
        rng = np.random.default_rng(4)
        a = random_field(rng, 2, 8)
        one = apply_E_spectral(semigroup_propagate(a, 0.7), 3)
        two = semigroup_propagate(apply_E_spectral(a, 3), 0.7)
        for n in a.entries:
            assert one.get(n) == pytest.approx(two.get(n), rel=1e-13)


class TestSpectralPointwiseAgreement:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_band_limited_agreement(self, dim):
        rng = np.random.default_rng(10 + dim)
        a = random_field(rng, dim, 12)
        fa = as_scalar_field(a)
        ea = apply_E_spectral(a, 1)
        pts = rng.uniform(0.0, 15.0, size=(50, dim))
        spec = synthesize(ea, pts)
        assert apply_E_pointwise(fa, pts) == pytest.approx(spec, abs=1e-7)
