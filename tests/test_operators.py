import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from orthlag.analysis import (
    SpaceParams,
    classify_membership,
    eta_seminorm,
    gtype_seminorm,
    log_theta_weight,
    log_weighted_seq_norm,
)
from orthlag.core import DomainError, exp_or_inf, truncation_index
from orthlag.fields import exp_decay_field, laguerre_field
from orthlag.operators import (
    _log_norms,
    _logsumexp,
    _shell_log_norms,
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

    def test_shells_zero_and_one_are_exact_at_any_power(self):
        # 10**400 overflowed converting N to float, and every shell became inf
        a = CoefficientField(1, "total", 1, {(0,): 2.0, (1,): 1.0})
        for N in (1, 2**53, 10**400):
            assert apply_E_spectral(a, N).values.tolist() == [0.0, 1.0]
        assert apply_E_spectral(a, 0).values.tolist() == [2.0, 1.0]

    def test_other_shells_keep_the_float_power(self):
        rng = np.random.default_rng(3)
        a = random_field(rng, 2, 6)
        for N in (0, 1, 3, 17):
            want = [c * float(sum(n)) ** N for n, c in zip(a.index.tolist(), a.values.tolist())]
            assert apply_E_spectral(a, N).values.tolist() == want


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
        # 30^300 is beyond binary64: the per-entry product is inf, and the field rejects it
        a = CoefficientField(1, "total", 30, {(2,): 1.0, (30,): 0.5})
        assert per_entry_reference(a, python_power(300)) is None
        with pytest.raises(DomainError, match=r"index \(30,\) is not finite"):
            apply_E_spectral(a, 300)
        # so does a power whose N alone is past the float range
        with pytest.raises(DomainError, match=r"index \(2,\) is not finite"):
            apply_E_spectral(a, 10**400)

    def test_a_stored_zero_stays_zero_where_the_power_overflows(self):
        # 30^300 * 0 was nan, a DomainError; a stored zero is not a term, so no factor touches it
        a = CoefficientField(1, "total", 30, {(2,): 1.0, (30,): 0.0})
        out = apply_E_spectral(a, 300)
        assert out.index.tolist() == [[2], [30]] and out.values.tolist() == [2.037035976334486e+90, 0.0]
        assert out.values[0] == 2.0**300

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.37, 1.0, math.log(2.0), 25.0, 800.0])
    def test_semigroup_propagate(self, t):
        # a term whose factor e^{-t|n|} is a normal number keeps the per-entry
        # product's bits; the others are the exact product, formed in log space
        rng = np.random.default_rng(17)
        for dim, degree in ((1, 40), (2, 12), (3, 6)):
            a = random_field(rng, dim, degree)
            want = per_entry_reference(a, lambda m: math.exp(-t * m))
            got = semigroup_propagate(a, t).entries
            for n, v in a.entries.items():
                if math.exp(-t * sum(n)) >= sys.float_info.min:
                    assert same_bits(got[n], want[n])
                else:
                    assert got[n] == pytest.approx(mp_decay(v, t, sum(n)), rel=1e-12, abs=1e-322)


def mp_power(v, m, N):
    """a_n m^N, correctly rounded, from mpmath at a working precision that holds it exactly."""
    with mpmath.workprec(64 + N * max(1, m).bit_length()):
        return float(mpmath.mpf(v) * mpmath.mpf(m) ** N)


def mp_decay(v, t, m):
    """a_n e^{-t m}, from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.mpf(v) * mpmath.exp(-mpmath.mpf(t) * m))


class TestFactorsOutsideBinary64:
    """A factor that leaves binary64 while the product does not: |n|^N past
    2^1024, or e^{-t|n|} below the normal range."""

    @given(st.integers(2, 5000), st.integers(1000, 2150),
           st.floats(-1e-200, 1e-200, allow_subnormal=True).filter(lambda v: v != 0.0))
    @example(1000, 1993, 1e-300)  # 1000^200 * 1e-300 = 1e300
    @example(2, 2097, 5e-324)
    @settings(max_examples=200, deadline=None)
    def test_power_is_the_rounded_exact_product(self, m, bits, v):
        N = max(1, round(bits / math.log2(m)))  # m^N near 2^bits, where the float power overflows
        want = mp_power(v, m, N)
        a = CoefficientField(1, "total", m, {(m,): v, (1,): 1.0})
        if math.isinf(want):
            with pytest.raises(DomainError, match="is not finite"):
                apply_E_spectral(a, N)
            return
        got = apply_E_spectral(a, N).get((m,))
        try:
            factor = float(m) ** N
        except OverflowError:
            assert same_bits(got, want)
        else:  # a normal factor keeps the product's bits
            assert same_bits(got, v * factor)

    @given(st.floats(1e-3, 50.0), st.integers(1, 2000), st.floats(-1e308, 1e308).filter(lambda v: abs(v) > 1e-300))
    @example(8.0, 100, 1e300)
    @settings(max_examples=200, deadline=None)
    def test_decay_is_formed_in_log_space(self, t, m, v):
        a = CoefficientField(1, "total", m, {(m,): v, (0,): 1.0})
        got = semigroup_propagate(a, t).get((m,))
        # the exact product is conditioned by the logs of its two factors
        rel = 4e-16 * (2.0 + t * m + abs(math.log(abs(v))))
        assert got == pytest.approx(mp_decay(v, t, m), rel=rel, abs=1e-322)
        if math.exp(-t * m) >= sys.float_info.min:
            assert same_bits(got, v * math.exp(-t * m))


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
    """The former log-space norm: math.log|a_n| plus log_weight(|n|) for
    each nonzero term, built per call, and scipy.special.logsumexp."""
    terms = [(v, sum(n)) for n, v in zip(a.index.tolist(), a.values.tolist()) if v != 0.0]
    logs = np.array([math.log(abs(v)) + log_weight(m) for v, m in terms])
    logs = logs[logs > -math.inf]
    if logs.size == 0:
        return -math.inf
    if math.isinf(p):
        return float(logs.max())
    with np.errstate(over="ignore"):
        return float(logsumexp(p * logs)) / p


def log_power(N):
    """m -> log m^N, with 0^0 = 1."""
    def weight(m):
        if m == 0:
            return 0.0 if N == 0 else -math.inf
        return N * math.log(m)

    return weight


def reference_log_iterate_norm(a, N):
    return reference_log_shell_weighted_norm(a, log_power(N), 2)


def mp_log_shell_weighted_norm(a, log_weight, p):
    """The same norm from a 40-digit mpmath sum over the nonzero terms."""
    with mpmath.workdps(40):
        logs = [mpmath.log(abs(v)) + log_weight(m) for m, v in zip(a.orders.tolist(), a.values.tolist())
                if v != 0.0 and log_weight(m) > -math.inf]
        if not logs:
            return -math.inf
        top = max(logs)
        if math.isinf(p):
            return float(top)
        return float(top + mpmath.log(mpmath.fsum(mpmath.exp(p * (x - top)) for x in logs)) / p)


# The shell profile sums each shell's terms before the weights are added, so
# where a shell holds several terms the last bits move.  Every summand
# log|a_n| + w_m carries a rounding of up to half an ulp of itself, so the
# tolerance is stated against the largest |summand|: on the reference fields
# the profile read at most 1.5 eps of it from the per-term path.
LOG_SUMMAND_TOL = 4 * sys.float_info.epsilon


def log_summand_scale(a, log_weight):
    """max(1, the largest |log|a_n| + log_weight(|n|)|) over the finite summands."""
    logs = [math.log(abs(v)) + log_weight(m) for m, v in zip(a.orders.tolist(), a.values.tolist()) if v != 0.0]
    return max([1.0] + [abs(x) for x in logs if math.isfinite(x)])


def one_term_shells(a):
    return np.bincount(a._shells[1]).max(initial=0) <= 1


def assert_matches_reference(a, got, want, *log_weights, p=2):
    """got to the bit where each shell holds one term or p = inf (a shell's
    largest log|a_n| is the log of its largest |a_n|), else within
    LOG_SUMMAND_TOL of the largest summand scale of the log_weights;
    infinities equal."""
    if one_term_shells(a) or math.isinf(p) or not math.isfinite(want):
        assert same_bits(got, want), (got, want)
    else:
        scale = max(log_summand_scale(a, w) for w in log_weights)
        assert abs(got - want) <= LOG_SUMMAND_TOL * scale, (got, want)


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
    """Bit for bit where every shell holds one term (d = 1 among them), else
    within LOG_SUMMAND_TOL of the summand scale."""

    @pytest.mark.parametrize("a", reference_fields())
    def test_log_iterate_norm(self, a):
        for N in range(201):
            assert_matches_reference(a, log_iterate_norm(a, N), reference_log_iterate_norm(a, N), log_power(N))

    @pytest.mark.parametrize("a", reference_fields())
    def test_log_weighted_seq_norm(self, a):
        for p in (1, 2, 3.5, math.inf):
            for alpha in (1e-3, 0.05, 0.37, 1.0, 2.0):
                for h in (0.1, 1.0, 7.5, 50.0):
                    params = SpaceParams(alpha=alpha, scale=h)
                    want = reference_log_shell_weighted_norm(a, lambda m: log_theta_weight(m, params), p)
                    if want == math.inf:  # a log beyond binary64 is a domain error
                        with pytest.raises(DomainError, match="beyond binary64"):
                            log_weighted_seq_norm(a, params, p)
                    else:
                        got = log_weighted_seq_norm(a, params, p)
                        assert_matches_reference(a, got, want, lambda m: log_theta_weight(m, params), p=p)

    @pytest.mark.parametrize("a", reference_fields())
    def test_eta_seminorm(self, a):
        for alpha, h, N_max in ((0.3, 1.5, 40), (1.0, 0.5, 25), (2.0, 20.0, 60)):
            params = SpaceParams(alpha=alpha, scale=h)
            r = eta_seminorm(a, params, N_max)
            log_value, argmax, growing = reference_eta(a, params, N_max)
            # |log|a_n| + N log m| is largest at N = 1 or N = N_max
            assert_matches_reference(a, r.log_value, log_value, log_power(1), log_power(N_max))
            assert (r.argmax, r.growing) == (argmax, growing)


    @pytest.mark.parametrize("a", [
        CoefficientField(2, "total", 5,
                         dict.fromkeys(map(tuple, truncation_index("total", 2, 5).tolist()), 0.0)),
        CoefficientField(1, "total", 4, {(0,): -3.5}),
    ], ids=["all-zero", "constant-only"])
    def test_eta_seminorm_without_a_nonzero_iterate(self, a):
        # every ||E^N f|| with N >= 1 is zero: every ratio is -inf, the first is reported
        for N_max in (1, 2, 30):
            r = eta_seminorm(a, SpaceParams(alpha=1.0, scale=2.0), N_max)
            log_value, argmax, growing = reference_eta(a, SpaceParams(alpha=1.0, scale=2.0), N_max)
            assert same_bits(r.log_value, log_value) and r.log_value == -math.inf
            assert (r.argmax, r.growing) == (argmax, growing) == (1, False)

    def test_eta_seminorm_rising_through_n_max(self):
        # ratios 50^N / (N!)^{1/2} rise up to N = 2500
        a = CoefficientField(1, "total", 50, {(50,): 1.0, (3,): -0.25})
        params = SpaceParams(alpha=0.5, scale=1.0)
        for N_max in (1, 2, 40):
            r = eta_seminorm(a, params, N_max)
            log_value, argmax, growing = reference_eta(a, params, N_max)
            assert same_bits(r.log_value, log_value)
            assert (r.argmax, r.growing) == (argmax, growing) == (N_max, N_max >= 2)


class TestIterateWindow:
    """log_iterate_norm serves consecutive powers from one cached window per field."""

    @pytest.mark.parametrize("a", reference_fields())
    def test_powers_out_of_order_match_the_reference(self, a):
        shuffled = np.random.default_rng(3).permutation(300).tolist()
        powers = list(range(200, -1, -1)) + [200, 0, 10**6, 2**53, 2**53 - 1, 10**6 + 1, 10**6 - 1, 1] + shuffled
        for N in powers:
            assert_matches_reference(a, log_iterate_norm(a, N), reference_log_iterate_norm(a, N), log_power(N))

    def test_derived_fields_do_not_inherit_the_window(self):
        rng = np.random.default_rng(4)
        a = random_field(rng, 2, 6)
        log_iterate_norm(a, 5)  # fills the window of a
        derived = (a.with_values(rng.uniform(-1, 1, a.values.size)),
                   apply_E_spectral(a, 2), semigroup_propagate(a, 0.5))
        for b in derived:
            for N in (5, 6, 4, 1):
                assert_matches_reference(b, log_iterate_norm(b, N), reference_log_iterate_norm(b, N), log_power(N))


@st.composite
def fields_and_weight_rows(draw):
    """A d = 1 or 2 field of up to 301 terms of one scale with zeros, and a
    (B x shells) array of log weights over the shells that hold a nonzero
    term: whole shells -inf in every row, with a drawn chance all of them.
    Terms of like size keep the last bits of each sum in the result."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    dim = draw(st.sampled_from((1, 2)))
    degree = draw(st.integers(min_value=0, max_value=300 if dim == 1 else 23))
    idx = list(map(tuple, truncation_index("total", dim, degree).tolist()))
    vals = rng.standard_normal(len(idx)) * draw(st.sampled_from((1.0, 1e-300, 1e200)))
    vals[rng.random(len(idx)) < draw(st.sampled_from((0.0, 0.3)))] = 0.0
    a = CoefficientField(dim, "total", degree, dict(zip(idx, vals.tolist())))
    rows = draw(st.integers(min_value=1, max_value=12))
    w = rng.normal(0.0, draw(st.sampled_from((0.1, 1.0, 3.0, 40.0))), (rows, a._shells[2].size))
    w[:, rng.random(w.shape[1]) < draw(st.sampled_from((0.0, 0.2, 1.0)))] = -math.inf
    return a, w


@given(fields_and_weight_rows(), st.sampled_from((1.0, 2.0, math.inf, 1e303)))
@settings(max_examples=400, deadline=None)
def test_log_norms_rows_match_the_reference(case, p):
    a, w = case
    got = _log_norms(_shell_log_norms(a, p), w, p)
    assert got.shape == (w.shape[0],)
    for row, value in zip(w, got.tolist()):
        weight = dict(zip(a._shells[2].tolist(), row.tolist()))
        want = reference_log_shell_weighted_norm(a, lambda m: weight.get(m, 0.0), p)
        assert_matches_reference(a, value, want, lambda m: weight.get(m, 0.0), p=p)


@pytest.mark.parametrize("a", reference_fields())
def test_norms_match_an_mpmath_sum(a):
    # the profile and the per-term reference, each within the stated tolerance
    cases = [(log_power(N), 2) for N in (0, 1, 7, 60, 200)]
    cases += [(lambda m, h=h: log_theta_weight(m, SpaceParams(0.37, h)), p) for h in (0.1, 7.5) for p in (1, 3.5)]
    for log_weight, p in cases:
        want = mp_log_shell_weighted_norm(a, log_weight, p)
        tol = LOG_SUMMAND_TOL * log_summand_scale(a, log_weight)
        row = np.array([[log_weight(m) for m in a._shells[2].tolist()]])
        profile = float(_log_norms(_shell_log_norms(a, p), row, p)[0])
        for got in (profile, reference_log_shell_weighted_norm(a, log_weight, p)):
            assert got == want or abs(got - want) <= tol, (got, want)


def test_a_small_difference_of_large_logs():
    # d = 6, degree 10 at scale 1e-300, N = 300: a value of a few units from
    # summands down to -690 (doubled in the sum of squares); both paths stay
    # within the summand-scale tolerance
    rng = np.random.default_rng(5)
    index = truncation_index("total", 6, 10)
    a = CoefficientField._from_arrays(6, "total", 10, index, rng.standard_normal(len(index)) * 1e-300)
    want = mp_log_shell_weighted_norm(a, log_power(300), 2)
    tol = LOG_SUMMAND_TOL * log_summand_scale(a, log_power(300))
    assert abs(want) < 10 and log_summand_scale(a, log_power(300)) > 690
    for got in (log_iterate_norm(a, 300), reference_log_iterate_norm(a, 300)):
        assert abs(got - want) <= tol, (got, want)


@st.composite
def fields_with_wide_shells(draw):
    """A d = 1-3 total-degree field, shells of up to 861 terms (d = 3, degree
    40), magnitudes 10^e with e in [-300, 200] and a drawn spread within the
    field, a drawn share of stored zeros; and a few of its shells to check."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    dim = draw(st.sampled_from((1, 2, 3)))
    degree = draw(st.integers(min_value=0, max_value={1: 300, 2: 80, 3: 40}[dim]))
    index = truncation_index("total", dim, degree)
    low = draw(st.integers(min_value=-300, max_value=200))
    spread = draw(st.sampled_from((0, 1, 20, 500)))
    exps = np.clip(low + spread * rng.random(len(index)), -300, 200)
    vals = rng.choice((-1.0, 1.0), len(index)) * rng.uniform(1.0, 10.0, len(index)) * 10.0 ** exps
    vals[rng.random(len(index)) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0.0
    a = CoefficientField._from_arrays(dim, "total", degree, index, vals)
    k = a._shells[2].size
    picks = sorted({k - 1, *rng.integers(0, k, 2).tolist()}) if k else []
    return a, picks


@given(fields_with_wide_shells(), st.sampled_from((1.0, 2.0, math.inf, 1e303)))
@settings(max_examples=80, deadline=None)
def test_shell_log_norms_match_an_mpmath_sum(case, p):
    a, picks = case
    got = _shell_log_norms(a, p)
    assert got.shape == a._shells[2].shape
    terms, shell_of, shells = a._shells
    for k in picks:
        values = a.values[terms[shell_of == k]].tolist()
        with mpmath.workdps(40):
            logs = [mpmath.log(abs(v)) for v in values]
            top = max(logs)
            if math.isinf(p):
                want = float(top)
            else:
                want = float(top + mpmath.log(mpmath.fsum(mpmath.exp(p * (x - top)) for x in logs)) / p)
        scale = max(1.0, max(abs(math.log(abs(v))) for v in values))
        if len(values) == 1 or math.isinf(p):
            assert same_bits(got[k], math.log(max(map(abs, values))))
        assert abs(got[k] - want) <= LOG_SUMMAND_TOL * scale, (k, len(values), got[k], want)


@pytest.mark.parametrize("p", [1e303, 1e306, 1.7976931348623157e308])
def test_log_norms_shift_a_row_whose_p_times_top_overflows(p):
    # p times the row's largest log (near -1e6 or 1e6) leaves binary64
    a = CoefficientField(1, "total", 3, {(0,): 1.0, (1,): 1e-300, (3,): 0.5})
    for shift in (-1e6, 1e6):
        got = float(_log_norms(_shell_log_norms(a, p), np.full((1, 3), shift), p)[0])
        assert got == pytest.approx(shift, rel=1e-15)
    assert _log_norms(_shell_log_norms(a, p), np.array([[0.0, math.inf, -math.inf]]), p).tolist() == [math.inf]


def test_logsumexp_rows_match_scipy_row_by_row():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(0.0, 50.0, (5, 3)), [[math.inf, 1.0, 0.0], [-math.inf] * 3, [-math.inf, 0.0, -700.0]]])
    got = _logsumexp(x)
    assert got.shape == (8,)
    for row, value in zip(x, got.tolist()):
        assert same_bits(value, logsumexp(row))


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


@st.composite
def fields_with_stored_zeros(draw):
    """(a field with decaying terms on a random subset of a total-degree set,
    the same field with zero records added on shells that hold a term and on
    a shell above every term, the indices of those zero records)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    dim = draw(st.sampled_from((1, 2, 3)))
    degree = draw(st.integers(min_value=0, max_value={1: 40, 2: 12, 3: 6}[dim]))
    idx = truncation_index("total", dim, degree + 1)
    inside = np.flatnonzero(idx.sum(axis=1) <= degree)
    terms = inside[rng.random(inside.size) < draw(st.sampled_from((0.3, 0.7, 1.0)))]
    orders = idx[terms].sum(axis=1)
    vals = rng.uniform(-1.0, 1.0, terms.size) * np.exp(-draw(st.sampled_from((0.0, 0.5))) * orders)
    vals[vals == 0.0] = 1.0
    free = np.setdiff1d(inside, terms)
    zeros = free[np.isin(idx[free].sum(axis=1), orders) & (rng.random(free.size) < 0.5)]
    zeros = np.append(zeros, rng.choice(np.flatnonzero(idx.sum(axis=1) == degree + 1)))
    a = CoefficientField._from_arrays(dim, "total", degree + 1, idx[terms], vals)
    b = CoefficientField._from_arrays(dim, "total", degree + 1, idx[np.append(terms, zeros)],
                                      np.append(vals, np.zeros(zeros.size)))
    return a, b, list(map(tuple, idx[zeros].tolist()))


@given(fields_with_stored_zeros(), st.sampled_from((0, 1, 2, 7)), st.sampled_from((0.0, 0.37, 25.0, 800.0)))
@settings(max_examples=60, deadline=None)
def test_a_stored_zero_changes_no_answer(case, N, t):
    a, b, zeros = case
    for op in (lambda f: apply_E_spectral(f, N), lambda f: semigroup_propagate(f, t)):
        got, want = op(b).entries, op(a).entries
        assert len(got) == len(want) + len(zeros)
        assert all(same_bits(got[n], v) for n, v in want.items())
        assert all(same_bits(got[n], 0.0) for n in zeros)
    params = SpaceParams(1.0, 0.5)
    for p in (1, 2, math.inf):
        assert same_bits(log_weighted_seq_norm(b, params, p), log_weighted_seq_norm(a, params, p))
    for M in (0, 1, 3, 40):
        assert same_bits(log_iterate_norm(b, M), log_iterate_norm(a, M))
    assert eta_seminorm(b, params, 12) == eta_seminorm(a, params, 12)
    assert classify_membership(b, 1.0) == classify_membership(a, 1.0)
    # synthesis, derivatives and the G-type box read the terms alone
    pts = np.random.default_rng(len(zeros)).uniform(0.0, 30.0, size=(5, a.dim))
    assert synthesize(b, pts).tobytes() == synthesize(a, pts).tobytes()
    for got, want in zip(as_scalar_field(b).deriv(pts), as_scalar_field(a).deriv(pts)):
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert repr(gtype_seminorm(b, params, 2)) == repr(gtype_seminorm(a, params, 2))
