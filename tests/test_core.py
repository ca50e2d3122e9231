import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.laguerre import lagval

from orthlag import core
from orthlag.core import (
    DomainError,
    laguerre_fn_derivative_sweep,
    laguerre_fn_log_christoffel,
    laguerre_fn_sweep,
    truncation_index,
    truncation_shell_counts,
    validate_multi_index,
)
from orthlag.transform import CoefficientField, synthesize


def laguerre_fn_eval(n, x):
    """The former one-point evaluator, kept as the reference: l_n(x) =
    prod_j l_{n_j}(x_j), one sweep per axis."""
    n = validate_multi_index(n)
    pt = np.asarray(x, dtype=float)
    if pt.shape != (len(n),):
        raise DomainError(f"dimension mismatch: index has {len(n)} entries, point has shape {pt.shape}")
    val = 1.0
    for nj, xj in zip(n, pt):
        val *= laguerre_fn_sweep(nj, xj)[nj, 0]
    return val


def unit_field(n):
    """The field l_n: the single term a_n = 1."""
    return CoefficientField(len(n), "total", sum(n), {tuple(n): 1.0})


def l_at(n, x):
    """l_n(x) at one point, from `synthesize` of the unit field."""
    return synthesize(unit_field(n), [x])[0]


class TestLaguerrePolyEval:
    """The polynomial factor L_j(x) = l_j(x) e^{x/2} of the damped sweep."""

    def test_degree_zero_is_one(self):
        assert laguerre_fn_sweep(0, 7.3)[0, 0] * math.exp(7.3 / 2) == pytest.approx(1.0, rel=1e-15)

    def test_degree_one(self):
        assert laguerre_fn_sweep(1, 2.0)[1, 0] * math.exp(1.0) == pytest.approx(-1.0, rel=1e-15)

    def test_degree_two(self):
        # L_2(x) = (x^2 - 4x + 2)/2
        assert laguerre_fn_sweep(2, 1.0)[2, 0] * math.exp(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_rejects_negative_argument(self):
        for evaluate in (lambda: laguerre_fn_sweep(3, -0.1), lambda: l_at((3,), (-0.1,))):
            with pytest.raises(DomainError):
                evaluate()

    def test_rejects_negative_degree(self):
        for evaluate in (lambda: laguerre_fn_sweep(-1, 1.0), lambda: l_at((-1,), (1.0,))):
            with pytest.raises(DomainError):
                evaluate()


class TestLaguerreFnEval:
    """l_n(x) at one point, from `synthesize` of the unit field."""

    def test_value_at_origin(self):
        assert l_at((0,), (0.0,)) == 1.0

    def test_exponential_damping(self):
        assert l_at((0,), (2.0,)) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_tensor_product(self):
        assert l_at((0, 0), (1.0, 3.0)) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            l_at((1, 2), (1.0,))

    def test_corner_value_is_one_for_all_indices(self):
        for n in [(3,), (10,), (4, 9), (1, 2, 3)]:
            assert l_at(n, [0.0] * len(n)) == pytest.approx(1.0, abs=1e-13)

    def test_matches_polynomial_times_damping(self):
        xs = np.array([0.3, 1.7, 9.0])
        rows = laguerre_fn_sweep(11, xs)
        for j in range(12):
            for i, x in enumerate(xs):
                expected = lagval(x, np.eye(j + 1)[j]) * math.exp(-x / 2)
                assert rows[j, i] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unit_fields_match_the_one_point_reference_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        far = [0.0, 1e-300, 700.0, 1416.0, 1500.0, 3850.0]  # the damped and the rescaled paths
        for _ in range(40):
            n = tuple(rng.integers(0, 60, size=dim).tolist())
            pts = np.concatenate([rng.uniform(0.0, 80.0, size=(20, dim)), rng.choice(far, size=(10, dim))])
            got = synthesize(unit_field(n), pts)
            want = np.array([laguerre_fn_eval(n, x) for x in pts])
            # bit for bit, up to the sign of a zero (the sum over terms starts from +0)
            assert np.array_equal(got, want)


class TestDerivatives:
    def test_ground_state_first_derivative(self):
        _, dl, _ = laguerre_fn_derivative_sweep(0, 2.0)
        assert dl[0, 0] == pytest.approx(-0.5 * math.exp(-1.0), rel=1e-14)

    def test_first_excited_at_boundary(self):
        # l_1 = (1-x) e^{-x/2}: value 1, derivative -3/2 at x = 0
        l, dl, _ = laguerre_fn_derivative_sweep(1, 0.0)
        assert l[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert dl[1, 0] == pytest.approx(-1.5, abs=1e-15)

    def test_ground_state_second_derivative(self):
        _, _, ddl = laguerre_fn_derivative_sweep(0, 4.0)
        assert ddl[0, 0] == pytest.approx(0.25 * math.exp(-2.0), rel=1e-14)

    def test_against_central_differences(self):
        xs = np.array([0.7, 3.1, 11.0])
        h = 1e-4
        l, dl, ddl = laguerre_fn_derivative_sweep(8, xs)
        for j in (1, 5, 8):
            for i, x in enumerate(xs):
                up, mid, dn = laguerre_fn_sweep(j, np.array([x + h, x, x - h]))[j]
                assert dl[j, i] == pytest.approx((up - dn) / (2 * h), abs=1e-6)
                assert ddl[j, i] == pytest.approx((up - 2 * mid + dn) / h**2, abs=1e-4)


class TestRecurrenceInvariants:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 50.0])
    def test_three_term_consistency(self, x):
        l = laguerre_fn_sweep(61, x)[:, 0]
        for j in range(1, 60):
            resid = abs((j + 1) * l[j + 1] - (2 * j + 1 - x) * l[j] + j * l[j - 1])
            assert resid <= 1e-12 * max(1.0, abs(l[j]))

    def test_ode_residual(self):
        # E l_j = j l_j written out: x l'' + l' - (x/4) l + l/2 = -j l
        xs = np.geomspace(1e-3, 80.0, 200)
        l, dl, ddl = laguerre_fn_derivative_sweep(40, xs)
        for j in range(41):
            resid = xs * ddl[j] + dl[j] - (xs / 4) * l[j] + 0.5 * l[j] + j * l[j]
            assert np.max(np.abs(resid)) <= 1e-8

    @pytest.mark.parametrize("K,xs", [(26, [0.5, 4.0, 60.0]), (300, [600.0])], ids=["K26", "K300-rescaled"])
    def test_log_christoffel_matches_direct_sweep(self, K, xs):
        # at x = 600 the bare polynomials pass 1e100, so the rescaling runs
        xs = np.array(xs)
        direct = np.log(np.sum(laguerre_fn_sweep(K - 1, xs) ** 2, axis=0))
        assert np.allclose(laguerre_fn_log_christoffel(K, xs), direct, rtol=1e-12)

    def test_log_christoffel_survives_huge_arguments(self):
        assert np.isfinite(laguerre_fn_log_christoffel(512, np.array([2000.0]))).all()


class TestMultiIndices:
    def test_validate_rejects_negative(self):
        with pytest.raises(DomainError):
            validate_multi_index((1, -2))

    def test_validate_rejects_fractional(self):
        with pytest.raises(DomainError):
            validate_multi_index((1.5,))

    def test_total_degree_count(self):
        # |{n : |n| <= M}| = C(M + d, d)
        for d in range(1, 5):
            for M in range(7):
                assert truncation_index("total", d, M).shape == (math.comb(M + d, d), d)

    def test_box_count(self):
        for d in range(1, 5):
            for M in range(5):
                assert truncation_index("box", d, M).shape == ((M + 1) ** d, d)

    def test_graded_lex_order(self):
        idx = [tuple(n) for n in truncation_index("total", 2, 3).tolist()]
        assert idx[:4] == [(0, 0), (0, 1), (1, 0), (0, 2)]
        # an independent key: |n| first, then the entries as base-(M+1) digits
        for kind, d, M in [("total", 3, 5), ("box", 3, 4), ("box", 4, 2)]:
            rows = truncation_index(kind, d, M).tolist()
            keys = [(sum(n), int("".join(map(str, n)), M + 1)) for n in rows]
            assert keys == sorted(keys)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5))
    def test_order_is_permutation_invariant(self, entries):
        n = validate_multi_index(entries)
        orders = [unit_field(m).orders[0] for m in (n, tuple(reversed(n)))]
        assert orders[0] == orders[1] == sum(entries) >= 0

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=4))
    def test_compositions_sum(self, total, parts):
        # the shell |n| = total of the truncation set holds the compositions of total
        rows = truncation_index("total", parts, total)
        combos = [tuple(n) for n in rows[rows.sum(axis=1) == total].tolist()]
        assert all(min(c) >= 0 for c in combos)
        assert len(set(combos)) == len(combos) == math.comb(total + parts - 1, parts - 1)

    @given(st.sampled_from(["total", "box"]), st.integers(1, 4), st.integers(0, 6))
    def test_rows_are_unique_and_within_the_bound(self, kind, dim, degree):
        rows = truncation_index(kind, dim, degree)
        assert rows.dtype == np.int64 and rows.min(initial=0) >= 0
        reach = rows.sum(axis=1) if kind == "total" else rows.max(axis=1)
        assert reach.max() == degree
        assert len({tuple(n) for n in rows.tolist()}) == len(rows)

    @pytest.mark.parametrize("kind,dim,degree", [
        ("simplex", 2, 3), ("total", 0, 3), ("box", -1, 2), ("total", 2, -1), ("box", 1, -1),
    ])
    def test_truncation_index_rejects_bad_arguments(self, kind, dim, degree):
        with pytest.raises(DomainError):
            truncation_index(kind, dim, degree)
        with pytest.raises(DomainError):
            truncation_shell_counts(kind, dim, degree)

    @pytest.mark.parametrize("kind,dim,degree", [
        ("total", 30, 30), ("box", 30, 30), ("box", 10**9, 0), ("box", 10**9, 1),
        ("total", 2, 10**15), ("total", 10**9, 10**9), ("box", 64, 10**15),
    ])
    def test_truncation_index_over_the_cap_fails_before_any_array(self, monkeypatch, kind, dim, degree):
        # ("total", 30, 30) allocated until the process was killed; with NumPy
        # out of reach, a missing size check fails here instead
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} called before the size check")

        monkeypatch.setattr(core, "np", NoArrays())
        with pytest.raises(DomainError, match="index entries, the cap"):
            truncation_index(kind, dim, degree)

    def test_truncation_index_cap_counts_terms_times_dimension(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_INDEX_ENTRIES", 12)
        assert truncation_index("total", 2, 2).shape == (6, 2)
        assert truncation_index("box", 1, 11).shape == (12, 1)
        for kind, dim, degree in (("total", 2, 3), ("box", 2, 2), ("box", 1, 12), ("total", 13, 0)):
            with pytest.raises(DomainError, match="index entries, the cap"):
                truncation_index(kind, dim, degree)

    @pytest.mark.parametrize("kind", ["total", "box"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_shell_counts_match_the_truncation_set(self, kind, dim):
        for degree in range(9):
            counts = np.bincount(truncation_index(kind, dim, degree).sum(axis=1))
            assert truncation_shell_counts(kind, dim, degree) == counts.tolist()


    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_box_shell_counts_match_the_convolution_of_ones(self, dim):
        # the former dim-fold convolution of degree+1 ones, kept as the reference
        for degree in (0, 1, 9, 40):
            want = np.ones(1, dtype=object)
            for _ in range(dim):
                want = np.convolve(want, np.ones(degree + 1, dtype=object))
            assert truncation_shell_counts("box", dim, degree) == want.tolist()

    @pytest.mark.parametrize("kind,dim,degree", [
        ("total", 2, 10**6), ("box", 2, 10**6), ("box", 1025, 1), ("total", 1, 2**63 - 1),
        ("box", 10**9, 10**9),
    ])
    def test_shell_counts_over_the_cap_fail_before_any_work(self, monkeypatch, kind, dim, degree):
        # ("box", 2, 10**6) ran past two minutes in the dim-fold convolution
        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} called before the size check")

        monkeypatch.setattr(core, "np", NoArrays())
        monkeypatch.setattr(core.math, "comb", None)
        with pytest.raises(DomainError, match="dim x shells") as err:
            truncation_shell_counts(kind, dim, degree)
        assert "\n" not in str(err.value)

    def test_shell_counts_at_the_cap(self):
        cap = core.MAX_SHELL_COUNT_WORK
        assert len(truncation_shell_counts("total", 2, cap // 2 - 1)) == cap // 2
        assert truncation_shell_counts("box", cap, 0) == [1]
        with pytest.raises(DomainError, match="dim x shells"):
            truncation_shell_counts("total", 2, cap // 2)
        with pytest.raises(DomainError, match="dim x shells"):
            truncation_shell_counts("box", cap + 1, 0)


def reference_compositions(total, parts):
    """The former recursive generator, kept as the reference: all multi-indices
    with `parts` entries summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_truncation_indices(kind, dim, degree):
    """The former total-degree and box generators: graded lexicographic."""
    for m in range((dim if kind == "box" else 1) * degree + 1):
        for n in reference_compositions(m, dim):
            if kind == "total" or max(n) <= degree:
                yield n


@pytest.mark.parametrize("kind", ["total", "box"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_truncation_index_matches_the_recursive_generators(kind, dim):
    for degree in range(13):
        want = list(reference_truncation_indices(kind, dim, degree))
        got = truncation_index(kind, dim, degree)
        assert got.dtype == np.int64 and got.shape == (len(want), dim)
        assert [tuple(n) for n in got.tolist()] == want


# ---------------------------------------------------------------------------
# the one recurrence kernel against the two loops it replaced and mpmath
# ---------------------------------------------------------------------------

def reference_damped_sweep(max_degree, x):
    """The former laguerre_fn_sweep: the recurrence on the damped sequence,
    started from e^{-x/2}, which is subnormal beyond x ~ 1416.8."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((max_degree + 1, x.size))
    out[0] = np.exp(-x / 2.0)
    if max_degree >= 1:
        out[1] = (1.0 - x) * out[0]
    for j in range(1, max_degree):
        out[j + 1] = ((2 * j + 1 - x) * out[j] - j * out[j - 1]) / (j + 1)
    return out


def reference_log_christoffel(K, x):
    """The former laguerre_fn_log_christoffel: the bare recurrence, divided by
    its magnitude whenever that passes 1e100, with the squares summed on the go."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = -x / 2.0
    u_prev, u = np.zeros_like(x), np.ones_like(x)
    S = np.ones_like(x)
    for j in range(K - 1):
        u_prev, u = u, ((2 * j + 1 - x) * u - j * u_prev) / (j + 1)
        S = S + u * u
        mag = np.maximum(np.abs(u), np.abs(u_prev))
        if np.any(mag > 1e100):
            scale = np.where(mag > 1e100, mag, 1.0)
            u = u / scale
            u_prev = u_prev / scale
            S = S / (scale * scale)
            g = g + np.log(scale)
    return np.log(S) + 2.0 * g


def mp_laguerre_fns(max_degree, x, dps):
    """l_0(x), ..., l_max(x) as mpmath numbers with `dps` digits."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        bare = [mpmath.mpf(1), 1 - x]
        for j in range(1, max_degree):
            bare.append(((2 * j + 1 - x) * bare[j] - j * bare[j - 1]) / (j + 1))
        damp = mpmath.exp(-x / 2)
        return [v * damp for v in bare[: max_degree + 1]]


class TestOneRecurrence:
    # beyond x ~ 1416.8 the damped start is subnormal, and the former sweep
    # missed by 5.9e-2, 5.8e-2, 1.3e-2 and 7.0e-6 at the first four points
    @pytest.mark.parametrize("x", [1500.0, 1550.0, 1622.0, 1700.0, 3000.0])
    def test_sweep_matches_60_digit_values_beyond_the_damped_range(self, x):
        want = np.array([float(v) for v in mp_laguerre_fns(400, x, 60)])
        got = laguerre_fn_sweep(400, x)[:, 0]
        assert np.max(np.abs(got - want)) <= 1e-14
        if x < 2000.0:
            assert np.max(np.abs(reference_damped_sweep(400, x)[:, 0] - want)) > 1e-6

    def test_tiny_values_keep_their_relative_accuracy(self):
        # at x = 3850 the log scale of the rows is below -745, so e^g alone
        # underflows, while eleven of the l_j are normal binary64 numbers
        want = np.array([float(v) for v in mp_laguerre_fns(400, 3850.0, 60)])
        got = laguerre_fn_sweep(400, 3850.0)[:, 0]
        normal = np.abs(want) > 1e-300
        assert normal.sum() == 11
        assert np.max(np.abs(got[normal] - want[normal]) / np.abs(want[normal])) <= 1e-13

    @pytest.mark.parametrize("max_degree", [0, 1, 2, 60, 400])
    def test_sweep_below_1400_is_the_former_sweep_bit_for_bit(self, max_degree):
        x = np.concatenate([[0.0, 1e-300, 1399.99], np.random.default_rng(7).uniform(0, 1400, 500)])
        got = laguerre_fn_sweep(max_degree, x)
        assert got.tobytes() == reference_damped_sweep(max_degree, x).tobytes()

    def test_mixed_call_keeps_the_damped_points_and_mends_the_rest(self):
        x = np.array([3.0, 1500.0, 900.0, 1622.0])
        got = laguerre_fn_sweep(400, x)
        near = [0, 2]
        assert got[:, near].tobytes() == reference_damped_sweep(400, x[near]).tobytes()
        for k in (1, 3):
            want = np.array([float(v) for v in mp_laguerre_fns(400, x[k], 60)])
            assert np.max(np.abs(got[:, k] - want)) <= 1e-14

    @pytest.mark.parametrize("x", [1e4, 1e6, 1e9, 1e250, 1.7e308])
    def test_huge_arguments_stay_finite_without_warnings(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = laguerre_fn_sweep(400, np.array([x, 2.0]))
            log_christoffel = laguerre_fn_log_christoffel(416, np.array([x]))
        assert np.isfinite(values).all() and np.isfinite(log_christoffel).all()
        assert values[:, 1].tobytes() == reference_damped_sweep(400, 2.0)[:, 0].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_are_domain_errors(self, bad):
        x = np.array([1.0, bad])
        with pytest.raises(DomainError, match="finite"):
            laguerre_fn_sweep(5, x)
        with pytest.raises(DomainError, match="finite"):
            laguerre_fn_log_christoffel(5, x)

    # the former loop was within 4.8e-14 at K = 416, but missed by 2.8e-13 at
    # K = 512, x = 2500, where its log scale had taken several roundings
    @pytest.mark.parametrize("K,xs", [(416, [0.3, 5.0, 50.0, 300.0, 800.0, 1200.0, 1500.0, 1622.0]),
                                      (512, [2000.0, 2500.0])])
    def test_log_christoffel_matches_50_digit_values(self, K, xs):
        got = laguerre_fn_log_christoffel(K, np.array(xs))
        for x, value in zip(xs, got):
            with mpmath.workdps(50):
                want = mpmath.log(mpmath.fsum(v * v for v in mp_laguerre_fns(K - 1, x, 50)))
            assert abs(value - float(want)) <= 6e-14

    def test_log_christoffel_where_every_term_underflows(self):
        # l_j(1300)^2 < 1e-560 for every j < 30
        assert laguerre_fn_log_christoffel(30, 1300.0)[0] == pytest.approx(-1027.9698891989121, abs=1e-10)

    @pytest.mark.parametrize("K", [1, 2, 26, 300, 416, 512])
    def test_log_christoffel_matches_the_former_loop(self, K):
        x = np.concatenate([np.linspace(0.0, 2500.0, 51), [1e4]])
        got, want = laguerre_fn_log_christoffel(K, x), reference_log_christoffel(K, x)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


# ---------------------------------------------------------------------------
# the derivatives from the values of the one sweep, against the former loop
# and mpmath
# ---------------------------------------------------------------------------

def reference_derivative_sweep(max_degree, x):
    """The former laguerre_fn_derivative_sweep: the recurrence and its two
    differentiated companions, run on the damped sequences from e^{-x/2},
    so it holds below x ~ 1416.8 only."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.empty((max_degree + 1, x.size))   # L_j  e^{-x/2}
    dv = np.zeros((max_degree + 1, x.size))  # L_j' e^{-x/2}
    ddv = np.zeros((max_degree + 1, x.size))  # L_j'' e^{-x/2}
    v[0] = np.exp(-x / 2.0)
    if max_degree >= 1:
        v[1] = (1.0 - x) * v[0]
        dv[1] = -v[0]
    for j in range(1, max_degree):
        c = 2 * j + 1 - x
        v[j + 1] = (c * v[j] - j * v[j - 1]) / (j + 1)
        dv[j + 1] = (c * dv[j] - v[j] - j * dv[j - 1]) / (j + 1)
        ddv[j + 1] = (c * ddv[j] - 2 * dv[j] - j * ddv[j - 1]) / (j + 1)
    return v, dv - v / 2.0, ddv - dv + v / 4.0


def mp_laguerre_fn_derivatives(max_degree, x, dps):
    """(l, l', l'') of l_0..l_max at x > 0 as float arrays, computed with `dps`
    digits from x L_n' = n (L_n - L_{n-1}) and the ODE x L_n'' = (x-1) L_n' - n L_n,
    independently of the cumulative sums under test."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        L = [mpmath.mpf(1), 1 - x]
        for j in range(1, max_degree):
            L.append(((2 * j + 1 - x) * L[j] - j * L[j - 1]) / (j + 1))
        L = L[: max_degree + 1]
        d1 = [mpmath.mpf(0)] + [n * (L[n] - L[n - 1]) / x for n in range(1, max_degree + 1)]
        d2 = [((x - 1) * d1[n] - n * L[n]) / x for n in range(max_degree + 1)]
        damp = mpmath.exp(-x / 2)
        rows = ([v * damp for v in L], [(b - a / 2) * damp for a, b in zip(L, d1)],
                [(c - b + a / 4) * damp for a, b, c in zip(L, d1, d2)])
        return [np.array([float(v) for v in row]) for row in rows]


class TestOneDerivativePath:
    # the worst case is l'' at degree 400, x = 0.5: 2.0e-13 of max_j |l_j''| = 105
    @pytest.mark.parametrize("x", [0.5, 50.0, 300.0, 1500.0, 1622.0])
    @pytest.mark.parametrize("max_degree", [40, 400])
    def test_derivatives_match_60_digit_values(self, max_degree, x):
        want = mp_laguerre_fn_derivatives(max_degree, x, 60)
        got = [rows[:, 0] for rows in laguerre_fn_derivative_sweep(max_degree, x)]
        assert np.max(np.abs(got[0] - want[0])) <= 1e-14
        for g, w in zip(got[1:], want[1:]):
            assert np.max(np.abs(g - w)) <= 5e-13 * max(1.0, np.max(np.abs(w)))

    def test_derivatives_beyond_the_damped_range(self):
        # the former loop missed by 5.9e-2, 5.2e-3 and 6.1e-4 here
        want = mp_laguerre_fn_derivatives(400, 1500.0, 60)
        got = laguerre_fn_derivative_sweep(400, 1500.0)
        for g, former, w in zip(got, reference_derivative_sweep(400, 1500.0), want):
            assert np.max(np.abs(g[:, 0] - w)) <= 7e-16
            assert np.max(np.abs(former[:, 0] - w)) > 1e-4

    @pytest.mark.parametrize("max_degree", [0, 1, 2, 60, 400])
    def test_derivatives_match_the_former_loop_below_1400(self, max_degree):
        x = np.concatenate([[0.0, 1e-300, 1399.99], np.random.default_rng(7).uniform(0, 1400, 500)])
        for got, want in zip(laguerre_fn_derivative_sweep(max_degree, x), reference_derivative_sweep(max_degree, x)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want).max(axis=0))) <= 5e-13

    @pytest.mark.parametrize("bad", [-1, 2.5, 3.0, math.nan, "3"])
    def test_bad_degree_is_a_domain_error(self, bad):
        for sweep in (laguerre_fn_sweep, laguerre_fn_derivative_sweep):
            with pytest.raises(DomainError, match="degree must be a nonnegative integer"):
                sweep(bad, np.array([1.0]))

    def test_numpy_integer_degrees_are_accepted(self):
        x = np.array([0.5, 3.0, 1500.0])
        for deg in (np.int64(7), np.int32(7)):
            assert laguerre_fn_sweep(deg, x).tobytes() == laguerre_fn_sweep(7, x).tobytes()
            for got, want in zip(laguerre_fn_derivative_sweep(deg, x), laguerre_fn_derivative_sweep(7, x)):
                assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# short damped sweeps on Python floats against the array loop
# ---------------------------------------------------------------------------

SHORT = core.SCALAR_SWEEP_POINTS
# 0, the rest of the damped range, the edge where e^{-x/2} turns subnormal (x ~ 1416.79)
# and past it, where every point of the sweep takes the array loop
SWEEP_COORDS = st.one_of(st.just(0.0), st.floats(0.0, 1416.0), st.floats(1415.0, 1418.0), st.floats(1418.0, 3000.0))


@settings(max_examples=300, deadline=None)
@given(max_degree=st.integers(0, 120), x=st.lists(SWEEP_COORDS, min_size=1, max_size=2 * SHORT + 1))
@example(max_degree=20, x=[0.5 * k for k in range(SHORT)])
@example(max_degree=20, x=[0.5 * k for k in range(SHORT + 1)])
@example(max_degree=0, x=[1416.0])
@example(max_degree=1, x=[1416.0, 0.0])
def test_short_sweeps_are_the_array_loop_bit_for_bit(max_degree, x):
    # padded past SHORT points, the same points go through the array loop; the
    # recurrence runs on each point alone, so each column must keep its bits
    # (compared as bytes, so a signed zero counts too)
    x = np.array(x)
    padded = np.concatenate([x, np.linspace(0.0, 30.0, SHORT + 1)])
    assert laguerre_fn_sweep(max_degree, x).shape == (max_degree + 1, x.size)
    pairs = zip((laguerre_fn_sweep(max_degree, x), *laguerre_fn_derivative_sweep(max_degree, x)),
                (laguerre_fn_sweep(max_degree, padded), *laguerre_fn_derivative_sweep(max_degree, padded)))
    for got, want in pairs:
        for k in range(x.size):
            assert got[:, k].tobytes() == want[:, k].tobytes()
