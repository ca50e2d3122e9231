import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.laguerre import lagval

from orthlag.core import (
    DomainError,
    index_order,
    laguerre_fn_derivative_sweep,
    laguerre_fn_eval,
    laguerre_fn_log_christoffel,
    laguerre_fn_sweep,
    truncation_index,
    truncation_shell_counts,
    validate_multi_index,
)


class TestLaguerrePolyEval:
    """The polynomial factor L_j(x) = l_j(x) e^{x/2} of the damped evaluator."""

    def test_degree_zero_is_one(self):
        assert laguerre_fn_eval((0,), (7.3,)) * math.exp(7.3 / 2) == pytest.approx(1.0, rel=1e-15)

    def test_degree_one(self):
        assert laguerre_fn_eval((1,), (2.0,)) * math.exp(1.0) == pytest.approx(-1.0, rel=1e-15)

    def test_degree_two(self):
        # L_2(x) = (x^2 - 4x + 2)/2
        assert laguerre_fn_eval((2,), (1.0,)) * math.exp(0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            laguerre_fn_eval((3,), (-0.1,))

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            laguerre_fn_eval((-1,), (1.0,))


class TestLaguerreFnEval:
    def test_value_at_origin(self):
        assert laguerre_fn_eval((0,), (0.0,)) == 1.0

    def test_exponential_damping(self):
        assert laguerre_fn_eval((0,), (2.0,)) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_tensor_product(self):
        assert laguerre_fn_eval((0, 0), (1.0, 3.0)) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            laguerre_fn_eval((1, 2), (1.0,))

    def test_corner_value_is_one_for_all_indices(self):
        for n in [(3,), (10,), (4, 9), (1, 2, 3)]:
            assert laguerre_fn_eval(n, [0.0] * len(n)) == pytest.approx(1.0, abs=1e-13)

    def test_matches_polynomial_times_damping(self):
        for j in range(12):
            for x in (0.3, 1.7, 9.0):
                expected = lagval(x, np.eye(j + 1)[j]) * math.exp(-x / 2)
                assert laguerre_fn_eval((j,), (x,)) == pytest.approx(expected, rel=1e-12)


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
                up = laguerre_fn_eval((j,), (x + h,))
                dn = laguerre_fn_eval((j,), (x - h,))
                mid = laguerre_fn_eval((j,), (x,))
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
        assert index_order(n) == index_order(tuple(reversed(n)))
        assert index_order(n) >= 0

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

    @pytest.mark.parametrize("kind", ["total", "box"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_shell_counts_match_the_truncation_set(self, kind, dim):
        for degree in range(9):
            counts = np.bincount(truncation_index(kind, dim, degree).sum(axis=1))
            assert truncation_shell_counts(kind, dim, degree) == counts.tolist()


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
