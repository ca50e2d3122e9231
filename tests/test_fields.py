"""The built-in fields' one-point evaluator against the former NumPy one, and
their `deriv` against the former `npoly.polyval` one, bit for bit."""

import math
import time
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.laguerre import lag2poly

from orthlag.core import DomainError
from orthlag.fields import field_by_name, separable_poly_exp_field

EPS = 2.0**-52


def reference_evaluator(axis_coeffs, rates):
    """The former evaluator of `separable_poly_exp_field`, kept as the
    reference: npoly.polyval times np.exp per axis, multiplied in axis order."""
    axis_coeffs = [np.asarray(c, dtype=float) for c in axis_coeffs]

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        val = 1.0
        for j, (c, s) in enumerate(zip(axis_coeffs, rates)):
            val *= float(npoly.polyval(x[j], c) * np.exp(-s * x[j]))
        return val

    return evaluator


# each built-in as (registry name, per-axis ascending coefficients, rate)
BUILTINS = [
    ("exp-decay", lambda d: [[1.0]] * d, 1.0),
    ("l:23", lambda d: [lag2poly(np.eye(24)[23])], 0.5),
    ("l:5,0,17", lambda d: [lag2poly(np.eye(n + 1)[n]) for n in (5, 0, 17)], 0.5),
    ("l:2,9", lambda d: [lag2poly(np.eye(n + 1)[n]) for n in (2, 9)], 0.5),
    ("poly-exp:1,-2,0.5,3", lambda d: [[1.0, -2.0, 0.5, 3.0]] * d, 0.5),
    ("poly-exp:-0.0,1e-300,7", lambda d: [[-0.0, 1e-300, 7.0]] * d, 0.5),
    ("poly-exp:1e308,1e308", lambda d: [[1e308, 1e308]] * d, 0.5),
]
CASES = [pytest.param(name, coeffs, rate, d, id=f"{name}-d{d}") for name, coeffs, rate in BUILTINS
         for d in (1, 2, 3) if not name.startswith("l:") or name.count(",") + 1 == d]


def sample_points(d, seed, n=10_000):
    """n points of [0, 1400]^d, dense near 0 where the values are not tiny, with
    the origin and the ends of the range on every axis."""
    pts = 1400.0 * np.random.default_rng(seed).uniform(size=(n, d)) ** 3
    pts[:3] = [[0.0] * d, [1400.0] * d, [1e-9] * d]
    return pts


@pytest.mark.parametrize("name,coeffs,rate,d", CASES)
def test_builtin_evaluator_matches_the_former_one(name, coeffs, rate, d):
    axis_coeffs = coeffs(d)
    f = field_by_name(name, None if name.startswith("l:") else d)
    assert f.dim == d
    ref = reference_evaluator(axis_coeffs, [rate] * d)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = (np.array([ev(x) for x in sample_points(d, seed=d)]) for ev in (f.evaluator, ref))
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    if name == "poly-exp:1e308,1e308":
        assert not finite.all()
    got, want = got[finite], want[finite]
    both_zero = (got == 0) & (want == 0)
    # math.exp and np.exp may differ by one ulp per axis; where the value is
    # subnormal, that ulp is absolute, 2^-1074, not relative
    close = np.abs(got - want) <= 4 * d * EPS * np.abs(want) + d * 2.0**-1074
    assert np.all(both_zero | close)


# with this rate e^{-s x} rounds to 1.0 for every x in [0, 1400], in math.exp
# and in np.exp, so a value is the product of the polynomial factors alone
TINY_RATE = 5e-324


@pytest.mark.parametrize("name,coeffs,rate,d", CASES)
def test_builtin_polynomial_factor_is_bit_identical(name, coeffs, rate, d):
    pts = sample_points(d, seed=10 + d)
    assert math.exp(-TINY_RATE * 1400.0) == 1.0 == np.exp(-TINY_RATE * 1400.0)
    axis_coeffs = coeffs(d)
    f = separable_poly_exp_field(axis_coeffs, [TINY_RATE] * d)
    ref = reference_evaluator(axis_coeffs, [TINY_RATE] * d)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = (np.array([ev(x) for x in pts]) for ev in (f.evaluator, ref))
    assert got.tobytes() == want.tobytes()
    if d == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            assert got.tobytes() == npoly.polyval(pts[:, 0], axis_coeffs[0]).tobytes()


def reference_deriv(axis_coeffs, rates):
    """The former `deriv` of `separable_poly_exp_field`, kept as the reference:
    per axis and order, npoly.polyval of ascending coefficient arrays times np.exp."""
    axis_coeffs = [np.asarray(c, dtype=float) for c in axis_coeffs]
    rates = [float(s) for s in rates]
    dim = len(rates)

    def d_coeffs(coeffs, s):
        return npoly.polysub(npoly.polyder(coeffs), s * coeffs)

    axis_derivs = []
    for c, s in zip(axis_coeffs, rates):
        d1 = d_coeffs(c, s)
        axis_derivs.append((c, d1, d_coeffs(d1, s)))

    def axis_value(j, order, xj):
        return npoly.polyval(xj, axis_derivs[j][order]) * np.exp(-rates[j] * xj)

    def deriv(pts):
        vals, d1s, d2s = ([axis_value(j, order, pts[:, j]) for j in range(dim)] for order in range(3))
        total = math.prod(vals)
        rests = [math.prod(vals[:j] + vals[j + 1:]) for j in range(dim)]
        return [(total, d1 * rest, d2 * rest) for d1, d2, rest in zip(d1s, d2s, rests)]

    return deriv


def assert_same_deriv(got, want):
    assert len(got) == len(want)
    for got_axis, want_axis in zip(got, want):
        for g, w in zip(got_axis, want_axis):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name,coeffs,rate,d", CASES)
def test_builtin_deriv_is_bit_identical_to_polyval(name, coeffs, rate, d):
    f = field_by_name(name, None if name.startswith("l:") else d)
    pts = sample_points(d, seed=20 + d)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_deriv(f.deriv(pts), reference_deriv(coeffs(d), [rate] * d)(pts))


def test_axes_share_a_table_only_when_coefficients_and_rate_agree():
    # axes 0 and 1 differ in the rate alone, axis 2 in the coefficients, axis 3 repeats axis 0
    axis_coeffs, rates = [[1.0, -2.0, 0.5]] * 2 + [[3.0]] + [[1.0, -2.0, 0.5]], [0.5, 0.7, 0.5, 0.5]
    f = separable_poly_exp_field(axis_coeffs, rates)
    pts = sample_points(4, seed=30, n=2000)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_deriv(f.deriv(pts), reference_deriv(axis_coeffs, rates)(pts))
        want = reference_evaluator(axis_coeffs, rates)
        for x in pts[:200]:
            assert f.evaluator(x) == pytest.approx(want(x), rel=16 * EPS, abs=1e-300)


def test_a_field_of_many_equal_axes_builds_one_table():
    t0 = time.perf_counter()
    f = field_by_name("exp-decay", 10**5)
    assert time.perf_counter() - t0 < 1.0
    assert f.dim == 10**5 and f.evaluator(np.zeros(10**5)) == 1.0


@pytest.mark.parametrize("axis_coeffs, rates, message", [
    ([[1.0]], [math.nan], "rates must be finite and positive"),
    ([[1.0]], [math.inf], "rates must be finite and positive"),
    ([[1.0], [1.0]], [0.5, 0.0], "rates must be finite and positive"),
    ([[math.inf]], [0.5], "coefficients must be finite"),
    ([[1.0, 2.0], [1.0, math.nan]], [0.5, 0.5], "coefficients must be finite"),
])
def test_non_finite_coefficients_and_rates_are_one_domain_error(axis_coeffs, rates, message):
    # an inf coefficient once reached npoly.polyder, which warned `invalid value encountered in multiply`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            separable_poly_exp_field(axis_coeffs, rates)
