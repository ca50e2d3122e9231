"""The built-in fields' one-point evaluator against the former NumPy one."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.laguerre import lag2poly

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
