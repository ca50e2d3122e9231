"""Built-in test fields with analytic derivative oracles.

Every built-in is separable: a product over axes of P_j(x_j) e^{-s_j x_j}
with polynomial P_j and rate s_j > 0.  Differentiation stays in the class
(D(P e^{-sx}) = (P' - sP) e^{-sx}), which supplies the exact per-axis first
and second derivatives that the pointwise form of the operator uses.

The one-point `evaluator` runs on Python floats: per axis, a Horner loop with
the operations of `npoly.polyval` in its order (so the polynomial factor is
the same to the bit), times `math.exp(-s_j x_j)`, which may differ from
`np.exp` in the last bit.  `deriv` stays vectorized over (npts, d) points.

Registry names accepted by the CLI:
  exp-decay            e^{-sum x_j}
  l:<i1,...,id>        a single Laguerre function l_n, every i_j <= 23
  poly-exp:<c0,c1,..>  per-axis polynomial (ascending coeffs) times e^{-x_j/2}
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.laguerre import lag2poly

from .core import DomainError, _check_count, _validate_points, validate_multi_index
from .transform import ScalarField


def separable_poly_exp_field(axis_coeffs, rates) -> ScalarField:
    """Field prod_j P_j(x_j) e^{-s_j x_j} with exact per-axis first and
    second derivatives.

    `axis_coeffs` is a list of ascending polynomial coefficient arrays, one
    per axis; `rates` the per-axis exponential rates.  The evaluator takes
    one point of the orthant as a 1-D array.
    """
    axis_coeffs = [np.asarray(c, dtype=float) for c in axis_coeffs]
    rates = [float(s) for s in rates]
    if len(axis_coeffs) != len(rates):
        raise DomainError("need one rate per axis")
    if not rates:
        raise DomainError("a field needs at least one axis")
    if any(s <= 0 for s in rates):
        raise DomainError("exponential rates must be positive")
    dim = len(rates)

    def d_coeffs(coeffs, s):
        # coefficients of d/dx (P e^{-sx}) / e^{-sx} = P' - sP
        return npoly.polysub(npoly.polyder(coeffs), s * coeffs)

    # per axis, the polynomial factors of the value and the first two derivatives
    axis_derivs = []
    for c, s in zip(axis_coeffs, rates):
        d1 = d_coeffs(c, s)
        axis_derivs.append((c, d1, d_coeffs(d1, s)))

    def axis_value(j, order, xj):
        return npoly.polyval(xj, axis_derivs[j][order]) * np.exp(-rates[j] * xj)

    # per axis, the coefficients highest power first and -s_j
    horner = [(c[::-1].tolist(), -s) for c, s in zip(axis_coeffs, rates)]

    def evaluator(x):
        val = 1.0
        for xj, (coeffs, neg_s) in zip(x.tolist(), horner):
            p = 0.0
            for c in coeffs:
                p = c + p * xj
            val *= p * math.exp(neg_s * xj)
        return val

    def deriv(points):
        pts = _validate_points(points, dim)
        vals, d1s, d2s = ([axis_value(j, order, pts[:, j]) for j in range(dim)] for order in range(3))
        total = math.prod(vals)
        rests = [math.prod(vals[:j] + vals[j + 1:]) for j in range(dim)]
        return [(total, d1 * rest, d2 * rest) for d1, d2, rest in zip(d1s, d2s, rests)]

    return ScalarField(dim=dim, evaluator=evaluator, deriv=deriv)


def exp_decay_field(dim: int) -> ScalarField:
    """e^{-sum_j x_j}."""
    dim = _check_count(dim, "dimension must be an integer >= 1", 1)
    return separable_poly_exp_field([[1.0]] * dim, [1.0] * dim)


# lag2poly cancels digits as n grows: `analyze` of l_n recovers the unit
# vector within 1e-6 up to n = 23 (4.0e-7), and misses by 3.8e-6 at n = 24
MAX_LAGUERRE_FIELD_INDEX = 23


def laguerre_field(n) -> ScalarField:
    """l_n as a polynomial-times-exponential field; entries of n up to MAX_LAGUERRE_FIELD_INDEX."""
    n = validate_multi_index(n)
    if max(n) > MAX_LAGUERRE_FIELD_INDEX:
        raise DomainError(f"l:<n> entries must be <= {MAX_LAGUERRE_FIELD_INDEX}, got {n}")
    return separable_poly_exp_field([lag2poly(np.eye(nj + 1)[nj]) for nj in n], [0.5] * len(n))


def poly_exp_field(coeffs, dim: int = 1) -> ScalarField:
    """Per-axis polynomial with the given ascending coefficients, times
    e^{-x_j/2} on each axis."""
    dim = _check_count(dim, "dimension must be an integer >= 1", 1)
    return separable_poly_exp_field([coeffs] * dim, [0.5] * dim)


def field_by_name(name: str, dim: int | None = None) -> ScalarField:
    """Resolve a registry name (see module docstring) to a field of dimension
    `dim`: by default the index length for l:<idx> and 1 for the others."""
    if name.startswith("l:"):
        idx = tuple(int(v) for v in name[2:].split(","))
        if dim not in (None, len(idx)):
            raise DomainError(f"index {idx} does not match dimension {dim}")
        return laguerre_field(idx)
    dim = 1 if dim is None else dim
    if name == "exp-decay":
        return exp_decay_field(dim)
    if name.startswith("poly-exp:"):
        coeffs = [float(v) for v in name[len("poly-exp:"):].split(",")]
        if not coeffs:
            raise DomainError("poly-exp needs at least one coefficient")
        return poly_exp_field(coeffs, dim)
    raise DomainError(f"unknown built-in field {name!r}")
