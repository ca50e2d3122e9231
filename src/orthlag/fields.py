"""Built-in test fields with analytic derivative oracles.

Every built-in is separable: a product over axes of P_j(x_j) e^{-s_j x_j}
with polynomial P_j and rate s_j > 0.  Differentiation stays in the class
(D(P e^{-sx}) = (P' - sP) e^{-sx}), which supplies the exact per-axis first
and second derivatives that the pointwise form of the operator uses.

Each distinct axis keeps one table: the polynomial factors of the value and
of its first two derivatives, highest power first, and -s_j.  Both the
one-point `evaluator` (Python floats, `math.exp`) and `deriv` ((npts, d)
arrays, `np.exp`) read it by Horner with `npoly.polyval`'s operations in its
order, so each polynomial factor is polyval's to the bit; `math.exp` may
differ from `np.exp` in the last bit.

Registry names accepted by the CLI:
  exp-decay            e^{-sum x_j}
  l:<i1,...,id>        a single Laguerre function l_n, every i_j <= 23
  poly-exp:<c0,c1,..>  per-axis polynomial (ascending coeffs) times e^{-x_j/2}
"""

from __future__ import annotations

import math
from functools import reduce

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
    rates = [float(s) for s in rates]
    if len(axis_coeffs) != len(rates):
        raise DomainError("need one rate per axis")
    if not rates:
        raise DomainError("a field needs at least one axis")
    if not all(0 < s < math.inf for s in rates):  # nan too
        raise DomainError("exponential rates must be finite and positive")
    axis_coeffs = [np.asarray(c, dtype=float) for c in axis_coeffs]
    if not np.isfinite(np.concatenate(axis_coeffs)).all():
        raise DomainError("polynomial coefficients must be finite")
    dim = len(rates)

    # per distinct axis one table: the polynomial factors of the value and of
    # the first two derivatives, each highest power first, and -s_j
    tables, axes = {}, []
    for c, s in zip(axis_coeffs, rates):
        if (key := (c.tobytes(), s)) not in tables:
            polys = [c]
            for _ in range(2):  # d/dx (P e^{-sx}) / e^{-sx} = P' - sP
                polys.append(npoly.polysub(npoly.polyder(polys[-1]), s * polys[-1]))
            tables[key] = (*(p[::-1].tolist() for p in polys), -s)
        axes.append(tables[key])

    def evaluator(x):
        val = 1.0
        for xj, (coeffs, _, _, neg_s) in zip(x.tolist(), axes):
            p = 0.0
            for c in coeffs:
                p = c + p * xj
            val *= p * math.exp(neg_s * xj)
        return val

    def deriv(points):
        pts = _validate_points(points, dim)
        # per axis, each polynomial of its table by Horner, times e^{-s_j x_j}
        vals, d1s, d2s = zip(*([reduce(lambda p, c: c + p * xj, coeffs, 0.0) * np.exp(neg_s * xj)
                                for coeffs in polys] for xj, (*polys, neg_s) in zip(pts.T, axes)))
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
        return poly_exp_field([float(v) for v in name[len("poly-exp:"):].split(",")], dim)
    raise DomainError(f"unknown built-in field {name!r}")
