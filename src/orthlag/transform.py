"""Forward (analysis) and inverse (synthesis) Laguerre transforms.

A function on the positive orthant is represented by a `ScalarField`; its
expansion coefficients a_n = integral of f * l_n live in a `CoefficientField`
truncated either by total degree |n| <= M (default) or per-axis box n_j <= M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    DomainError,
    laguerre_fn_derivative_sweep,
    laguerre_fn_sweep,
    truncation_indices,
    validate_multi_index,
    validate_point,
)
from .quadrature import QuadratureRule, _node_grid_values

TRUNCATION_KINDS = ("total", "box")


@dataclass
class ScalarField:
    """Evaluable function on the closed orthant.

    `deriv`, when present, maps a point to the list of per-axis triples
    (f(x), df/dx_j, d2f/dx_j2).  `partial`, when present, maps a multi-index p
    and a point to the mixed partial derivative of order p (used by the
    derivative-based seminorms).
    """

    dim: int
    evaluator: Callable[[np.ndarray], float]
    deriv: Callable[[np.ndarray], list[tuple[float, float, float]]] | None = None
    partial: Callable[[tuple[int, ...], np.ndarray], float] | None = None

    def __call__(self, x) -> float:
        return float(self.evaluator(np.asarray(x, dtype=float)))


class CoefficientField:
    """Truncated map multi-index -> coefficient; absent entries are zero.

    The stored terms are three read-only arrays in graded lexicographic
    order: `index` (n_terms, d) int64, `values` float64 and
    `orders` = |n| = index.sum(1).
    """

    def __init__(self, dim: int, truncation_kind: str, degree: int,
                 entries: Mapping[Sequence[int], float] | None = None):
        if truncation_kind not in TRUNCATION_KINDS:
            raise DomainError(f"truncation kind must be one of {TRUNCATION_KINDS}")
        if dim < 1 or degree < 0:
            raise DomainError("dimension must be >= 1 and degree >= 0")
        if (degree if truncation_kind == "total" else degree * dim) >= 2**63:
            # every allowed |n|, and so every n_j, must fit in int64
            raise DomainError(f"{truncation_kind} degree {degree} in dimension {dim} allows |n| >= 2^63")
        self.dim, self.truncation_kind, self.degree = dim, truncation_kind, degree
        entries = {} if entries is None else entries
        reach = sum if truncation_kind == "total" else max
        rows = []
        for n in map(validate_multi_index, entries):
            if len(n) != dim:
                raise DomainError(f"index {n} has wrong dimension (expected {dim})")
            if reach(n) > degree:
                raise DomainError(f"index {n} violates {truncation_kind} bound {degree}")
            rows.append(n)
        index = np.array(rows, dtype=np.int64).reshape(len(rows), dim)
        values = np.array(list(entries.values()), dtype=float)
        orders = index.sum(axis=1)
        order = np.lexsort((*index.T[::-1], orders))  # the last key sorts first
        self._set(index[order], values[order], orders[order])

    def _set(self, index: np.ndarray, values: np.ndarray, orders: np.ndarray) -> None:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            n, v = tuple(index[bad[0]].tolist()), float(values[bad[0]])
            raise DomainError(f"coefficient at index {n} is not finite: {v!r}")
        for arr in (index, values, orders):
            arr.setflags(write=False)
        self.index, self.values, self.orders = index, values, orders

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientField):
            return NotImplemented
        return ((self.dim, self.truncation_kind, self.degree)
                == (other.dim, other.truncation_kind, other.degree)
                and np.array_equal(self.index, other.index)
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return (f"CoefficientField(dim={self.dim}, truncation_kind={self.truncation_kind!r}, "
                f"degree={self.degree}, terms={self.values.size})")

    @cached_property
    def entries(self) -> Mapping[tuple[int, ...], float]:
        """Read-only view index tuple -> value, built on first use."""
        return MappingProxyType(dict(zip(map(tuple, self.index.tolist()), self.values.tolist())))

    def get(self, n: Sequence[int]) -> float:
        return self.entries.get(tuple(n), 0.0)

    def truncation_set(self) -> Iterator[tuple[int, ...]]:
        """The full truncation index set (stored or not), graded lex."""
        return truncation_indices(self.truncation_kind, self.dim, self.degree)

    def with_values(self, values) -> "CoefficientField":
        """The same stored indices with new values, one per term in `index` order."""
        values = np.array(values, dtype=float)
        if values.shape != self.values.shape:
            raise DomainError(f"need {self.values.size} values, got shape {values.shape}")
        out = object.__new__(CoefficientField)
        out.dim, out.truncation_kind, out.degree = self.dim, self.truncation_kind, self.degree
        out._set(self.index, values, self.orders)
        return out

    @cached_property
    def _shells(self) -> tuple[np.ndarray, np.ndarray]:
        """(the shells m that hold a stored term, increasing; each term's
        position among them)."""
        return np.unique(self.orders, return_inverse=True)

    def per_shell(self, fn: Callable[[int], float]) -> np.ndarray:
        """fn(|n|) for each stored term, with one call of fn per shell that
        holds a term (a sparse field with a huge |n| costs no more)."""
        shells, inverse = self._shells
        return np.array([fn(m) for m in shells.tolist()], dtype=float)[inverse]

    def shell_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """(shells m, max |a_n| over |n| = m), over the shells that hold a
        stored entry, in increasing m."""
        shells, inverse = self._shells
        maxima = np.zeros(shells.size)
        np.maximum.at(maxima, inverse, np.abs(self.values))
        return shells, maxima


def parseval_l2_norm(a: CoefficientField) -> float:
    """L2 norm of the truncated series, sqrt(sum a_n^2), by orthonormality."""
    return math.sqrt(math.fsum((a.values * a.values).tolist()))


def analyze(
    f: ScalarField,
    degree: int,
    rule: QuadratureRule,
    kind: str = "total",
) -> CoefficientField:
    """Coefficients a_n of f for every n in the truncation set, by quadrature.

    The rule must have at least degree+1 nodes (Gram exactness); the
    recommended margin is `default_rule_size(degree)` nodes.  f is evaluated
    once per node of the (K,)*d tensor grid, and since l_n is a product over
    axes, the grid values are contracted one axis at a time with the 1-D
    transform matrix VW[m, k] = l_m(x_k) e^{x_k} w_k (sum factorization), the
    same path for every dimension d.
    """
    if kind not in TRUNCATION_KINDS:
        raise DomainError(f"truncation kind must be one of {TRUNCATION_KINDS}")
    if rule.size < degree + 1:
        raise DomainError(
            f"rule with {rule.size} nodes is too small for degree {degree} (need >= {degree + 1})"
        )
    d = f.dim
    VW = laguerre_fn_sweep(degree, rule.nodes) * rule.modified_weights  # (degree+1, K)
    A = _node_grid_values(f.evaluator, rule.nodes, d)
    for _ in range(d):
        # contract the leading node axis; its degree axis goes last, so after
        # d steps the axes are back in order
        A = np.tensordot(A, VW, axes=(0, 1))
    entries = {n: float(A[n]) for n in truncation_indices(kind, d, degree)}
    return CoefficientField(dim=d, truncation_kind=kind, degree=degree, entries=entries)


def synthesize(a: CoefficientField, points) -> np.ndarray:
    """Evaluate the truncated series sum_n a_n l_n at each point.

    Each term's factors l_{n_j}(x_j) are gathered from the per-axis sweeps by
    the columns of `index`, multiplied over the axes and summed against
    `values`.  Points go through in blocks sized so that a gathered block
    holds at most about 2^16 values (one point when there are more terms), so
    the memory beyond the sweeps grows with the number of terms only.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != a.dim:
        raise DomainError(f"points have dimension {pts.shape[1]}, expected {a.dim}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("point coordinates must be finite")
    if np.any(pts < 0):
        raise DomainError("points must lie in the closed orthant")
    if a.values.size == 0:
        return np.zeros(pts.shape[0])
    sweeps = [laguerre_fn_sweep(int(nj.max()), pts[:, j]) for j, nj in enumerate(a.index.T)]
    block = max(1, 2**16 // a.values.size)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], block):
        cols = slice(lo, lo + block)
        terms = sweeps[0][:, cols].take(a.index[:, 0], axis=0)  # (terms, points)
        for j in range(1, a.dim):
            terms *= sweeps[j][:, cols].take(a.index[:, j], axis=0)
        out[cols] = a.values @ terms
    return out


def as_scalar_field(a: CoefficientField) -> ScalarField:
    """Wrap a coefficient field as an evaluable function with exact
    per-axis first and second derivatives (differentiated termwise)."""
    degs = a.index.max(axis=0, initial=0)

    def evaluator(x):
        return float(synthesize(a, np.asarray(x, dtype=float)[None, :])[0])

    def deriv(x):
        pt = validate_point(x)
        if pt.size != a.dim:
            raise DomainError(f"point has dimension {pt.size}, expected {a.dim}")
        # row j holds l_{n_j}(x_j) (and its derivatives) for every term n
        vals, d1s, d2s = (np.empty((a.dim, a.values.size)) for _ in range(3))
        for j in range(a.dim):
            sweeps = laguerre_fn_derivative_sweep(int(degs[j]), pt[j])
            for row, sweep in zip((vals, d1s, d2s), sweeps):
                row[j] = sweep[a.index[:, j], 0]
        val = float(a.values @ vals.prod(axis=0))
        out = []
        for j in range(a.dim):
            rest = a.values * np.delete(vals, j, axis=0).prod(axis=0)
            out.append((val, float(rest @ d1s[j]), float(rest @ d2s[j])))
        return out

    return ScalarField(dim=a.dim, evaluator=evaluator, deriv=deriv)


# ---------------------------------------------------------------------------
# coefficient file format
# ---------------------------------------------------------------------------

def write_coefficients(a: CoefficientField, path) -> None:
    """Write the coefficient file format: three header lines, then records
    n_1,...,n_d,value in graded-lex order with shortest-roundtrip floats."""
    lines = [
        f"dim: {a.dim}",
        f"truncation_kind: {a.truncation_kind}",
        f"truncation_degree: {a.degree}",
    ]
    for n, v in zip(a.index.tolist(), a.values.tolist()):
        lines.append(",".join(str(nj) for nj in n) + "," + repr(v))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path) -> CoefficientField:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    header = {}
    body_start = 0
    for i, ln in enumerate(raw[:3]):
        if ":" not in ln:
            break
        key, _, val = ln.partition(":")
        header[key.strip()] = val.strip()
        body_start = i + 1
    try:
        dim = int(header["dim"])
        kind = header["truncation_kind"]
        degree = int(header["truncation_degree"])
    except KeyError as exc:
        raise DomainError(f"coefficient file {path} is missing header field {exc}") from exc
    entries = {}
    for ln in raw[body_start:]:
        parts = ln.split(",")
        if len(parts) != dim + 1:
            raise DomainError(f"malformed record {ln!r} (expected {dim} indices + value)")
        n = tuple(int(p) for p in parts[:dim])
        if n in entries:
            raise DomainError(f"duplicate record for index {n} in {path}")
        entries[n] = float(parts[dim])
    return CoefficientField(dim=dim, truncation_kind=kind, degree=degree, entries=entries)
