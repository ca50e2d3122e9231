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
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    DomainError,
    _check_truncation,
    _derivative_rows,
    _validate_points,
    laguerre_fn_sweep,
    truncation_index,
    validate_multi_index,
)
from .quadrature import QuadratureRule, _node_grid_values


@dataclass
class ScalarField:
    """Evaluable function on the closed orthant.

    `evaluator` maps one point to f(x).  `deriv`, when present, maps an
    (npts, d) array of points to one triple (f, df/dx_j, d2f/dx_j2) of
    npts-arrays per axis j.
    """

    dim: int
    evaluator: Callable[[np.ndarray], float]
    deriv: Callable[[np.ndarray], list[tuple[np.ndarray, np.ndarray, np.ndarray]]] | None = None


class CoefficientField:
    """Truncated map multi-index -> coefficient; absent entries are zero.

    The stored terms are three read-only arrays in graded lexicographic
    order: `index` (n_terms, d) int64, `values` float64 and
    `orders` = |n| = index.sum(1).
    """

    def __init__(self, dim: int, truncation_kind: str, degree: int,
                 entries: Mapping[Sequence[int], float] | None = None):
        entries = {} if entries is None else entries
        self._load(dim, truncation_kind, degree, list(entries), list(entries.values()))

    @classmethod
    def _from_arrays(cls, dim: int, truncation_kind: str, degree: int, index, values) -> "CoefficientField":
        """The field with rows `index` ((n_terms, dim) array or rows) and their `values`."""
        out = object.__new__(cls)
        out._load(dim, truncation_kind, degree, index, values)
        return out

    def _load(self, dim, truncation_kind, degree, index, values) -> None:
        """The one validation path, on whole arrays; a bad row raises the error
        the first failing row would get from `validate_multi_index` and the
        dimension and bound checks, in that order."""
        dim, degree = _check_truncation(truncation_kind, dim, degree)
        if (degree if truncation_kind == "total" else degree * dim) >= 2**63:
            # every allowed |n|, and so every n_j, must fit in int64
            raise DomainError(f"{truncation_kind} degree {degree} in dimension {dim} allows |n| >= 2^63")
        self.dim, self.truncation_kind, self.degree = dim, truncation_kind, degree
        # the leading k rows that have dim entries, held exactly: int64 where no
        # row sum can leave it, else Python ints with -1 for a non-integer entry
        rectangular = isinstance(index, np.ndarray) and index.shape[1:] == (dim,)
        k = len(index) if rectangular else next((i for i, n in enumerate(index) if len(n) != dim), len(index))
        rows = np.asarray(index[:k]).reshape(k, dim)
        if rows.dtype.kind != "i" or (k and rows.max() > (2**63 - 1) // dim):
            rows = _exact_int(np.array(index[:k], dtype=object).reshape(k, dim))
        reach = rows.sum(axis=1) if truncation_kind == "total" else rows.max(axis=1)
        bad = np.flatnonzero((rows < 0).any(axis=1) | (reach > degree))
        if bad.size or k < len(index):
            n = validate_multi_index(index[bad[0] if bad.size else k])
            if len(n) != dim:
                raise DomainError(f"index {n} has wrong dimension (expected {dim})")
            raise DomainError(f"index {n} violates {truncation_kind} bound {degree}")
        index = rows.astype(np.int64, copy=False)
        values = np.array(values, dtype=float)
        orders = index.sum(axis=1)
        order = np.lexsort((*index.T[::-1], orders))  # the last key sorts first
        index, values, orders = index[order], values[order], orders[order]
        dup = np.flatnonzero((index[1:] == index[:-1]).all(axis=1))
        if dup.size:
            raise DomainError(f"duplicate record for index {tuple(index[dup[0]].tolist())}")
        self._set(index, values, orders)

    def _set(self, index: np.ndarray, values: np.ndarray, orders: np.ndarray) -> None:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            n, v = tuple(index[bad[0]].tolist()), float(values[bad[0]])
            raise DomainError(f"coefficient at index {n} is not finite: {v!r}")
        self.index, self.values, self.orders = map(_readonly, (index, values, orders))

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
    def _shells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(positions in `index` of the nonzero terms; each one's position among
        the shells that hold a nonzero term; those shells, increasing).  A stored
        zero is a record, written back, but not a term: it is in no shell."""
        terms = np.flatnonzero(self.values)
        shells, shell_of = np.unique(self.orders[terms], return_inverse=True)
        return _readonly(terms), _readonly(shell_of), _readonly(shells)

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """(index, values, reach) of the nonzero terms: the rows at `_shells[0]`, or both
        arrays when none is zero, and each axis's largest n_j over them (0 without terms)."""
        index, values = self.index, self.values
        if not values.all():
            index, values = _readonly(index[self._shells[0]]), _readonly(values[self._shells[0]])
        return index, values, tuple(index.max(axis=0, initial=0).tolist())


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_exact_int = np.frompyfunc(lambda v: int(v) if v % 1 == 0 else -1, 1, 1)


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
    d, degree = _check_truncation(kind, f.dim, degree)
    if rule.size < degree + 1:
        raise DomainError(
            f"rule with {rule.size} nodes is too small for degree {degree} (need >= {degree + 1})"
        )
    # the grid's cap comes first: it bounds the truncation set too, as (degree+1)^d <= K^d
    A = _node_grid_values(f.evaluator, rule.nodes, d)
    index = truncation_index(kind, d, degree)
    VW = laguerre_fn_sweep(degree, rule.nodes) * rule.modified_weights  # (degree+1, K)
    for _ in range(d):
        # contract the leading node axis; its degree axis goes last, so after
        # d steps the axes are back in order
        A = np.tensordot(A, VW, axes=(0, 1))
    return CoefficientField._from_arrays(d, kind, degree, index, A[tuple(index.T)])


def _sweep_blocks(index: np.ndarray, reach: Sequence[int], pts: np.ndarray, width: int = 1):
    """The point blocks in which `synthesize` and `as_scalar_field(a).deriv`
    gather the terms with rows `index`: yields (first point, sweeps), where
    sweeps[j] holds l_0..l_{reach[j]} at x_j for the block's points.

    A sweep block of about 2^20 / (max reach + 1) points makes one sweep per
    axis; it is cut into gather blocks whose `width` gathered arrays per axis
    hold at most about 2^16 values together (one point when there are more
    terms), so memory is bounded whatever the number of points.  An index
    without rows has no blocks.
    """
    if len(index) == 0:
        return
    inner = max(1, 2**16 // (width * len(index)))
    outer = max(1, 2**20 // (max(reach) + 1))
    outer = outer // inner * inner or outer  # whole gather blocks where it can, as without sweep blocks
    for start in range(0, pts.shape[0], outer):
        chunk = pts[start:start + outer].T
        sweeps = [laguerre_fn_sweep(m, x) for m, x in zip(reach, chunk)]
        for lo in range(0, chunk.shape[1], inner):
            yield start + lo, [sweep[:, lo:lo + inner] for sweep in sweeps]


def synthesize(a: CoefficientField, points) -> np.ndarray:
    """Evaluate the truncated series sum_n a_n l_n at each of the (npts, d) points.

    Each nonzero term's factors l_{n_j}(x_j) are gathered by the columns of
    its index (`_terms`) from the sweeps of `_sweep_blocks`, multiplied over
    the axes and summed against `values`.
    """
    pts = _validate_points(points, a.dim)
    index, values, reach = a._terms
    out = np.zeros(pts.shape[0])
    for lo, sweeps in _sweep_blocks(index, reach, pts):
        terms = sweeps[0].take(index[:, 0], axis=0)  # (terms, points)
        for j in range(1, a.dim):
            terms *= sweeps[j].take(index[:, j], axis=0)
        out[lo:lo + terms.shape[1]] = values @ terms
    return out


def as_scalar_field(a: CoefficientField) -> ScalarField:
    """Wrap a coefficient field as an evaluable function with exact
    per-axis first and second derivatives (differentiated termwise)."""

    def evaluator(x):
        return float(synthesize(a, np.asarray(x, dtype=float)[None, :])[0])

    def deriv(points):
        # the factor of axis j is differentiated, the others multiply as values
        pts = _validate_points(points, a.dim)
        index, values, reach = a._terms
        value = np.zeros(pts.shape[0])
        first, second = np.zeros((2, a.dim, pts.shape[0]))
        for lo, sweeps in _sweep_blocks(index, reach, pts, width=3):
            # l, l' and l'' of each axis, gathered for every term
            factors = [[r.take(index[:, j], axis=0) for r in _derivative_rows(sweep)]
                       for j, sweep in enumerate(sweeps)]
            rows = slice(lo, lo + sweeps[0].shape[1])
            vals = [v for v, _, _ in factors]
            value[rows] = values @ math.prod(vals)
            for j, (_, d1, d2) in enumerate(factors):
                rest = math.prod(vals[:j] + vals[j + 1:])
                first[j, rows] = values @ (rest * d1)
                second[j, rows] = values @ (rest * d2)
        return [(value, first[j], second[j]) for j in range(a.dim)]

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
    index, values = [], []
    try:
        for ln in raw[body_start:]:
            parts = ln.split(",")
            if len(parts) != dim + 1:
                raise DomainError(f"malformed record {ln!r} (expected {dim} indices + value)")
            index.append(list(map(int, parts[:dim])))
            values.append(float(parts[dim]))
    except ValueError:  # DomainError too; a duplicate record before the bad one comes first
        seen = set()
        dup = next((n for n in map(tuple, index) if n in seen or seen.add(n)), None)
        if dup is not None:
            raise DomainError(f"duplicate record for index {dup} in {path}") from None
        raise
    return CoefficientField._from_arrays(dim, kind, degree, index, values)
