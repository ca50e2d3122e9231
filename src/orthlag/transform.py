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
from typing import Callable, Mapping, NamedTuple, Sequence

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

    @classmethod
    def _from_sorted(cls, dim: int, truncation_kind: str, degree: int, index, values, orders) -> "CoefficientField":
        """The field with rows `index` already in the truncation set, in graded-lex
        order and distinct, their `values` and `orders`; only the values are checked."""
        out = object.__new__(cls)
        out.dim, out.truncation_kind, out.degree = dim, truncation_kind, degree
        out._set(index, values, orders)
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
        return CoefficientField._from_sorted(self.dim, self.truncation_kind, self.degree, self.index, values, self.orders)

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

    @cached_property
    def _prefix_table(self) -> "_PrefixTable":
        """The nonzero terms grouped by their prefix (n_1..n_{d-1}), in lex order of the
        prefixes (d = 1 has one, empty, prefix), with the dense table C of shape
        prefixes x (reach_d + 1) where it holds at most DENSE_TABLE_FACTOR values per term;
        its size is checked before it is allocated, so a sparse field never builds it."""
        index, values, reach = self._terms
        head = index[:, :-1]
        order = np.lexsort(head.T[::-1]) if self.dim > 1 else np.arange(values.size)
        head, last, values = head[order], index[order, -1], values[order]
        new = np.ones(values.size, dtype=bool)
        new[1:] = (head[1:] != head[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        dense = None
        if starts.size * (reach[-1] + 1) <= DENSE_TABLE_FACTOR * values.size:
            dense = np.zeros((starts.size, reach[-1] + 1))
            dense[np.cumsum(new) - 1, last] = values
        return _PrefixTable(*(None if v is None else _readonly(v) for v in (head[starts], dense, last, values, starts)))


# a prefix table with more than this many values per term (256 bytes) is not built: the last
# axis is then summed per prefix from its gathered rows.  Up to this ratio the dense product was
# 1.0-4.6x as fast as the per-prefix sums in every case measured (d = 2, 16-200 prefixes, reach
# 60-2000, 4000 points; NumPy 2.4 with OpenBLAS, 2-core VM), and about as fast up to 250
DENSE_TABLE_FACTOR = 32


class _PrefixTable(NamedTuple):
    """The nonzero terms of a field as prefixes (n_1..n_{d-1}) times last-axis rows.

    `prefix` (P, d-1) holds the distinct prefixes; `last` and `values` hold each term's
    n_d and a_n grouped by prefix, the group of prefix p starting at `starts[p]`; `dense`
    is the table C[p, m] = a at (prefix p, n_d = m), or None for a sparse field.
    """

    prefix: np.ndarray
    dense: np.ndarray | None
    last: np.ndarray
    values: np.ndarray
    starts: np.ndarray

    @property
    def row_count(self) -> int:
        """Rows of the last-axis product per point: T's, or on the sparse branch the gathered rows."""
        return len(self.starts) if self.dense is not None else len(self.last)

    def product(self, sweep: np.ndarray) -> np.ndarray:
        """T[p] = sum over the terms of prefix p of a_n sweep[n_d]: the last axis contracted,
        (P, points) from the last axis's rows l_0..l_{reach_d} (or their derivatives)."""
        if self.dense is not None:
            return self.dense @ sweep
        gathered = sweep.take(self.last, axis=0)
        gathered *= self.values[:, None]
        # where every prefix has one term, the gathered rows are T
        return gathered if len(self.starts) == len(self.last) else np.add.reduceat(gathered, self.starts, axis=0)


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
    # truncation_index's rows are valid, graded-lex and distinct: no sort or duplicate scan
    return CoefficientField._from_sorted(d, kind, degree, index, A[tuple(index.T)], index.sum(axis=1))


def _series(a: CoefficientField, points, deriv: bool = False) -> np.ndarray:
    """The one synthesis kernel: rows [value] of the series at each of the (npts, d)
    points, or with `deriv` [value, d/dx_1, d2/dx_1^2, ..., d/dx_d, d2/dx_d^2].

    By sum factorization over `_prefix_table`: per block of points, one sweep
    per axis to its reach; the last axis is contracted as T = C @ S_d (the
    prefix table's `product`), then each prefix row of T is multiplied by the
    other axes' factors l_{n_j}(x_j) and the rows are summed.  A block holds at
    most 2^20 / (largest reach + 1) points, so each sweep holds at most 2^20
    values, and at most 2^18 values of the last-axis product (a third of that
    with the derivative rows), so memory does not grow with the points.
    """
    pts = _validate_points(points, a.dim)
    reach, table = a._terms[2], a._prefix_table
    out = np.zeros((1 + 2 * a.dim if deriv else 1, pts.shape[0]))
    if table.values.size == 0:
        return out
    size = max(1, min(2**20 // (max(reach) + 1), 2**18 // ((3 if deriv else 1) * table.row_count)))
    for lo in range(0, pts.shape[0], size):
        cols = slice(lo, lo + size)
        # each block's arrays are freed before the next block's sweeps
        out[:, cols] = _block(table, [laguerre_fn_sweep(m, x) for m, x in zip(reach, pts[cols].T)], deriv)
    return out


def _block(table: "_PrefixTable", sweeps: list[np.ndarray], deriv: bool):
    """The rows of `_series` at one block of points, from each axis's sweep over it."""
    last_sweep = sweeps.pop()
    if not deriv:
        # the prefix factors multiply in axis order first, so a one-term field is
        # l_{n_1}(x_1) ... l_{n_d}(x_d) to the bit; the prefix sweeps are released
        # before T is formed, so at most two (P, points) arrays are live at once
        factor = 1.0
        if sweeps:
            factor = sweeps[0].take(table.prefix[:, 0], axis=0)
            for j in range(1, len(sweeps)):
                factor *= sweeps[j].take(table.prefix[:, j], axis=0)
            sweeps.clear()
        t = table.product(last_sweep)
        t *= factor
        return t.sum(axis=0)
    # the factor of one axis is differentiated, the others multiply as values
    last = [table.product(r) for r in _derivative_rows(last_sweep)]  # T, T' and T''
    factors = [[r.take(table.prefix[:, j], axis=0) for r in _derivative_rows(sweep)] for j, sweep in enumerate(sweeps)]
    vals = [f[0] for f in factors]
    others = math.prod(vals)
    value, *last_axis = [(t * others).sum(axis=0) for t in last]
    rows = [value]
    for j, (_, d1, d2) in enumerate(factors):
        rest = last[0] * math.prod(vals[:j] + vals[j + 1:])
        rows += [(rest * d1).sum(axis=0), (rest * d2).sum(axis=0)]
    return rows + last_axis


def synthesize(a: CoefficientField, points) -> np.ndarray:
    """Evaluate the truncated series sum_n a_n l_n at each of the (npts, d) points.

    Sum factorization, as in `analyze` (see `_series`): per block of points the
    last axis is contracted against the field's prefix table (`_prefix_table`),
    by one dense product or, for a sparse field, by per-prefix sums, and the
    other axes multiply in once per distinct prefix (n_1..n_{d-1}) of the
    nonzero terms, not once per term.
    """
    return _series(a, points)[0]


def as_scalar_field(a: CoefficientField) -> ScalarField:
    """Wrap a coefficient field as an evaluable function with exact
    per-axis first and second derivatives (differentiated termwise).  Both
    run the kernel of `synthesize` on the same prefix table."""

    def evaluator(x):
        return float(synthesize(a, np.asarray(x, dtype=float)[None, :])[0])

    def deriv(points):
        value, *rest = _series(a, points, deriv=True)
        return [(value, first, second) for first, second in zip(rest[::2], rest[1::2])]

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
