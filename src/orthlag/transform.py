"""Forward (analysis) and inverse (synthesis) Laguerre transforms.

A function on the positive orthant is represented by a `ScalarField`; its
expansion coefficients a_n = integral of f * l_n live in a `CoefficientField`
truncated either by total degree |n| <= M (default) or per-axis box n_j <= M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    DomainError,
    graded_lex_key,
    index_order,
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


@dataclass
class CoefficientField:
    """Truncated map multi-index -> coefficient; absent entries are zero."""

    dim: int
    truncation_kind: str
    degree: int
    entries: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.truncation_kind not in TRUNCATION_KINDS:
            raise DomainError(f"truncation kind must be one of {TRUNCATION_KINDS}")
        if self.dim < 1 or self.degree < 0:
            raise DomainError("dimension must be >= 1 and degree >= 0")
        clean = {}
        for n, v in self.entries.items():
            n = validate_multi_index(n)
            if len(n) != self.dim:
                raise DomainError(f"index {n} has wrong dimension (expected {self.dim})")
            if not self._respects_bound(n):
                raise DomainError(f"index {n} violates {self.truncation_kind} bound {self.degree}")
            v = float(v)
            if not math.isfinite(v):
                raise DomainError(f"coefficient at index {n} is not finite: {v!r}")
            clean[n] = v
        self.entries = clean

    def _respects_bound(self, n: tuple[int, ...]) -> bool:
        if self.truncation_kind == "total":
            return sum(n) <= self.degree
        return max(n) <= self.degree

    def get(self, n: Sequence[int]) -> float:
        return self.entries.get(tuple(n), 0.0)

    def stored_indices(self) -> list[tuple[int, ...]]:
        """Stored indices in graded lexicographic order."""
        return sorted(self.entries, key=graded_lex_key)

    def truncation_set(self) -> Iterator[tuple[int, ...]]:
        """The full truncation index set (stored or not), graded lex."""
        return truncation_indices(self.truncation_kind, self.dim, self.degree)

    def with_entries(self, entries: dict) -> "CoefficientField":
        return CoefficientField(self.dim, self.truncation_kind, self.degree, entries)

    def shell_sums_of_squares(self) -> dict[int, float]:
        """Sum of a_n^2 over each shell |n| = m (stored entries only)."""
        out: dict[int, float] = {}
        for n, v in self.entries.items():
            m = index_order(n)
            out[m] = out.get(m, 0.0) + v * v
        return out

    def shell_maxima(self) -> dict[int, float]:
        """max |a_n| over each shell |n| = m (stored entries only)."""
        out: dict[int, float] = {}
        for n, v in self.entries.items():
            m = index_order(n)
            out[m] = max(out.get(m, 0.0), abs(v))
        return out


def parseval_l2_norm(a: CoefficientField) -> float:
    """L2 norm of the truncated series, sqrt(sum a_n^2), by orthonormality."""
    return math.sqrt(math.fsum(v * v for v in a.entries.values()))


def _per_axis_degrees(a: CoefficientField) -> list[int]:
    degs = [0] * a.dim
    for n in a.entries:
        for j, nj in enumerate(n):
            degs[j] = max(degs[j], nj)
    return degs


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

    Terms are summed in graded lexicographic index order, so the result is
    deterministic for fixed inputs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != a.dim:
        raise DomainError(f"points have dimension {pts.shape[1]}, expected {a.dim}")
    if np.any(pts < 0):
        raise DomainError("points must lie in the closed orthant")
    degs = _per_axis_degrees(a)
    sweeps = [laguerre_fn_sweep(degs[j], pts[:, j]) for j in range(a.dim)]
    out = np.zeros(pts.shape[0])
    for n in a.stored_indices():
        term = np.full(pts.shape[0], a.entries[n])
        for j, nj in enumerate(n):
            term = term * sweeps[j][nj]
        out += term
    return out


def as_scalar_field(a: CoefficientField) -> ScalarField:
    """Wrap a coefficient field as an evaluable function with exact
    per-axis first and second derivatives (differentiated termwise)."""
    degs = _per_axis_degrees(a)
    order = sorted(a.entries, key=graded_lex_key)

    def evaluator(x):
        return float(synthesize(a, np.asarray(x, dtype=float)[None, :])[0])

    def deriv(x):
        pt = validate_point(x)
        if pt.size != a.dim:
            raise DomainError(f"point has dimension {pt.size}, expected {a.dim}")
        trip = [laguerre_fn_derivative_sweep(degs[j], pt[j]) for j in range(a.dim)]
        val = 0.0
        d1 = [0.0] * a.dim
        d2 = [0.0] * a.dim
        for n in order:
            c = a.entries[n]
            axis_vals = [trip[j][0][nj, 0] for j, nj in enumerate(n)]
            prod_all = 1.0
            for v in axis_vals:
                prod_all *= v
            val += c * prod_all
            for j, nj in enumerate(n):
                rest = 1.0
                for i, v in enumerate(axis_vals):
                    if i != j:
                        rest *= v
                d1[j] += c * trip[j][1][nj, 0] * rest
                d2[j] += c * trip[j][2][nj, 0] * rest
        return [(val, d1[j], d2[j]) for j in range(a.dim)]

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
    for n in a.stored_indices():
        lines.append(",".join(str(v) for v in n) + "," + repr(a.entries[n]))
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
