"""Gauss-Laguerre quadrature on (0, inf) and tensor-product orthant integrals.

Nodes come from the symmetric tridiagonal Jacobi matrix (Golub-Welsch);
weights are recovered through the damped Laguerre-function values, so the
exponent-compensated weights e^{x_k} w_k are available in log form even when
the bare weights underflow binary64 (large rules have nodes beyond 700).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import DomainError, laguerre_fn_log_abs

MAX_RULE_SIZE = 512


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration against e^{-x} on (0, inf).

    `log_modified_weights` stores log(w_k) + x_k, the stable representation of
    the weights used for integrands without the e^{-x} factor.
    """

    nodes: np.ndarray
    weights: np.ndarray
    log_modified_weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def modified_weights(self) -> np.ndarray:
        """e^{x_k} w_k, finite and positive for every supported rule size."""
        return np.exp(self.log_modified_weights)


def gauss_laguerre_rule(K: int) -> QuadratureRule:
    """K-node Gauss-Laguerre rule, exact for polynomials of degree <= 2K-1.

    Nodes are eigenvalues of the K x K symmetric tridiagonal matrix with
    diagonal 2k+1 (k = 0..K-1) and off-diagonal k (k = 1..K-1); the weight is
    the squared first eigenvector component.  Where that component underflows
    (large rules have nodes beyond 1400) the log-modified weight falls back to
    the closed form

        log w_k + x_k = log x_k - 2 log|l_{K+1}(x_k)| - 2 log(K+1)

    evaluated through an exponent-tracked recurrence.
    """
    if K != int(K) or not 1 <= K <= MAX_RULE_SIZE:
        raise DomainError(f"rule size must be an integer in [1, {MAX_RULE_SIZE}], got {K!r}")
    K = int(K)
    diag = 2.0 * np.arange(K) + 1.0
    if K == 1:
        nodes = diag.copy()
        weights = np.ones(1)
    else:
        # the default stemr driver flushes tiny eigenvector components to
        # exact zero; stev keeps them accurate down to the underflow limit
        nodes, vecs = eigh_tridiagonal(diag, np.arange(1, K, dtype=float), lapack_driver="stev")
        with np.errstate(under="ignore"):
            weights = vecs[0] ** 2
    log_abs, _ = laguerre_fn_log_abs(K + 1, nodes)
    fallback = np.log(nodes) - 2.0 * log_abs - 2.0 * math.log(K + 1)
    with np.errstate(divide="ignore"):
        log_modified = np.where(weights > 0.0, np.log(weights) + nodes, fallback)
    return QuadratureRule(nodes=nodes, weights=weights, log_modified_weights=log_modified)


def default_rule_size(degree: int) -> int:
    """Rule size used by the transforms for a given per-axis degree bound."""
    return min(degree + 16, MAX_RULE_SIZE)


def _node_grid_values(evaluator: Callable, nodes: np.ndarray, d: int) -> np.ndarray:
    """The evaluator at every node of the d-fold tensor grid, as a (K,)*d array.

    One call per node, in lexicographic node order; a non-finite value raises
    DomainError naming its node, the only report (NumPy's overflow and
    invalid-value warnings are off while the evaluator runs).
    """
    values = np.empty(nodes.size ** d)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(product(nodes.tolist(), repeat=d)):
            val = float(evaluator(np.array(x)))
            if not math.isfinite(val):
                raise DomainError(f"non-finite integrand value {val!r} at node {x}")
            values[i] = val
    return values.reshape((nodes.size,) * d)


def integrate_orthant(f: Callable, rule: QuadratureRule, d: int = 1) -> float:
    """Tensor-product Gauss-Laguerre integral of f over the positive orthant.

    f (a callable or a field with an `evaluator`) is evaluated once per node
    of the d-fold grid, and the weighted values are added with `math.fsum`,
    so the result is the correctly rounded sum of the terms, whatever their
    order.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    evaluator = f.evaluator if hasattr(f, "evaluator") else f
    values = _node_grid_values(evaluator, rule.nodes, d)
    wmod = rule.modified_weights
    weights = wmod
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, wmod)
    return math.fsum((weights * values).ravel().tolist())
