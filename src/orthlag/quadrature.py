"""Gauss-Laguerre quadrature on (0, inf) and tensor-product orthant integrals.

Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
(Golub-Welsch); each weight comes from its Christoffel number, summed in log
form, so the exponent-compensated weights e^{x_k} w_k are accurate at every
node even where the bare weights underflow binary64 (large rules have nodes
beyond 700).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .core import DomainError, _check_count, laguerre_fn_log_christoffel

MAX_RULE_SIZE = 512


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration against e^{-x} on (0, inf).

    `log_modified_weights` stores log(w_k) + x_k, the stable representation of
    the weights used for integrands without the e^{-x} factor.
    """

    nodes: np.ndarray
    log_modified_weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def weights(self) -> np.ndarray:
        """The bare weights w_k, zero where they underflow binary64."""
        with np.errstate(under="ignore"):
            return np.exp(self.log_modified_weights - self.nodes)

    @property
    def modified_weights(self) -> np.ndarray:
        """e^{x_k} w_k, finite and positive for every supported rule size."""
        return np.exp(self.log_modified_weights)


def gauss_laguerre_rule(K: int) -> QuadratureRule:
    """K-node Gauss-Laguerre rule, exact for polynomials of degree <= 2K-1.

    Nodes are eigenvalues of the K x K symmetric tridiagonal matrix with
    diagonal 2k+1 (k = 0..K-1) and off-diagonal k (k = 1..K-1).  The weights
    follow from the Christoffel-number identity

        1 / (e^{x_k} w_k) = sum_{j<K} l_j(x_k)^2,

    evaluated through an exponent-tracked recurrence, one path for every node.
    """
    K = _check_count(K, f"rule size must be an integer in [1, {MAX_RULE_SIZE}]", 1, MAX_RULE_SIZE)
    nodes = eigvalsh_tridiagonal(2.0 * np.arange(K) + 1.0, np.arange(1.0, K))
    return QuadratureRule(nodes=nodes, log_modified_weights=-laguerre_fn_log_christoffel(K, nodes))


def default_rule_size(degree: int) -> int:
    """Rule size used by the transforms for a given per-axis degree bound."""
    return min(_check_count(degree, "degree must be a nonnegative integer") + 16, MAX_RULE_SIZE)


MAX_GRID_POINTS = 2**24  # cap on the nodes of a K^d tensor grid (128 MiB per copy)


def _node_grid_values(evaluator: Callable, nodes: np.ndarray, d: int) -> np.ndarray:
    """The evaluator at every node of the d-fold tensor grid, as a (K,)*d array.

    One call per node, in lexicographic node order; a non-finite value raises
    DomainError naming its node, the only report (NumPy's overflow and
    invalid-value warnings are off while the evaluator runs).  A grid of more
    than MAX_GRID_POINTS nodes is a DomainError, raised before any work.
    """
    if (size := nodes.size ** d) > MAX_GRID_POINTS:
        raise DomainError(f"a {nodes.size}-node rule in dimension {d} makes a grid of {size} points,"
                          f" above the cap of {MAX_GRID_POINTS}")
    values = np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(product(nodes.tolist(), repeat=d)):
            val = float(evaluator(np.array(x)))
            if not math.isfinite(val):
                raise DomainError(f"non-finite integrand value {val!r} at node {x}")
            values[i] = val
    return values.reshape((nodes.size,) * d)


def integrate_orthant(f: Callable, rule: QuadratureRule, d: int = 1) -> float:
    """Tensor-product Gauss-Laguerre integral of f over the positive orthant.

    The callable f is evaluated once per node of the d-fold grid, and the
    weighted values are added with `math.fsum`, so the result is the
    correctly rounded sum of the terms, whatever their order.
    """
    d = _check_count(d, "dimension must be an integer >= 1", 1)
    values = _node_grid_values(f, rule.nodes, d)
    wmod = rule.modified_weights
    weights = wmod
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, wmod)
    return math.fsum((weights * values).ravel().tolist())
