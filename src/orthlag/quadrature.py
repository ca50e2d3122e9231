"""Gauss-Laguerre quadrature on (0, inf) and tensor-product orthant integrals.

Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
(Golub-Welsch), from NumPy's dense `eigvalsh`; each weight comes from its
Christoffel number, summed in log form, so the exponent-compensated weights
e^{x_k} w_k are accurate at every node even where the bare weights underflow
binary64 (large rules have nodes beyond 700).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

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
    A rule is built once per size per process and shared by every caller, so
    its arrays are read-only.
    """
    return _rule(_check_count(K, f"rule size must be an integer in [1, {MAX_RULE_SIZE}]", 1, MAX_RULE_SIZE))


@functools.cache
def _rule(K: int) -> QuadratureRule:
    # LAPACK's tridiagonal reduction leaves this matrix as it is, and then
    # runs the same eigenvalue solver as a tridiagonal routine: O(K^3) time
    # and a K x K array (2 MiB at MAX_RULE_SIZE), which the cache pays once
    jacobi = np.diag(2.0 * np.arange(K) + 1.0) + np.diag(np.arange(1.0, K), -1)
    nodes = np.linalg.eigvalsh(jacobi)
    log_modified_weights = -laguerre_fn_log_christoffel(K, nodes)
    nodes.setflags(write=False)
    log_modified_weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, log_modified_weights=log_modified_weights)


def default_rule_size(degree: int) -> int:
    """Rule size used by the transforms for a given per-axis degree bound."""
    return min(_check_count(degree, "degree must be a nonnegative integer") + 16, MAX_RULE_SIZE)


MAX_GRID_POINTS = 2**24  # cap on the nodes of a K^d tensor grid (128 MiB per copy)


def _check_grid_size(K: int, d: int) -> None:
    """DomainError past MAX_GRID_POINTS nodes in the d-fold grid of a K-node
    rule; past 24 axes of 2+ nodes it names K^d without forming the number."""
    if (over := K > 1 and d > 24) or K**d > MAX_GRID_POINTS:
        raise DomainError(f"a {K}-node rule in dimension {d} makes a grid of {f'{K}^{d}' if over else K**d}"
                          f" points, above the cap of {MAX_GRID_POINTS}")


def _node_grid_values(evaluator: Callable, nodes: np.ndarray, d: int) -> np.ndarray:
    """The evaluator at every node of the d-fold tensor grid, as a (K,)*d array.

    One call per node, in lexicographic node order.  Each call gets a
    read-only row view of one (K^(d-1), d) block of nodes, built once per
    node of the first axis.  A non-finite value raises DomainError naming its
    node, the only report (NumPy's overflow and invalid-value warnings are
    off while the evaluator runs).  A grid past `_check_grid_size` is its
    DomainError, raised before any work.
    """
    K = nodes.size
    _check_grid_size(K, d)
    tail = np.array(list(product(nodes.tolist(), repeat=d - 1)), dtype=float)  # (K^(d-1), d-1)
    values = np.empty((K, tail.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for x0, out in zip(nodes.tolist(), values):
            block = np.empty((tail.shape[0], d))
            block[:, 0] = x0
            block[:, 1:] = tail
            block.flags.writeable = False
            for i, x in enumerate(block):
                val = float(evaluator(x))
                if not math.isfinite(val):
                    raise DomainError(f"non-finite integrand value {val!r} at node {tuple(x.tolist())}")
                out[i] = val
    return values.reshape((K,) * d)


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
