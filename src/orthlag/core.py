"""Stable evaluation of the Laguerre functions on the half-line, plus
multi-index utilities for tensor products on the orthant.

The Laguerre functions l_j(x) = L_j(x) e^{-x/2} come from one three-term
recurrence, run on the damped sequence where e^{-x/2} is a normal binary64
number and on rescaled bare polynomials elsewhere, so it holds for every x >= 0.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


# ---------------------------------------------------------------------------
# multi-index utilities
# ---------------------------------------------------------------------------

def validate_multi_index(n: Sequence[int]) -> tuple[int, ...]:
    """Validate and canonicalize a multi-index to a tuple of ints >= 0."""
    out = []
    for v in n:
        iv = int(v)
        if iv != v or iv < 0:
            raise DomainError(f"multi-index entries must be nonnegative integers, got {v!r}")
        out.append(iv)
    if not out:
        raise DomainError("multi-index must have at least one entry")
    return tuple(out)


def _check_count(value, rule: str, lo: int = 0, hi: float = math.inf) -> int:
    """The one check of a count: `value` as an int when it is a Python or NumPy
    integer (it has __index__) in [lo, hi]; anything else (3.0, NaN, "3") is a
    DomainError stating `rule`."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is not None and lo <= count <= hi:
        return count
    raise DomainError(f"{rule}, got {value!r}")


def _validate_points(points, dim: int) -> np.ndarray:
    """Validate points on the closed orthant: an (npts, dim) array (one 1-D point is one row)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DomainError(f"points have dimension {pts.shape[-1]}, expected {dim}")
    if not (pts.min(initial=0.0) >= 0 and pts.max(initial=0.0) < math.inf):  # NaN fails too
        if not np.isfinite(pts).all():
            raise DomainError("point coordinates must be finite")
        raise DomainError("points must lie in the closed orthant")
    return pts


TRUNCATION_KINDS = ("total", "box")


def _check_truncation(kind: str, dim: int, degree: int) -> tuple[int, int]:
    """The one check of a truncation set; returns (dim, degree) as ints."""
    if kind not in TRUNCATION_KINDS:
        raise DomainError(f"truncation kind must be one of {TRUNCATION_KINDS}")
    rule = "dimension must be >= 1 and degree >= 0, both integers"
    return _check_count(dim, rule, 1), _check_count(degree, rule)


def truncation_index(kind: str, dim: int, degree: int) -> np.ndarray:
    """The multi-indices with |n| <= degree ("total") or every n_j <= degree
    ("box"), graded-lex, as an (n_terms, dim) int64 array.  Each row carries
    what is left of its |n|; one np.repeat per axis expands it into every
    allowed n_j, so memory stays proportional to the output."""
    dim, degree = _check_truncation(kind, dim, degree)
    box = kind == "box"
    rest = np.arange((dim if box else 1) * degree + 1, dtype=np.int64)  # one row per shell
    cols = []
    for later in range(dim - 1, 0, -1):  # the axes after this one
        lo = np.maximum(rest - later * degree, 0) if box else np.zeros_like(rest)
        counts = (np.minimum(rest, degree) if box else rest) - lo + 1
        nj = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        cols = [np.repeat(c, counts) for c in cols] + [nj]
        rest = np.repeat(rest, counts) - nj
    return np.column_stack(cols + [rest])


def truncation_shell_counts(kind: str, dim: int, degree: int) -> list[int]:
    """Exact number of multi-indices on each shell |n| = m of the truncation
    set: comb(m+dim-1, dim-1) for "total", the dim-fold convolution of
    degree+1 ones for "box"; memory O(dim * degree), not O(set size)."""
    dim, degree = _check_truncation(kind, dim, degree)
    if kind == "total":
        return [math.comb(m + dim - 1, dim - 1) for m in range(degree + 1)]
    counts = np.ones(1, dtype=object)  # Python ints, so no count can overflow
    for _ in range(dim):
        counts = np.convolve(counts, np.ones(degree + 1, dtype=object))
    return counts.tolist()


def exp_or_inf(log_value: float) -> float:
    """e^log_value, or inf where that exceeds binary64."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Laguerre functions
# ---------------------------------------------------------------------------

MAX_SWEEP_VALUES = 2**26  # cap on the entries of one sweep's rows (512 MiB)


def _laguerre_rows(max_degree: int, x, damped: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One run of the three-term recurrence: rows (max_degree+1, len(x)) and a per-point log
    scale g, l_j(x) = rows[j] e^g (None stands for g = 0).  With `damped`, points whose e^{-x/2}
    is normal start from it (g = 0).  The others run on the bare polynomials over 2^shift
    (g = shift log 2 - x/2): as |L_j(x)| <= e^{x/2} (Szegő 7.21) and <= (1+x)^j, a start of
    2^-shift keeps them below 2^332 < 1e100 where it is normal; elsewhere they start from 1,
    and a row passing 1e100 has its point's rows divided by a power of two, exactly."""
    max_degree = _check_count(max_degree, "degree must be a nonnegative integer")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (x.min(initial=0.0) >= 0 and (top := x.max(initial=0.0)) < math.inf):  # NaN fails too
        raise DomainError("arguments must be finite and nonnegative")
    if (size := (max_degree + 1) * x.size) > MAX_SWEEP_VALUES:
        raise DomainError(f"a sweep to degree {max_degree} at {x.size} argument(s) needs {size}"
                          f" values, above the cap of {MAX_SWEEP_VALUES}")
    rows = np.empty((max_degree + 1, x.size))
    g = -x / 2.0
    rows[0] = np.exp(g) if damped else 0.0
    far = check = top > 1416.0 or not damped  # e^{-x/2} is a normal number up to x ~ 1416.79
    if far:
        bare = rows[0] < 2.2250738585072014e-308
        shift = np.ceil(np.minimum(x / 2.0, max_degree * np.log1p(x)) / math.log(2.0)) - 332.0
        check = shift.max(initial=0.0) > 1022.0
        shift = np.where(shift > 1022.0, 0.0, shift.clip(0.0))
        rows[0, bare] = np.ldexp(1.0, -shift[bare].astype(np.int64))
    for j in range(max_degree):
        rows[j + 1] = ((2 * j + 1 - x) * rows[j] - j * rows[j - 1]) / (j + 1) if j else (1.0 - x) * rows[0]
        # one step multiplies by at most x + 3j + 1: a row under 1e100 cannot overflow in it
        # below x ~ 1e208, and beyond, each row is ~x/j times the last, so rescaled at once
        if check and (over := np.abs(rows[j + 1]) > 1e100).any():
            over = np.flatnonzero(over)
            e = np.frexp(rows[j + 1, over])[1]
            rows[: j + 2, over] = np.ldexp(rows[: j + 2, over], -e)
            shift[over] += e
    ln2_hi, ln2_lo = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # shift * ln2_hi is exact
    return rows, np.where(bare, (shift * ln2_hi + g) + shift * ln2_lo, 0.0) if far else None


def laguerre_fn_sweep(max_degree: int, x) -> np.ndarray:
    """Values l_0(x), ..., l_max(x) at the points x >= 0, shape (max_degree+1, len(x)); far out,
    rows e^g is (rows e^{g/2}) e^{g/2}, so e^g does not underflow alone; values below binary64 are 0."""
    rows, g = _laguerre_rows(max_degree, x, damped=True)
    if g is not None:
        far = np.flatnonzero(g)
        half = np.exp(g[far] / 2.0)
        rows[:, far] = rows[:, far] * half * half
    return rows


def laguerre_fn_log_christoffel(K: int, x) -> np.ndarray:
    """log sum_{j<K} l_j(x)^2, the log inverse Christoffel function, from the bare polynomials: any x >= 0."""
    K = _check_count(K, "number of terms must be a positive integer", 1)
    rows, g = _laguerre_rows(K - 1, x, damped=False)
    return np.log(np.sum(np.square(rows, out=rows), axis=0)) + 2.0 * g


def _derivative_rows(l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l, l', l'') from the rows l_0..l_max (degree along axis 0): L_j' = -sum_{k<j} L_k
    (Szegő 5.1) gives l_j' = l_j/2 - sum_{k<=j} l_k, and once more, l_j'' = l_j'/2 - sum_{k<=j} l_k'."""
    dl = l / 2.0 - np.cumsum(l, axis=0)
    return l, dl, dl / 2.0 - np.cumsum(dl, axis=0)


def laguerre_fn_derivative_sweep(max_degree: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, first and second derivatives of l_0..l_max at the points x, each of shape
    (max_degree+1, len(x)), from the values of `laguerre_fn_sweep` alone: right for every x >= 0."""
    return _derivative_rows(laguerre_fn_sweep(max_degree, x))
