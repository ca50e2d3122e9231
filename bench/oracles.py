"""Reference answers for the benchmark's accuracy gates.

Everything here is computed from closed forms or plain NumPy, never through
orthlag, so a gate cannot pass because the program agrees with itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.polynomial.laguerre import poly2lag

LOG_DBL_MAX = math.log(np.finfo(float).max)
DIGITS_CAP = 16.0


class GateMiss(Exception):
    """A command's output disagrees with its oracle."""


# ---------------------------------------------------------------------------
# index sets and the coefficient file format
# ---------------------------------------------------------------------------

def total_degree_set(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with |n| <= degree, graded lexicographic, as (n, dim)."""
    rows = [
        n
        for m in range(degree + 1)
        for n in itertools.product(range(m + 1), repeat=dim)
        if sum(n) == m
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, dim)


def format_coefficients(dim: int, degree: int, idx: np.ndarray, vals: np.ndarray) -> str:
    """Coefficient file text for a total-degree truncation (README format)."""
    lines = [f"dim: {dim}", "truncation_kind: total", f"truncation_degree: {degree}"]
    for n, v in zip(idx.tolist(), vals.tolist()):
        lines.append(",".join(str(k) for k in n) + "," + repr(float(v)))
    return "\n".join(lines) + "\n"


def read_coefficients(path) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(dim, degree, indices, values) of a coefficient file."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    header = dict(ln.split(":", 1) for ln in raw[:3])
    dim = int(header["dim"])
    degree = int(header["truncation_degree"])
    body = [ln.split(",") for ln in raw[3:]]
    if any(len(parts) != dim + 1 for parts in body):
        raise GateMiss(f"{path}: record with the wrong number of fields")
    idx = np.array([[int(p) for p in parts[:dim]] for parts in body], dtype=np.int64)
    vals = np.array([float(parts[dim]) for parts in body])
    return dim, degree, idx.reshape(-1, dim), vals


def parse_fields(stdout: str) -> dict[str, str]:
    """`key: value` lines of a command's report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(":")
        if sep:
            out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def rel_err(out, ref) -> float:
    """max |out - ref| / max |ref| (normwise relative error)."""
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        raise GateMiss(f"shape {out.shape} differs from the reference {ref.shape}")
    if not np.all(np.isfinite(out)):
        raise GateMiss("non-finite value in the output")
    return float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))


def exp_rel_err(out: float, log_ref: float) -> float:
    """Relative error of a value formed as exp(L), divided by max(1, |L|).

    exp turns an absolute error in L into that relative error in the value,
    so a log-space computation that holds L to binary64 precision keeps
    |L| eps relative error and no better; dividing by the conditioning makes
    the digits comparable across the drawn parameters."""
    return rel_err(out, math.exp(log_ref)) / max(1.0, abs(log_ref))


def digits(err: float) -> float:
    """-log10 of a relative error, capped at 16."""
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def coefficients_err(path, dim: int, degree: int, ref_fn) -> float:
    """Relative error of a coefficient file against ref_fn(indices).

    The file must hold exactly the total-degree set in graded-lex order."""
    fdim, fdeg, idx, vals = read_coefficients(path)
    expected = total_degree_set(dim, degree)
    if fdim != dim or fdeg != degree or not np.array_equal(idx, expected):
        raise GateMiss(f"{path}: index set differs from the |n| <= {degree} set in {dim}-D")
    return rel_err(vals, ref_fn(idx))


# ---------------------------------------------------------------------------
# closed-form coefficients of the built-in fields
# ---------------------------------------------------------------------------

def exp_decay_coeffs(idx: np.ndarray) -> np.ndarray:
    """Coefficients of e^{-x_1-...-x_d}: (2/3)^d (1/3)^{|n|}."""
    return (2.0 / 3.0) ** idx.shape[1] * (1.0 / 3.0) ** idx.sum(axis=1)


def unit_coeffs(idx: np.ndarray, n) -> np.ndarray:
    """Coefficients of the single Laguerre function l_n: the unit vector at n."""
    return np.all(idx == np.asarray(n), axis=1).astype(float)


def poly_exp_coeffs(idx: np.ndarray, coeffs) -> np.ndarray:
    """Coefficients of prod_j P(x_j) e^{-x_j/2}: the outer product of the
    Laguerre-basis coefficients of P (l_k = L_k e^{-x/2})."""
    b = poly2lag(np.asarray(coeffs, dtype=float))
    padded = np.zeros(int(idx.max()) + 1 if idx.size else 1)
    padded[: min(b.size, padded.size)] = b[: padded.size]
    return np.prod(padded[idx], axis=1)


# ---------------------------------------------------------------------------
# coefficient-space references
# ---------------------------------------------------------------------------

def power_coeffs(idx, vals, N: int) -> np.ndarray:
    """E^N: a_n |n|^N, with |n|^0 = 1."""
    m = idx.sum(axis=1).astype(float)
    return vals * (m ** N if N > 0 else np.ones_like(m))


def semigroup_coeffs(idx, vals, t: float) -> np.ndarray:
    """e^{-tE}: a_n e^{-t|n|}."""
    return vals * np.exp(-t * idx.sum(axis=1))


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


def log_weighted_norm(idx, vals, alpha: float, h: float, p: float) -> float:
    """log of the l^p norm of |a_n| e^{h |n|^{1/(2 alpha)}}."""
    keep = vals != 0.0
    m = idx[keep].sum(axis=1).astype(float)
    logs = np.log(np.abs(vals[keep])) + h * m ** (1.0 / (2.0 * alpha))
    if math.isinf(p):
        return float(np.max(logs))
    return _logsumexp(p * logs) / p


def eta_reference(idx, vals, alpha: float, h: float, nmax: int) -> tuple[float, int, bool]:
    """(log value, argmax N, still growing) of sup_{1<=N<=nmax}
    ||E^N f|| / (h^N N!^alpha), with ||E^N f||^2 = sum |n|^{2N} a_n^2."""
    m = idx.sum(axis=1).astype(float)
    keep = (vals != 0.0) & (m > 0)
    log_m = np.log(m[keep])
    log_a2 = 2.0 * np.log(np.abs(vals[keep]))
    ratios = np.array([
        0.5 * _logsumexp(2.0 * N * log_m + log_a2) - N * math.log(h) - alpha * math.lgamma(N + 1)
        for N in range(1, nmax + 1)
    ])
    best = int(np.argmax(ratios))
    growing = best == nmax - 1 and nmax >= 2 and ratios[-1] > ratios[-2]
    return float(ratios[best]), best + 1, bool(growing)


def expected_verdict(t: float, alpha: float, margin: float) -> str:
    """Verdict implied by coefficients e^{-c|n|^t} at level alpha.

    Membership at level alpha needs decay exponent 1/alpha: a larger t beats
    every rate (Beurling), a smaller one misses the class, equality is the
    Roumieu boundary.  `margin` is how far the workload placed t from 1/alpha.
    """
    if margin == 0.0:
        return "roumieu"
    return "beurling" if t > 1.0 / alpha else "not_member"
