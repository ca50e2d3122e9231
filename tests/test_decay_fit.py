"""The closed-form decay-fit kernel against the exact least-squares line
(mpmath), and the classifier paths that use it against the same paths on
the `np.linalg.lstsq` fit the kernel replaced, which is kept here as their
reference."""

import functools
import importlib
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthlag import analysis, cli
from orthlag.analysis import (
    VERDICT_INCONCLUSIVE,
    VERDICT_ROUMIEU,
    _linear_decay_fit,
    _shell_points,
    classify_membership,
    estimate_decay_params,
)
from orthlag.cli import main
from orthlag.core import truncation_index
from orthlag.transform import CoefficientField

BENCH = Path(__file__).resolve().parents[1] / "bench"


def lstsq_decay_fit(ms, ys, t):
    """The fit before the closed form: one lstsq on the design [1, -ms^t]."""
    phi = ms ** t
    design = np.column_stack([np.ones_like(phi), -phi])
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ sol
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(resid ** 2)))


def lstsq_kernel(ms, ys, t):
    """`lstsq_decay_fit` with the kernel's signature: one lstsq per exponent."""
    if np.ndim(t) == 0:
        return lstsq_decay_fit(ms, ys, t)
    return tuple(map(np.array, zip(*(lstsq_decay_fit(ms, ys, s) for s in t.tolist()))))


@pytest.fixture
def reference_path(monkeypatch):
    """Run the analysis functions on the lstsq fit: the path before the
    closed form, apart from the guard on a one-shell boundary trend."""
    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_linear_decay_fit", lstsq_kernel)
            return fn(*args)
    return run


def decay_field(dim, degree, rate, rng=None, noise=0.0):
    """Coefficients e^{-rate(|n|)} on the total-degree set, with random signs
    and a normal log-amplitude noise of the given size when rng is given."""
    index = truncation_index("total", dim, degree)
    logs = -np.array([rate(m) for m in index.sum(axis=1).tolist()])
    values = np.exp(logs)
    if rng is not None:
        values = rng.choice((-1.0, 1.0), size=values.size) * np.exp(logs + noise * rng.normal(size=values.size))
    return CoefficientField._from_arrays(dim, "total", degree, index, values)


def stretched(c, t, degree=400):
    return decay_field(1, degree, lambda m: c * m ** t if c * m ** t < 700 else math.inf)


def exact_fit_line(ms, ys, t):
    """The exact least-squares line through the points (ms^t, ys), with ms^t
    the binary64 values the kernel forms, by 60-digit mpmath: its values at
    the two ends of ms^t and its rms residual, each rounded once."""
    phi = ms ** t
    with mpmath.workdps(60):
        p, y = [mpmath.mpf(v) for v in phi.tolist()], [mpmath.mpf(v) for v in ys.tolist()]
        p_bar, y_bar = mpmath.fsum(p) / len(p), mpmath.fsum(y) / len(y)
        slope = mpmath.fsum((u - p_bar) * (v - y_bar) for u, v in zip(p, y)) / mpmath.fsum((u - p_bar) ** 2 for u in p)
        rms = mpmath.sqrt(mpmath.fsum((v - y_bar - slope * (u - p_bar)) ** 2 for u, v in zip(p, y)) / len(p))
        return [float(y_bar + slope * (mpmath.mpf(e) - p_bar)) for e in (phi.min(), phi.max())], float(rms)


def line_at(fit, p):
    """log C - c p of a kernel fit (log C, c, rms), without rounding."""
    with mpmath.workdps(60):
        return float(mpmath.mpf(fit[0]) - mpmath.mpf(fit[1]) * mpmath.mpf(p))


# the data-relative distance between the kernel's line and the exact one: on
# two adjacent shells near 3000 at t = 0.05, |log C| reaches about 6e4 times
# the data, where one ulp of log C is about 1e-11 of the data
KERNEL_TOL = 1e-11


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 3000), st.floats(-700.0, 0.0)),
                    min_size=2, max_size=60, unique_by=lambda point: point[0]),
    t=st.floats(0.05, 4.0),
)
# lstsq on the uncentred design [1, -m^4] (condition about 1e15) read rank 1 here:
# residual 0.499 where the exact line passes through both points
@example(points=[(1351, 0.0), (1352, -1.0)], t=4.0)
def test_the_kernel_matches_the_exact_fit(points, t):
    ms, ys = (np.array(v, dtype=float) for v in zip(*sorted(points)))
    phi = ms ** t
    scale = 1.0 + float(np.max(np.abs(ys)))
    got = _linear_decay_fit(ms, ys, t)
    assert all(type(v) is float for v in got)
    # the fitted line agrees with the exact one over the data, and so does the residual
    ends, rms = exact_fit_line(ms, ys, t)
    for p, want in zip((phi.min(), phi.max()), ends):
        assert abs(line_at(got, p) - want) <= KERNEL_TOL * scale
    assert abs(got[2] - rms) <= KERNEL_TOL * scale
    # the array path gives every exponent the scalar path's fit, on the line over the data
    ts = np.array([0.05, t, 4.0])
    rows = _linear_decay_fit(ms, ys, ts)
    assert all(r.shape == (3,) for r in rows)
    for k, s in enumerate(ts.tolist()):
        one = _linear_decay_fit(ms, ys, s)
        assert rows[0][k] == pytest.approx(one[0], rel=1e-13, abs=1e-13 * scale)
        for p in (ms.min() ** s, ms.max() ** s):
            assert abs((rows[0][k] - one[0]) - (rows[1][k] - one[1]) * p) <= 1e-13 * scale
        assert rows[2][k] == pytest.approx(one[2], rel=1e-13, abs=1e-13 * scale)


def test_exact_data_is_fitted_exactly():
    ms = np.arange(50.0)
    log_c0, c, rms = _linear_decay_fit(ms, 0.25 - 1.5 * ms ** 0.5, 0.5)
    assert log_c0 == pytest.approx(0.25, abs=1e-13) and c == pytest.approx(1.5, rel=1e-14)
    assert rms < 1e-13


@pytest.mark.parametrize("value", [1.0, 0.3, 1e-200])
def test_constant_data_has_rate_exactly_zero(value):
    ms = np.arange(101.0)
    log_c0, c, rms = _linear_decay_fit(ms, np.full(ms.size, math.log(value)), 0.7)
    assert (c, rms) == (0.0, 0.0) and math.copysign(1.0, c) == 1.0
    assert log_c0 == pytest.approx(math.log(value), rel=1e-15)


def _compare_fits(fit, ref, rel):
    assert fit.support_size == ref.support_size
    for key in ("exponent", "c_hat", "alpha_hat"):
        assert getattr(fit, key) == pytest.approx(getattr(ref, key), rel=rel), key
    assert fit.log_amplitude == pytest.approx(ref.log_amplitude, abs=10 * rel)
    assert fit.residual == pytest.approx(ref.residual, rel=1e-12, abs=1e-12)  # exact data: rounding noise


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("t", [0.5, 2.0 / 3.0, 1.0])
def test_verify_families_match_the_reference(c, t, reference_path):
    a = stretched(c, t)
    fit = estimate_decay_params(a)
    _compare_fits(fit, reference_path(estimate_decay_params, a), rel=1e-12)
    assert fit.exponent == pytest.approx(t, abs=1e-9) and fit.c_hat == pytest.approx(c, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim,degree", [(1, 300), (2, 60), (3, 20)])
def test_noisy_fields_match_the_reference(dim, degree, seed, reference_path):
    # the residual is flat at its minimum, so the golden section fixes t only
    # to about sqrt(eps): over seeds 0-39, t moved by at most 1.3e-8 relative
    rng = np.random.default_rng([seed, dim])
    c, t = rng.uniform(0.5, 2.0), rng.uniform(0.45, 1.0)
    a = decay_field(dim, degree, lambda m: c * m ** t, rng=rng, noise=0.3)
    _compare_fits(estimate_decay_params(a), reference_path(estimate_decay_params, a), rel=1e-7)


def test_a_small_block_cap_gives_the_one_block_fit(monkeypatch):
    a = decay_field(2, 40, lambda m: 1.3 * m ** 0.6, rng=np.random.default_rng(3), noise=0.2)
    one_block = estimate_decay_params(a)
    shells = one_block.support_size
    calls = []

    def counted(ms, ys, t):
        calls.append(np.ndim(t))
        return _linear_decay_fit(ms, ys, t)

    monkeypatch.setattr(analysis, "FIT_BLOCK_VALUES", 7 * shells + 3)  # 7 exponents a block
    monkeypatch.setattr(analysis, "_linear_decay_fit", counted)
    blocked = estimate_decay_params(a)
    assert calls.count(1) == math.ceil(analysis.EXPONENT_GRID.size / 7)
    assert blocked == one_block
    monkeypatch.setattr(analysis, "FIT_BLOCK_VALUES", 1)  # below one row: one exponent a block
    calls.clear()
    assert estimate_decay_params(a) == one_block
    assert calls.count(1) == analysis.EXPONENT_GRID.size


def test_fit_memory_is_bounded_by_the_block_cap():
    n = 100_000
    index = np.arange(n).reshape(-1, 1)
    a = CoefficientField._from_arrays(1, "total", n - 1, index, np.exp(-0.05 * np.arange(n) ** 0.5))
    a._shells  # the shell table is the field's, not the fit's
    tracemalloc.start()
    try:
        fit = estimate_decay_params(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.exponent == pytest.approx(0.5, abs=1e-6)
    # one block of 10 exponents x 10^5 shells is 8 MB; an unblocked scan would hold 64 MB
    assert peak < 16 * 2**20


def test_a_three_shell_boundary_is_inconclusive():
    # e^{-m} on 3 shells at alpha = 1: the first half holds 1 shell, which has
    # no rate (the lstsq path read its minimum-norm rate 0 and said beurling)
    a = CoefficientField(1, "total", 2, {(m,): math.exp(-m) for m in range(3)})
    rep = classify_membership(a, 1.0)
    assert rep.verdict == VERDICT_INCONCLUSIVE and rep.rate_trend is None
    assert rep.fit.exponent == pytest.approx(1.0, abs=1e-9)
    assert "3 shells above the floor leave 1 in the first half" in rep.details
    four = CoefficientField(1, "total", 3, {(m,): math.exp(-m) for m in range(4)})
    rep = classify_membership(four, 1.0)
    assert rep.verdict == VERDICT_ROUMIEU
    assert all(type(c) is float for c in rep.rate_trend)


def test_classify_reads_the_shell_points_once(monkeypatch):
    calls = []

    def counted(a, floor):
        calls.append(floor)
        return _shell_points(a, floor)

    monkeypatch.setattr(analysis, "_shell_points", counted)
    assert classify_membership(stretched(2.0, 0.5, degree=200), 2.0).verdict == VERDICT_ROUMIEU
    assert len(calls) == 1


def test_the_calculus_classify_verdicts_are_unchanged(tmp_path, capsys, monkeypatch, reference_path):
    """The 30 `classify` commands of the benchmark's `calculus` workload at
    seeds 1-10: the verdict is the benchmark's expected one and the lstsq
    path's, and the printed fit moves by at most 1e-13 relative."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    # the same index sets, built once per shape
    monkeypatch.setattr(workloads.orc, "total_degree_set", functools.lru_cache(workloads.orc.total_degree_set))
    commands = []
    for seed in range(1, 11):
        work = tmp_path / str(seed)
        work.mkdir()
        commands += [cmd for cmd in workloads.build_calculus(seed, work) if cmd.argv[0] == "classify"]
    assert len(commands) == 30
    calls = []

    def spy(a, alpha, floor):
        calls.append((a, alpha, floor))
        return classify_membership(a, alpha, floor)

    monkeypatch.setattr(cli, "classify_membership", spy)
    for cmd in commands:
        assert main(cmd.argv) == 0
        out = capsys.readouterr().out
        cmd.check(out)  # the benchmark's verdict gate
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        ref = reference_path(classify_membership, *calls.pop())
        assert lines["verdict"] == ref.verdict
        for key in ("alpha_hat", "c_hat", "exponent"):
            assert float(lines[key]) == pytest.approx(getattr(ref.fit, key), rel=1e-13)
