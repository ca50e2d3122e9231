import math
import tracemalloc
from itertools import product

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.laguerre import lag2poly
import pytest
from hypothesis import example, given, settings, strategies as st

from orthlag import core, transform
from orthlag.core import (
    DomainError,
    laguerre_fn_derivative_sweep,
    laguerre_fn_sweep,
    truncation_index,
    validate_multi_index,
)
from orthlag.fields import exp_decay_field, laguerre_field, separable_poly_exp_field
from orthlag.operators import _shell_log_norms, apply_E_pointwise
from orthlag.quadrature import gauss_laguerre_rule
from orthlag.transform import (
    CoefficientField,
    ScalarField,
    analyze,
    as_scalar_field,
    parseval_l2_norm,
    read_coefficients,
    synthesize,
    write_coefficients,
)


def index_tuples(kind, dim, degree):
    """The truncation set as a list of tuples, graded lexicographic."""
    return [tuple(n) for n in truncation_index(kind, dim, degree).tolist()]


def graded_lex_key(n):
    return (sum(n), tuple(n))


@pytest.fixture(scope="module")
def rule64():
    return gauss_laguerre_rule(64)


def geometric_coefficient(n: int) -> float:
    """a_n of e^{-x}: Laplace transform of L_n at s = 3/2 gives (2/3)(1/3)^n."""
    return (2.0 / 3.0) * (1.0 / 3.0) ** n


def _mp_laguerre(n, x):
    # exact rational coefficients: L_n(x) = sum_k (-1)^k C(n,k) x^k / k!
    return mpmath.fsum(
        (-1) ** k * mpmath.binomial(n, k) / mpmath.factorial(k) * x**k
        for k in range(n + 1)
    )


def test_geometric_oracle_against_high_precision_quadrature():
    # independent check of the closed form with 50-digit numeric integration
    mpmath.mp.dps = 50
    for n in (0, 1, 4, 9):
        direct = mpmath.quad(
            lambda x: mpmath.exp(-x) * _mp_laguerre(n, x) * mpmath.exp(-x / 2),
            [0, mpmath.inf],
        )
        assert float(direct) == pytest.approx(geometric_coefficient(n), rel=1e-13)


class TestAnalyze:
    def test_basis_function_gives_delta(self, rule64):
        a = analyze(laguerre_field((3,)), 10, rule64)
        for n in range(11):
            expected = 1.0 if n == 3 else 0.0
            assert a.get((n,)) == pytest.approx(expected, abs=1e-10)

    def test_exp_decay_1d(self, rule64):
        a = analyze(exp_decay_field(1), 20, rule64)
        for n in range(21):
            assert a.get((n,)) == pytest.approx(geometric_coefficient(n), abs=1e-10)

    def test_exp_decay_2d(self, rule64):
        a = analyze(exp_decay_field(2), 12, rule64)
        for n in index_tuples("total", 2, 12):
            expected = (2.0 / 3.0) ** 2 * (1.0 / 3.0) ** sum(n)
            assert a.get(n) == pytest.approx(expected, abs=1e-9)

    def test_exp_decay_3d_streaming_path(self):
        rule = gauss_laguerre_rule(20)
        a = analyze(exp_decay_field(3), 3, rule)
        for n in index_tuples("total", 3, 3):
            expected = (2.0 / 3.0) ** 3 * (1.0 / 3.0) ** sum(n)
            assert a.get(n) == pytest.approx(expected, abs=1e-9)

    def test_box_truncation(self, rule64):
        a = analyze(exp_decay_field(2), 5, rule64, kind="box")
        assert (5, 5) in a.entries
        assert a.get((5, 5)) == pytest.approx((2 / 3) ** 2 * (1 / 3) ** 10, abs=1e-10)

    def test_rule_too_small_rejected(self):
        with pytest.raises(DomainError):
            analyze(exp_decay_field(1), 20, gauss_laguerre_rule(10))

    def test_non_finite_field_rejected(self, rule64):
        bad = ScalarField(dim=1, evaluator=lambda x: math.nan)
        with pytest.raises(DomainError, match="non-finite"):
            analyze(bad, 4, rule64)

    def test_linearity(self, rule64):
        f = exp_decay_field(1)
        g = laguerre_field((2,))
        combo = ScalarField(1, lambda x: 0.3 * f.evaluator(x) - 2.0 * g.evaluator(x))
        af, ag, ac = (analyze(h, 15, rule64) for h in (f, g, combo))
        for n in ac.entries:
            assert ac.get(n) == pytest.approx(0.3 * af.get(n) - 2.0 * ag.get(n), abs=1e-12)

    def test_truncation_monotonicity(self, rule64):
        small = analyze(exp_decay_field(1), 10, rule64)
        large = analyze(exp_decay_field(1), 20, rule64)
        for n in small.entries:
            assert large.get(n) == pytest.approx(small.get(n), abs=1e-12)


@pytest.mark.parametrize("kind", ["total", "box"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_analyze_builds_the_container_the_validation_path_builds(d, kind):
    # analyze stores truncation_index's rows as they come: the validation path,
    # given the same rows shuffled, sorts them back to the same bits
    f = ScalarField(d, lambda x: math.exp(-0.7 * x.sum()) * (1.0 + math.cos(x[0])))
    rng = np.random.default_rng(d)
    for degree in range(9):
        a = analyze(f, degree, gauss_laguerre_rule(degree + 1), kind)
        perm = rng.permutation(a.values.size)
        b = CoefficientField._from_arrays(d, kind, degree, a.index[perm], a.values[perm])
        for got, want in ((a.index, b.index), (a.values, b.values), (a.orders, b.orders)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert (a.dim, a.truncation_kind, a.degree) == (b.dim, b.truncation_kind, b.degree)


def test_the_sorted_path_still_checks_that_every_value_is_finite():
    with pytest.raises(DomainError, match=r"coefficient at index \(1,\) is not finite: inf"):
        CoefficientField._from_sorted(1, "total", 1, np.array([[0], [1]]), np.array([1.0, math.inf]), np.array([0, 1]))


def reference_analyze(f, degree, rule, kind="total"):
    """The former d >= 3 transform, kept as the reference: stream the node
    grid and add w(x) f(x) l_n(x) for every n with math.fsum."""
    d = f.dim
    nodes, wmod = rule.nodes, rule.modified_weights
    V = laguerre_fn_sweep(degree, nodes)
    indices = index_tuples(kind, d, degree)
    acc = {n: [] for n in indices}
    for tup in product(range(rule.size), repeat=d):
        wf = float(np.prod(wmod[list(tup)])) * float(f.evaluator(nodes[list(tup)]))
        for n in indices:
            basis = 1.0
            for j, nj in enumerate(n):
                basis *= V[nj, tup[j]]
            acc[n].append(wf * basis)
    return {n: math.fsum(terms) for n, terms in acc.items()}


@pytest.mark.parametrize("d,degree,K,kind", [
    (1, 30, 46, "total"), (2, 12, 24, "total"), (2, 6, 12, "box"), (3, 6, 10, "total"),
])
def test_analyze_matches_the_per_point_reference(d, degree, K, kind):
    # not a product over axes: the sum factorization must not rely on it
    c = np.array([1.0, 0.5, 0.3])[:d]
    f = ScalarField(d, lambda x: math.exp(-0.6 * x.sum()) * (1.0 + math.sin(x @ c)))
    rule = gauss_laguerre_rule(K)
    ref = reference_analyze(f, degree, rule, kind)
    a = analyze(f, degree, rule, kind)
    assert sorted(a.entries) == sorted(ref)
    got = np.array([a.entries[n] for n in ref])
    want = np.array(list(ref.values()))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def reference_synthesize(a, points):
    """The former per-term synthesis, kept as the reference: sum over the
    stored terms in graded-lex order of a_n prod_j l_{n_j}(x_j)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    degs = [max((n[j] for n in a.entries), default=0) for j in range(a.dim)]
    sweeps = [laguerre_fn_sweep(degs[j], pts[:, j]) for j in range(a.dim)]
    out = np.zeros(pts.shape[0])
    for n in sorted(a.entries, key=graded_lex_key):
        term = np.full(pts.shape[0], a.entries[n])
        for j, nj in enumerate(n):
            term = term * sweeps[j][nj]
        out += term
    return out


def reference_deriv(a, x):
    """The former per-term derivative of `as_scalar_field`, kept as the
    reference: per-axis triples (f, df/dx_j, d2f/dx_j2) summed term by term."""
    degs = [max((n[j] for n in a.entries), default=0) for j in range(a.dim)]
    trip = [laguerre_fn_derivative_sweep(degs[j], x[j]) for j in range(a.dim)]
    val, d1, d2 = 0.0, [0.0] * a.dim, [0.0] * a.dim
    for n in sorted(a.entries, key=graded_lex_key):
        c = a.entries[n]
        axis_vals = [trip[j][0][nj, 0] for j, nj in enumerate(n)]
        val += c * math.prod(axis_vals)
        for j, nj in enumerate(n):
            rest = math.prod(v for i, v in enumerate(axis_vals) if i != j)
            d1[j] += c * trip[j][1][nj, 0] * rest
            d2[j] += c * trip[j][2][nj, 0] * rest
    return [(val, d1[j], d2[j]) for j in range(a.dim)]


def random_coefficients(rng, dim, degree, kind="total"):
    entries = {n: rng.uniform(-1, 1) for n in index_tuples(kind, dim, degree)}
    return CoefficientField(dim, kind, degree, entries)


def sparse_d3_coefficients():
    # a few scattered terms of a large box: most values of n_j never occur
    entries = {(0, 0, 0): 0.5, (40, 3, 0): -1.25, (7, 0, 55): 2.0, (40, 9, 55): 0.75, (1, 60, 2): -0.3}
    return CoefficientField(3, "box", 60, entries)


SYNTH_CASES = {
    "d1-total": lambda rng: random_coefficients(rng, 1, 60),
    "d2-total": lambda rng: random_coefficients(rng, 2, 20),
    "d2-box": lambda rng: random_coefficients(rng, 2, 12, "box"),
    "d3-total": lambda rng: random_coefficients(rng, 3, 10),
    "d3-box": lambda rng: random_coefficients(rng, 3, 6, "box"),
    "d3-sparse": lambda rng: sparse_d3_coefficients(),
}


@pytest.mark.parametrize("case", sorted(SYNTH_CASES))
def test_synthesize_matches_the_per_term_reference(case):
    rng = np.random.default_rng(sorted(SYNTH_CASES).index(case))
    a = SYNTH_CASES[case](rng)
    pts = rng.uniform(0.0, 40.0, size=(700, a.dim))
    pts[:5] = 0.0  # the orthant corner and, below, its faces
    pts[5:10, 0] = 0.0
    want = reference_synthesize(a, pts)
    got = synthesize(a, pts)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def reference_point_deriv(a, x):
    """The former one-point deriv of `as_scalar_field`, kept as the reference:
    one derivative sweep per axis at x, gathered for every term at once."""
    degs = a.index.max(axis=0, initial=0)
    vals, d1s, d2s = (np.empty((a.dim, a.values.size)) for _ in range(3))
    for j in range(a.dim):
        sweeps = laguerre_fn_derivative_sweep(int(degs[j]), x[j])
        for row, sweep in zip((vals, d1s, d2s), sweeps):
            row[j] = sweep[a.index[:, j], 0]
    val = float(a.values @ vals.prod(axis=0))
    out = []
    for j in range(a.dim):
        rest = a.values * np.delete(vals, j, axis=0).prod(axis=0)
        out.append((val, float(rest @ d1s[j]), float(rest @ d2s[j])))
    return out


def reference_apply_E_pointwise(triples, x):
    """The former one-point `apply_E_pointwise` on the triples at x."""
    total = 0.0
    for j, (val, d1, d2) in enumerate(triples):
        xj = x[j]
        total += xj * d2 + d1 - (xj / 4.0) * val + 0.5 * val
    return -total


def deriv_points(rng, dim):
    pts = rng.uniform(0.0, 20.0, size=(20, dim))
    pts[:2] = 0.0  # the orthant corner and a face
    pts[2, 0] = 0.0
    return pts


@pytest.mark.parametrize("case", sorted(SYNTH_CASES))
def test_deriv_matches_the_per_term_reference(case):
    rng = np.random.default_rng(100 + sorted(SYNTH_CASES).index(case))
    a = SYNTH_CASES[case](rng)
    pts = rng.uniform(0.0, 20.0, size=(20, a.dim))
    got = np.stack([np.column_stack(t) for t in as_scalar_field(a).deriv(pts)], axis=1)  # (points, axes, 3)
    for x, row in zip(pts, got):
        want = np.array(reference_deriv(a, x))
        assert np.max(np.abs(row - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("case", sorted(SYNTH_CASES))
def test_batched_deriv_and_operator_match_one_point_calls(case):
    rng = np.random.default_rng(200 + sorted(SYNTH_CASES).index(case))
    a = SYNTH_CASES[case](rng)
    pts = deriv_points(rng, a.dim)
    fa = as_scalar_field(a)
    got = np.stack([np.column_stack(t) for t in fa.deriv(pts)], axis=1)
    want = np.array([reference_point_deriv(a, x) for x in pts])
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    want = np.array([reference_apply_E_pointwise(triples, x) for triples, x in zip(want, pts)])
    assert np.linalg.norm(apply_E_pointwise(fa, pts) - want) <= 1e-13 * np.linalg.norm(want)


def reference_separable_deriv(axis_coeffs, rates, x):
    """The former one-point deriv of `separable_poly_exp_field`, kept as the
    reference: per-axis triples of floats at the point x."""
    polys = []
    for c, s in zip(axis_coeffs, rates):
        c = np.asarray(c, dtype=float)
        d1 = npoly.polysub(npoly.polyder(c), s * c)
        polys.append((c, d1, npoly.polysub(npoly.polyder(d1), s * d1)))
    vals, d1s, d2s = ([float(npoly.polyval(xj, p[order]) * np.exp(-s * xj)) for p, s, xj in zip(polys, rates, x)]
                      for order in range(3))
    total = float(np.prod(vals))
    rests = [math.prod(vals[:j] + vals[j + 1:]) for j in range(len(x))]
    return [(total, d1 * rest, d2 * rest) for d1, d2, rest in zip(d1s, d2s, rests)]


@pytest.mark.parametrize("axis_coeffs,rates", [
    ([[1.0]], [1.0]),
    ([[1.0], [2.0, -1.0, 0.25]], [1.0, 0.5]),
    ([lag2poly(np.eye(n + 1)[n]) for n in (4, 1, 2)], [0.5] * 3),
], ids=["exp-decay-d1", "poly-exp-d2", "l-d3"])
def test_batched_separable_field_matches_one_point_calls(axis_coeffs, rates):
    f = separable_poly_exp_field(axis_coeffs, rates)
    pts = np.random.default_rng(6).uniform(0.0, 20.0, size=(40, f.dim))
    pts[0] = 0.0
    got = np.stack([np.column_stack(t) for t in f.deriv(pts)], axis=1)  # (points, axes, 3)
    want = np.array([reference_separable_deriv(axis_coeffs, rates, x) for x in pts])
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    want = np.array([reference_apply_E_pointwise(triples, x) for triples, x in zip(want, pts)])
    assert np.linalg.norm(apply_E_pointwise(f, pts) - want) <= 1e-13 * np.linalg.norm(want)


def test_deriv_of_a_field_without_terms_is_zero():
    triples = as_scalar_field(CoefficientField(2, "total", 3, {})).deriv([[1.0, 2.0], [0.0, 0.0]])
    assert len(triples) == 2 and all(np.array_equal(v, np.zeros(2)) for t in triples for v in t)


@pytest.mark.parametrize("bad", [[[1.0, math.nan, 0.0]], [[1.0, -1e-300, 0.0]], [[1.0, 2.0]], [[1.0, 2.0, 3.0, 4.0]]],
                         ids=["nan", "negative", "two-columns", "four-columns"])
def test_deriv_rejects_bad_points(bad):
    with pytest.raises(DomainError):
        as_scalar_field(sparse_d3_coefficients()).deriv(bad)


def test_deriv_memory_is_bounded():
    # d=3, degree 30 (5456 terms), 10k points: the per-axis value sweeps take
    # 7.4 MiB; the derivative rows are taken one gather block at a time
    rng = np.random.default_rng(8)
    a = random_coefficients(rng, 3, 30)
    pts = rng.uniform(0.0, 30.0, size=(10_000, 3))
    deriv = as_scalar_field(a).deriv
    tracemalloc.start()
    try:
        deriv(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def synthesize_peak(a, pts):
    tracemalloc.start()
    try:
        synthesize(a, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_synthesize_memory_is_bounded():
    # d=3, degree 30 (5456 terms), 10k points: the per-axis sweeps take
    # 7.4 MiB; gathering every term at every point at once would take 416 MiB
    rng = np.random.default_rng(2)
    a = random_coefficients(rng, 3, 30)
    pts = rng.uniform(0.0, 30.0, size=(10_000, 3))
    assert synthesize_peak(a, pts) < 16 * 2**20


@pytest.mark.parametrize("case", ["d3-diagonal", "d6-total"])
def test_synthesize_memory_follows_the_term_count(case):
    # few terms spread over many values of n_j: a dense array with one slot
    # per (n_1, ..., n_d) would take 27 MiB (150^3) and 14 MiB (11^6)
    rng = np.random.default_rng(3)
    if case == "d3-diagonal":
        a = CoefficientField(3, "box", 149, {(k, k, k): rng.uniform(-1, 1) for k in range(150)})
    else:
        a = random_coefficients(rng, 6, 10)  # 8008 terms
    pts = rng.uniform(0.0, 10.0, size=(1000, a.dim))
    assert synthesize_peak(a, pts) < 8 * 2**20
    sample = pts[::50]
    want = reference_synthesize(a, sample)
    assert np.linalg.norm(synthesize(a, sample) - want) <= 1e-14 * np.linalg.norm(want)


def test_a_sparse_field_builds_no_dense_table():
    # the anti-diagonal n_1 + n_2 = 4095: 4096 prefixes, each with one term, so
    # the dense table would hold 4096 x 4096 values (128 MiB); its size is checked
    # first, and the last axis is summed per prefix instead
    rng = np.random.default_rng(11)
    a = CoefficientField(2, "total", 4095, {(k, 4095 - k): rng.uniform(-1, 1) for k in range(4096)})
    pts = rng.uniform(0.0, 30.0, size=(1000, 2))
    assert synthesize_peak(a, pts) < 8 * 2**20
    assert a._prefix_table.dense is None
    sample = pts[::100]
    assert_within_rounding(synthesize(a, sample), unblocked_synthesize(a, sample),
                           unblocked_synthesize(a, sample, True), a.values.size)


def unblocked_synthesize(a, points, absolute=False):
    """The former synthesis, kept as the reference: one sweep per axis over
    all the points at once, then each term's factors gathered and multiplied,
    in gather blocks.  With `absolute`, sum_n |a_n| prod_j |l_{n_j}(x_j)|, the
    scale of the rounding bound."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sweeps = [laguerre_fn_sweep(int(nj.max(initial=0)), pts[:, j]) for j, nj in enumerate(a.index.T)]
    values = np.abs(a.values) if absolute else a.values
    block = max(1, 2**16 // max(1, a.values.size))
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], block):
        cols = slice(lo, lo + block)
        terms = sweeps[0][:, cols].take(a.index[:, 0], axis=0)
        for j in range(1, a.dim):
            terms *= sweeps[j][:, cols].take(a.index[:, j], axis=0)
        out[cols] = values @ (np.abs(terms) if absolute else terms)
    return out


# |got - ref| <= ROUNDING_C u sum_n |a_n| prod_j |f_{n_j}(x_j)| at every point, u = 2^-53 and f
# the factor each axis contributes (l, l' or l''): sum factorization sums in another order than
# the per-term gather.  The largest ratio measured was 17.4 (values) and 12.8 (derivatives) over
# 8000 random fields (d = 1-4, up to 200 values of n_j per axis, 1-50 points in [0, 60], both
# table branches), the reference's own rounding included; + 2^-1074 per term covers sums whose
# products are subnormal.
ROUNDING_C = 64


def assert_within_rounding(got, want, scale, terms):
    bound = ROUNDING_C * (np.finfo(float).eps / 2) * scale + terms * 2.0**-1074
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


def test_synthesize_memory_does_not_grow_with_the_largest_index():
    # one large n_j: sweeping all 10k points at once up to n_j = 2000 would
    # hold 2001 x 10k values (153 MiB); the sweeps go over blocks of points
    a = CoefficientField(2, "box", 2000, {(2000, 0): 1.5, (0, 3): -0.7})
    pts = np.random.default_rng(4).uniform(0.0, 50.0, size=(10_000, 2))
    assert synthesize_peak(a, pts) < 32 * 2**20
    assert_within_rounding(synthesize(a, pts), unblocked_synthesize(a, pts), unblocked_synthesize(a, pts, True), 2)


def test_blocks_of_a_high_reach_field_stay_within_the_rounding_bound():
    # 301 terms with n_j up to 2000: 524 points a block (sweeps of 2^20 values),
    # the last-axis table 300 x 2001 (sparse branch, summed per prefix) or dense
    rng = np.random.default_rng(5)
    entries = {(int(i), int(j)): float(v) for i, j, v in
               zip(rng.integers(0, 2001, 300), rng.integers(0, 2001, 300), rng.uniform(-1, 1, 300))}
    entries[(2000, 0)] = 1.0
    pts = rng.uniform(0.0, 50.0, size=(2_000, 2))
    for factor in (transform.DENSE_TABLE_FACTOR, 10**4):
        a = table_branch(factor, lambda: CoefficientField(2, "box", 2000, entries))
        want, scale = unblocked_synthesize(a, pts), unblocked_synthesize(a, pts, True)
        assert_within_rounding(synthesize(a, pts), want, scale, a.values.size)


def table_branch(factor, build):
    """The field `build()` returns, with its prefix table built under DENSE_TABLE_FACTOR = factor
    (0: always the sparse branch; a large factor: dense wherever the table is small enough)."""
    saved, transform.DENSE_TABLE_FACTOR = transform.DENSE_TABLE_FACTOR, factor
    try:
        a = build()
        a._prefix_table
    finally:
        transform.DENSE_TABLE_FACTOR = saved
    return a


def unblocked_deriv(a, points, absolute=False):
    """The former `as_scalar_field(a).deriv`, kept as the reference: one
    derivative sweep per axis over all the points at once, then the same
    gather blocks.  With `absolute`, the scales of the rounding bound."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sweeps = [laguerre_fn_derivative_sweep(int(nj.max(initial=0)), pts[:, j]) for j, nj in enumerate(a.index.T)]
    values = np.abs(a.values) if absolute else a.values
    block = max(1, 2**16 // (3 * max(1, a.values.size)))
    value, (first, second) = np.empty(pts.shape[0]), np.empty((2, a.dim, pts.shape[0]))
    for lo in range(0, pts.shape[0], block):
        cols = slice(lo, lo + block)
        factors = [[r[:, cols].take(a.index[:, j], axis=0) for r in sweep] for j, sweep in enumerate(sweeps)]
        if absolute:
            factors = [[np.abs(r) for r in f] for f in factors]
        vals = [v for v, _, _ in factors]
        value[cols] = values @ math.prod(vals)
        for j, (_, d1, d2) in enumerate(factors):
            rest = math.prod(vals[:j] + vals[j + 1:])
            first[j, cols] = values @ (rest * d1)
            second[j, cols] = values @ (rest * d2)
    return [(value, first[j], second[j]) for j in range(a.dim)]


def field_reaching(rng, degs, terms, zeros):
    """A box field whose axis j reaches max n_j = degs[j] exactly: one record
    at (0, .., degs[j], .., 0) per axis, `terms` more at random, and `zeros`
    of the records stored as 0.0."""
    degs = np.array(degs)
    rows = [np.diag(degs)] + [rng.integers(0, degs + 1, size=(terms, degs.size))]
    entries = {tuple(n): float(rng.uniform(-1, 1)) for n in np.vstack(rows).tolist()}
    for n in list(entries)[:zeros]:
        entries[n] = 0.0
    return CoefficientField(degs.size, "box", int(degs.max()), entries)


@given(degs=st.lists(st.sampled_from([0, 3, 7, 12]), min_size=1, max_size=4),
       terms=st.integers(0, 30), zeros=st.integers(0, 3), npts=st.integers(1, 40),
       far=st.booleans(), dense=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(degs=[6, 6], terms=5, zeros=0, npts=1, far=True, dense=True, seed=1)  # a far and a near axis at one point
@example(degs=[5, 2, 5, 9], terms=12, zeros=2, npts=1, far=False, dense=False, seed=2)  # partly equal, one point
@example(degs=[1, 4, 7, 12], terms=20, zeros=1, npts=30, far=True, dense=True, seed=3)  # all different
@example(degs=[2000, 2000], terms=300, zeros=3, npts=534, far=False, dense=False, seed=4)  # several blocks, the last short
@example(degs=[0, 7], terms=0, zeros=2, npts=3, far=False, dense=True, seed=5)  # every record a stored zero
@example(degs=[9], terms=4, zeros=1, npts=1, far=True, dense=False, seed=6)  # d = 1, one point past 1416
@settings(max_examples=200, deadline=None)
def test_synthesis_and_deriv_stay_within_the_rounding_bound(degs, terms, zeros, npts, far, dense, seed):
    # on either branch of the prefix table (dense product or per-prefix sums), every
    # synthesized value and derivative is the per-term gather's within the rounding bound
    rng = np.random.default_rng(seed)
    a = table_branch(10**6 if dense else 0, lambda: field_reaching(rng, degs, terms, zeros))
    assert (a._prefix_table.dense is not None) == dense or a._terms[1].size == 0
    pts = rng.uniform(0.0, 60.0, size=(npts, a.dim))
    if far:  # the far path runs over every coordinate of the sweep that holds this one
        pts[0, 0] = rng.uniform(1417.0, 5000.0)
    # the references sum over the nonzero terms: a stored zero is a record, not a term
    ref = CoefficientField(a.dim, "box", a.degree, {n: v for n, v in a.entries.items() if v})
    n = ref.values.size
    assert_within_rounding(synthesize(a, pts), unblocked_synthesize(ref, pts),
                           unblocked_synthesize(ref, pts, True), n)
    for got, want, scale in zip(as_scalar_field(a).deriv(pts), unblocked_deriv(ref, pts),
                                unblocked_deriv(ref, pts, True)):
        for g, w, s in zip(got, want, scale):
            assert_within_rounding(g, w, s, n)
    if n == 0:
        assert np.array_equal(synthesize(a, pts), np.zeros(npts))


def sweep_calls(monkeypatch):
    """Record (degree, coordinates) of each sweep `transform` runs."""
    calls = []

    def counted(max_degree, x):
        calls.append((max_degree, np.size(x)))
        return laguerre_fn_sweep(max_degree, x)

    monkeypatch.setattr(transform, "laguerre_fn_sweep", counted)
    return calls


@pytest.mark.parametrize("case,npts,want", [
    ("d2-total", 1, [(10, 1), (10, 1)]),
    ("box-2000-3", 1, [(2000, 1), (3, 1)]),
    ("d2-total", 400, [(10, 400)] * 2),
    ("d2-total", 3000, [(10, 3000)] * 2),
    ("box-2000-3", 600, [(2000, 524), (3, 524), (2000, 76), (3, 76)]),
    ("empty", 5, []),
])
def test_one_sweep_per_block_and_distinct_axis_degree(monkeypatch, case, npts, want):
    # a block makes one sweep per axis, to the axis's reach (524 points a block
    # at reach 2000); the swept values, sum of (m + 1) x coordinates, are those
    # of one sweep per axis over all the points
    a = {"d2-total": random_coefficients(np.random.default_rng(7), 2, 10),
         "box-2000-3": CoefficientField(2, "box", 2000, {(2000, 0): 1.5, (0, 3): -0.7}),
         "empty": CoefficientField(2, "total", 4, {})}[case]
    pts = np.random.default_rng(8).uniform(0.0, 30.0, size=(npts, 2))
    calls = sweep_calls(monkeypatch)
    synthesize(a, pts)
    assert calls == want
    per_axis = (a.index.max(axis=0, initial=-1) + 1).sum() * npts
    assert sum((m + 1) * n for m, n in calls) == per_axis


def test_stacked_sweeps_stay_under_the_sweep_cap(monkeypatch):
    # a sweep that one axis alone pushes past the cap (4 values at degree 3) raises
    rng = np.random.default_rng(9)
    a = random_coefficients(rng, 6, 3)
    pts = rng.uniform(0.0, 10.0, size=(1, 6))
    monkeypatch.setattr(core, "MAX_SWEEP_VALUES", 3)
    with pytest.raises(DomainError, match="above the cap"):
        synthesize(a, pts)


@pytest.mark.parametrize("case,reach", [
    ("zero-above", (3, 7)),
    ("all-zero", (0, 0)),
    ("empty", (0, 0)),
    ("box-2000-3", (2000, 3)),
])
def test_terms_reach_is_the_per_axis_max_over_the_nonzero_records(monkeypatch, case, reach):
    # a stored zero, even above every term, raises no axis's reach; without terms
    # the reach is 0 on every axis and synthesis sweeps nothing
    a = {"zero-above": CoefficientField(2, "box", 50, {(3, 1): 1.0, (0, 7): -0.5, (50, 50): 0.0}),
         "all-zero": CoefficientField(2, "total", 6, {(2, 4): 0.0, (5, 0): 0.0}),
         "empty": CoefficientField(2, "total", 6, {}),
         "box-2000-3": CoefficientField(2, "box", 2000, {(2000, 0): 1.5, (0, 3): -0.7})}[case]
    nonzero = [n for n, v in a.entries.items() if v]
    assert reach == tuple(max((n[j] for n in nonzero), default=0) for j in range(2))
    assert a._terms[2] == reach and all(type(m) is int for m in a._terms[2])
    pts = np.random.default_rng(10).uniform(0.0, 30.0, size=(5, 2))
    calls = sweep_calls(monkeypatch)
    got = synthesize(a, pts)
    assert calls == ([(m, 5) for m in reach] if nonzero else [])
    if not nonzero:
        assert np.array_equal(got, np.zeros(5))


class TestSynthesize:
    def test_single_term(self):
        a = CoefficientField(1, "total", 0, {(0,): 1.0})
        assert synthesize(a, [[2.0]])[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_field(self):
        a = CoefficientField(2, "total", 3, {})
        assert np.all(synthesize(a, [[1.0, 2.0], [0.0, 0.0]]) == 0.0)

    def test_a_stored_zero_far_above_the_terms_is_not_swept(self):
        # the zero at 10^8 once asked for a sweep of 10^8 + 1 values, above the cap
        a = CoefficientField(1, "total", 10**8, {(2,): 1.0, (10**8,): 0.0})
        assert synthesize(a, [[1.0]])[0] == pytest.approx(-0.5 * math.exp(-0.5), rel=1e-15)  # l_2(1)

    def test_roundtrip_poly_exp(self, rule64):
        # f(x) = (1+x) e^{-x}
        f = separable_poly_exp_field([[1.0, 1.0]], [1.0])
        a = analyze(f, 30, rule64)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 12.0, size=(100, 1))
        vals = synthesize(a, pts)
        for x, v in zip(pts, vals):
            assert v == pytest.approx(f.evaluator(x), abs=1e-8)

    def test_idempotent_roundtrip_band_limited(self, rule64):
        rng = np.random.default_rng(7)
        entries = {n: rng.uniform(-1, 1) for n in index_tuples("total", 2, 8)}
        a = CoefficientField(2, "total", 8, entries)
        back = analyze(as_scalar_field(a), 8, rule64)
        for n in entries:
            assert back.get(n) == pytest.approx(a.get(n), abs=1e-10)

    def test_rejects_negative_point(self):
        a = CoefficientField(1, "total", 2, {(1,): 1.0})
        with pytest.raises(DomainError):
            synthesize(a, [[-1.0]])

    @pytest.mark.parametrize("points,shape", [(np.zeros((1, 1, 1)), "(1, 1, 1)"), ([[1.0, 2.0]], "(1, 2)"),
                                              ([1.0, 2.0], "(2,)")])
    def test_points_of_the_wrong_shape_name_it(self, points, shape):
        # a 3-D array was reported as "points have dimension 1, expected 1"
        a = CoefficientField(1, "total", 1, {(1,): 1.0})
        with pytest.raises(DomainError) as err:
            synthesize(a, points)
        assert str(err.value) == f"points must have shape (npts, 1) or (1,), got {shape}"

    @pytest.mark.parametrize("point", [[math.nan, 1.0], [2.0, math.inf], [-math.inf, 0.0]])
    def test_rejects_non_finite_point(self, point):
        a = CoefficientField(2, "total", 2, {(1, 1): 1.0})
        with pytest.raises(DomainError, match="finite"):
            synthesize(a, [[0.5, 0.5], point])


class TestParseval:
    def test_unit_coefficient(self):
        a = CoefficientField(2, "total", 7, {(3, 4): 1.0})
        assert parseval_l2_norm(a) == 1.0

    def test_geometric_series(self):
        entries = {(n,): geometric_coefficient(n) for n in range(41)}
        a = CoefficientField(1, "total", 40, entries)
        assert parseval_l2_norm(a) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero(self):
        assert parseval_l2_norm(CoefficientField(1, "total", 5, {})) == 0.0

    def test_matches_quadrature(self, rule64):
        from orthlag.quadrature import integrate_orthant

        f = exp_decay_field(1)
        a = analyze(f, 40, rule64)
        sq = integrate_orthant(lambda x: f.evaluator(x) ** 2, rule64, 1)
        assert abs(parseval_l2_norm(a) - math.sqrt(sq)) <= 1e-7


class TestCoefficientField:
    def test_rejects_out_of_bound_index(self):
        with pytest.raises(DomainError):
            CoefficientField(1, "total", 3, {(4,): 1.0})

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DomainError):
            CoefficientField(2, "total", 3, {(1,): 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value(self, value):
        with pytest.raises(DomainError, match="not finite"):
            CoefficientField(1, "total", 3, {(0,): 1.0, (2,): value})

    def test_index_graded_lex(self):
        a = CoefficientField(2, "total", 3, {(2, 0): 1.0, (0, 1): 2.0, (0, 0): 3.0})
        assert a.index.tolist() == [[0, 0], [0, 1], [2, 0]]
        assert a.values.tolist() == [3.0, 2.0, 1.0]
        assert a.orders.tolist() == [0, 1, 2]

    def test_shell_maxima(self):
        a = CoefficientField(2, "total", 2, {(1, 0): -3.0, (0, 1): 2.0, (2, 0): 0.5})
        assert a._shells[2].tolist() == [1, 2]
        assert _shell_log_norms(a, math.inf).tolist() == [math.log(3.0), math.log(0.5)]

    def test_orders_stay_within_int64(self):
        # a box index may reach dim * degree, which must stay below 2^63
        with pytest.raises(DomainError, match="2\\^63"):
            CoefficientField(2, "box", 2**62, {(2**62, 2**62): 1.0})
        with pytest.raises(DomainError, match="2\\^63"):
            CoefficientField(1, "total", 2**63, {})
        top = 2**63 - 1
        a = CoefficientField(2, "box", top // 2, {(top // 2, top // 2): 1.0})
        assert a.orders.tolist() == [top - 1]
        b = CoefficientField(2, "total", top, {(top, 0): 1.0, (1, top - 1): 2.0})
        assert b.orders.tolist() == [top, top]

    def test_equality_compares_the_terms(self):
        a = CoefficientField(2, "total", 3, {(1, 0): 1.0, (0, 2): -2.0})
        assert a == CoefficientField(2, "total", 3, {(0, 2): -2.0, (1, 0): 1.0})
        assert a == a.with_values(a.values)
        assert a != a.with_values([1.0, 2.0])
        assert a != CoefficientField(2, "total", 4, {(1, 0): 1.0, (0, 2): -2.0})
        assert a != CoefficientField(2, "box", 3, {(1, 0): 1.0, (0, 2): -2.0})
        assert a != CoefficientField(2, "total", 3, {(1, 0): 1.0})
        assert a != {(1, 0): 1.0, (0, 2): -2.0}
        assert repr(a) == "CoefficientField(dim=2, truncation_kind='total', degree=3, terms=2)"


@st.composite
def coefficient_mappings(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["total", "box"]))
    degree = draw(st.integers(0, 6))
    indices = index_tuples(kind, dim, degree)
    keys = draw(st.lists(st.sampled_from(indices), unique=True, max_size=len(indices)))
    values = st.floats(allow_nan=False, allow_infinity=False)
    return dim, kind, degree, {n: draw(values) for n in keys}


def reference_field_arrays(dim, kind, degree, entries):
    """The former per-entry constructor loop, kept as the reference: each key
    validated in mapping order, then the arrays sorted graded-lex and the
    values checked for finiteness.  Returns (index, values)."""
    if kind not in ("total", "box"):
        raise DomainError(f"truncation kind must be one of {('total', 'box')}")
    if dim < 1 or degree < 0:
        raise DomainError("dimension must be >= 1 and degree >= 0")
    if (degree if kind == "total" else degree * dim) >= 2**63:
        raise DomainError(f"{kind} degree {degree} in dimension {dim} allows |n| >= 2^63")
    reach = sum if kind == "total" else max
    rows = []
    for n in map(validate_multi_index, entries):
        if len(n) != dim:
            raise DomainError(f"index {n} has wrong dimension (expected {dim})")
        if reach(n) > degree:
            raise DomainError(f"index {n} violates {kind} bound {degree}")
        rows.append(n)
    index = np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    values = np.array(list(entries.values()), dtype=float)
    orders = index.sum(axis=1)
    order = np.lexsort((*index.T[::-1], orders))
    index, values = index[order], values[order]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        n, v = tuple(index[bad[0]].tolist()), float(values[bad[0]])
        raise DomainError(f"coefficient at index {n} is not finite: {v!r}")
    return index, values


def _outcome(build):
    try:
        return build()
    except DomainError as exc:
        return str(exc)


@st.composite
def mixed_key_mappings(draw):
    """Mappings whose keys mix ints, np.int64, integral floats, 2.5,
    negatives, wrong lengths, out-of-bound and 30-digit entries."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["total", "box"]))
    degree = draw(st.integers(0, 6))
    valid = st.one_of(st.integers(0, 8), st.integers(0, 8).map(np.int64), st.integers(0, 8).map(float))
    entry = st.one_of(valid, valid, valid,
                      st.sampled_from([2.5, -1, np.int64(-2), -3.0, 10**30, -(10**30), 2**63, 2**62]))
    key = st.integers(-1, 1).flatmap(lambda extra: st.tuples(*[entry] * max(dim + extra, 0)))
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf]))
    keys = draw(st.lists(key, max_size=8))
    return dim, kind, degree, {n: draw(value) for n in keys}


@given(mixed_key_mappings())
@example((1, "total", 6, {(2.5,): 1.0, (1,): 2.0}))  # a fraction within the bound
@example((2, "total", 6, {(2**62, 2**62): 1.0}))  # a row sum beyond int64
@example((2, "total", 6, {(np.int64(2**62), np.int64(2**62)): 1.0}))
@example((3, "box", 2**61, {(2**61, 2**61, 2**61): 1.0, (0, 2**61 + 1, 0): 2.0}))
@example((1, "total", 6, {(3,): math.nan, (1,): math.inf}))  # the first non-finite in graded-lex order
@settings(max_examples=500, deadline=None)
def test_array_path_matches_the_per_entry_loop(case):
    dim, kind, degree, mapping = case
    want = _outcome(lambda: reference_field_arrays(dim, kind, degree, mapping))
    rows, values = list(mapping), list(mapping.values())
    for build in (lambda: CoefficientField(dim, kind, degree, mapping),
                  lambda: CoefficientField._from_arrays(dim, kind, degree, rows, values)):
        got = _outcome(build)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got.index, want[0]) and np.array_equal(got.values, want[1])
            assert got.index.dtype == np.int64


class TestArrayContainer:
    @given(coefficient_mappings())
    @settings(max_examples=150, deadline=None)
    def test_arrays_hold_the_mapping_in_graded_lex_order(self, case):
        dim, kind, degree, mapping = case
        a = CoefficientField(dim, kind, degree, mapping)
        rows = [tuple(n) for n in a.index.tolist()]
        assert rows == sorted(mapping, key=graded_lex_key)  # sorted, and unique as mapping keys are
        assert a.index.dtype == np.int64 and a.index.shape == (len(mapping), dim)
        assert a.values.dtype == np.float64
        assert np.array_equal(a.orders, a.index.sum(axis=1))
        assert dict(a.entries) == mapping
        for arr in (a.index, a.values, a.orders):
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(TypeError):
            a.entries[(0,) * dim] = 1.0

    def test_with_values_keeps_the_indices(self):
        a = CoefficientField(2, "box", 2, {(2, 2): 1.0, (0, 1): 2.0})
        b = a.with_values([5.0, -6.0])
        assert b.index is a.index and dict(b.entries) == {(0, 1): 5.0, (2, 2): -6.0}
        assert dict(a.entries) == {(0, 1): 2.0, (2, 2): 1.0}
        with pytest.raises(DomainError, match="not finite"):
            a.with_values([1.0, math.nan])
        with pytest.raises(DomainError):
            a.with_values([1.0])

    def test_cached_shell_and_log_arrays(self):
        a = CoefficientField(2, "total", 3, {(1, 2): -2.0, (0, 0): 0.5, (3, 0): 0.0, (0, 1): 4.0, (2, 0): -0.0})
        assert a.orders.tolist() == [0, 1, 2, 3, 3]
        terms, shell_of, shells = a._shells  # the stored zeros at |n| = 2 and 3 are in no shell
        assert terms.tolist() == [0, 1, 3] and shell_of.tolist() == [0, 1, 2] and shells.tolist() == [0, 1, 3]
        assert a._shells is a._shells  # built once
        for arr in (terms, shell_of, shells):
            with pytest.raises(ValueError):
                arr[...] = 0
        # one-term shells: each shell's log norm is math.log|a_n| for every p
        for p in (1, 2, math.inf):
            assert _shell_log_norms(a, p).tolist() == [math.log(0.5), math.log(4.0), math.log(2.0)]

    def test_fields_made_from_a_field_build_their_own_table(self):
        from orthlag.operators import apply_E_spectral, semigroup_propagate

        a = CoefficientField(2, "total", 3, {(1, 2): -2.0, (0, 0): 0.5, (3, 0): 0.0, (0, 1): 4.0})
        a._shells  # build the table
        derived = (a.with_values([0.0, 3.0, 1e-300, -7.0]), apply_E_spectral(a, 2),
                   semigroup_propagate(a, 0.5), semigroup_propagate(a, 800.0))
        for b in derived:
            assert "_shells" not in vars(b)
            terms, shell_of, shells = b._shells
            assert terms.tolist() == [i for i, v in enumerate(b.values.tolist()) if v != 0.0]
            maxima = [max(abs(b.values[terms[shell_of == k]])) for k in range(shells.size)]
            assert _shell_log_norms(b, math.inf).tolist() == [math.log(v) for v in maxima]
            assert shells[shell_of].tolist() == b.orders[terms].tolist()
            assert shells.tolist() == sorted(set(b.orders[terms].tolist()))
        assert derived[0]._shells[0].tolist() == [1, 2, 3]  # a new zero leaves the table
        assert derived[3]._shells[0].tolist() == [0]  # e^{-800 |n|} a_n underflows past |n| = 0


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        a = CoefficientField(2, "total", 4, {(0, 0): 1.5, (1, 2): -0.25, (4, 0): 1e-17})
        path = tmp_path / "c.txt"
        write_coefficients(a, path)
        b = read_coefficients(path)
        assert b.dim == 2 and b.truncation_kind == "total" and b.degree == 4
        assert b.entries == a.entries

    def test_byte_identical_rewrites(self, tmp_path):
        a = CoefficientField(1, "total", 6, {(n,): math.sin(n + 1) for n in range(7)})
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_coefficients(a, p1)
        write_coefficients(read_coefficients(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_order(self, tmp_path):
        a = CoefficientField(2, "total", 2, {(1, 1): 2.0, (0, 0): 1.0})
        path = tmp_path / "c.txt"
        write_coefficients(a, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dim: 2"
        assert lines[1] == "truncation_kind: total"
        assert lines[2] == "truncation_degree: 2"
        assert lines[3].startswith("0,0,")
        assert lines[4].startswith("1,1,")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim: 1\n0,1.0\n")
        with pytest.raises(DomainError):
            read_coefficients(path)

    def test_box_orders_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"dim: 2\ntruncation_kind: box\ntruncation_degree: {2**62}\n"
                        f"{2**62},{2**62},1.0\n")
        with pytest.raises(DomainError, match="2\\^63"):
            read_coefficients(path)

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("dim: 2\ntruncation_kind: total\ntruncation_degree: 2\n"
                        "0,1,1.0\n1,0,2.0\n0,1,3.0\n")
        with pytest.raises(DomainError, match=r"duplicate record for index \(0, 1\)"):
            read_coefficients(path)
