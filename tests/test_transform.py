import math
import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthlag.core import (
    DomainError,
    graded_lex_key,
    laguerre_fn_derivative_sweep,
    laguerre_fn_sweep,
    total_degree_indices,
    truncation_indices,
)
from orthlag.fields import exp_decay_field, laguerre_field, separable_poly_exp_field
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
        for n in total_degree_indices(2, 12):
            expected = (2.0 / 3.0) ** 2 * (1.0 / 3.0) ** sum(n)
            assert a.get(n) == pytest.approx(expected, abs=1e-9)

    def test_exp_decay_3d_streaming_path(self):
        rule = gauss_laguerre_rule(20)
        a = analyze(exp_decay_field(3), 3, rule)
        for n in total_degree_indices(3, 3):
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


def reference_analyze(f, degree, rule, kind="total"):
    """The former d >= 3 transform, kept as the reference: stream the node
    grid and add w(x) f(x) l_n(x) for every n with math.fsum."""
    d = f.dim
    nodes, wmod = rule.nodes, rule.modified_weights
    V = laguerre_fn_sweep(degree, nodes)
    indices = list(truncation_indices(kind, d, degree))
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
    entries = {n: rng.uniform(-1, 1) for n in truncation_indices(kind, dim, degree)}
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


@pytest.mark.parametrize("case", sorted(SYNTH_CASES))
def test_deriv_matches_the_per_term_reference(case):
    rng = np.random.default_rng(100 + sorted(SYNTH_CASES).index(case))
    a = SYNTH_CASES[case](rng)
    deriv = as_scalar_field(a).deriv
    for x in rng.uniform(0.0, 20.0, size=(20, a.dim)):
        want = np.array(reference_deriv(a, x))
        got = np.array(deriv(x))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


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


class TestSynthesize:
    def test_single_term(self):
        a = CoefficientField(1, "total", 0, {(0,): 1.0})
        assert synthesize(a, [[2.0]])[0] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_field(self):
        a = CoefficientField(2, "total", 3, {})
        assert np.all(synthesize(a, [[1.0, 2.0], [0.0, 0.0]]) == 0.0)

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
        entries = {n: rng.uniform(-1, 1) for n in total_degree_indices(2, 8)}
        a = CoefficientField(2, "total", 8, entries)
        back = analyze(as_scalar_field(a), 8, rule64)
        for n in entries:
            assert back.get(n) == pytest.approx(a.get(n), abs=1e-10)

    def test_rejects_negative_point(self):
        a = CoefficientField(1, "total", 2, {(1,): 1.0})
        with pytest.raises(DomainError):
            synthesize(a, [[-1.0]])

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
        shells, maxima = a.shell_maxima()
        assert shells.tolist() == [1, 2] and maxima.tolist() == [3.0, 0.5]

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
    indices = list(truncation_indices(kind, dim, degree))
    keys = draw(st.lists(st.sampled_from(indices), unique=True, max_size=len(indices)))
    values = st.floats(allow_nan=False, allow_infinity=False)
    return dim, kind, degree, {n: draw(values) for n in keys}


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
