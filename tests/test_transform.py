import math
from itertools import product

import mpmath
import numpy as np
import pytest

from orthlag.core import DomainError, laguerre_fn_sweep, total_degree_indices, truncation_indices
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

    def test_stored_indices_graded_lex(self):
        a = CoefficientField(2, "total", 3, {(2, 0): 1.0, (0, 1): 2.0, (0, 0): 3.0})
        assert a.stored_indices() == [(0, 0), (0, 1), (2, 0)]

    def test_shell_maxima(self):
        a = CoefficientField(2, "total", 2, {(1, 0): -3.0, (0, 1): 2.0, (2, 0): 0.5})
        assert a.shell_maxima() == {1: 3.0, 2: 0.5}


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

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("dim: 2\ntruncation_kind: total\ntruncation_degree: 2\n"
                        "0,1,1.0\n1,0,2.0\n0,1,3.0\n")
        with pytest.raises(DomainError, match=r"duplicate record for index \(0, 1\)"):
            read_coefficients(path)
