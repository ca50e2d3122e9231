import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthlag import fields
from orthlag.analysis import MAX_ETA_POWERS, MAX_ETA_WORK
from orthlag.cli import build_parser, main
from orthlag.core import DomainError
from orthlag.transform import read_coefficients, write_coefficients
from orthlag.transform import CoefficientField, synthesize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def geometric_coefficient(n: int) -> float:
    return (2.0 / 3.0) * (1.0 / 3.0) ** n


UNIT_400 = "dim: 1\ntruncation_kind: total\ntruncation_degree: 400\n400,1.0\n"


class TestQuad:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(capsys, "quad", "--nodes", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,weight,log_modified_weight"
        assert len(lines) == 5
        nodes = [float(line.split(",")[0]) for line in lines[1:]]
        assert nodes == sorted(nodes)

    def test_weights_sum_to_one(self, capsys):
        code, out, _ = run(capsys, "quad", "--nodes", "16")
        weights = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-13)

    def test_write_to_file(self, tmp_path, capsys):
        path = tmp_path / "rule.csv"
        code, out, _ = run(capsys, "quad", "--nodes", "8", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("node,weight,log_modified_weight")


class TestAnalyze:
    def test_exp_decay_matches_closed_form(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        code, _, _ = run(
            capsys, "analyze", "--fn", "exp-decay", "--degree", "20",
            "--nodes", "64", "--out", str(path),
        )
        assert code == 0
        a = read_coefficients(path)
        for n in range(21):
            assert a.get((n,)) == pytest.approx(geometric_coefficient(n), abs=1e-10)

    def test_laguerre_index_field(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        code, _, _ = run(
            capsys, "analyze", "--fn", "l:3", "--degree", "8", "--out", str(path),
        )
        assert code == 0
        a = read_coefficients(path)
        assert a.get((3,)) == pytest.approx(1.0, abs=1e-10)
        assert a.get((2,)) == pytest.approx(0.0, abs=1e-10)

    def test_undersized_rule_is_domain_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--fn", "exp-decay", "--degree", "20",
            "--nodes", "4", "--out", str(tmp_path / "a.txt"),
        )
        assert code == 2
        assert "domain error" in err

    def test_undersized_rule_has_one_check(self, tmp_path, capsys):
        # the library's check is the only one, and its message names the bound
        code, _, err = run(
            capsys, "analyze", "--fn", "exp-decay", "--degree", "20",
            "--nodes", "10", "--out", str(tmp_path / "a.txt"),
        )
        assert code == 2 and err.count("\n") == 1 and ">= 21" in err
        assert not (tmp_path / "a.txt").exists()

    def test_coefficient_file_dimension_must_match_dim(self, tmp_path, capsys):
        coeffs = tmp_path / "a.txt"
        run(capsys, "analyze", "--fn", "exp-decay", "--dim", "2", "--degree", "3",
            "--out", str(coeffs))
        argv = ["analyze", "--coeffs", str(coeffs), "--degree", "3", "--out", str(tmp_path / "b.txt")]
        code, _, err = run(capsys, *argv, "--dim", "3")
        assert code == 2 and err.count("\n") == 1 and "--dim 3" in err
        assert not (tmp_path / "b.txt").exists()
        for dim_flag in ([], ["--dim", "2"]):
            code, _, err = run(capsys, *argv, *dim_flag)
            assert code == 0 and err == ""
            assert read_coefficients(tmp_path / "b.txt").dim == 2

    @pytest.mark.parametrize("degree", [23, 400])
    def test_laguerre_field_at_its_largest_index(self, tmp_path, capsys, degree):
        path = tmp_path / "a.txt"
        code, _, err = run(capsys, "analyze", "--fn", "l:23", "--degree", str(degree), "--out", str(path))
        assert code == 0 and err == ""
        want = np.zeros(degree + 1)
        want[23] = 1.0
        assert np.max(np.abs(read_coefficients(path).values - want)) <= 1e-6

    def test_laguerre_field_beyond_its_largest_index_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        code, _, err = run(capsys, "analyze", "--fn", "l:2,24", "--degree", "30", "--out", str(path))
        assert code == 2 and err.count("\n") == 1 and "<= 23" in err
        assert not path.exists()

    def test_laguerre_field_dimension_comes_from_its_index(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        argv = ["analyze", "--fn", "l:3,4", "--degree", "8", "--out", str(path)]
        for dim_flag in (["--dim", "1"], ["--dim", "3"]):
            code, _, err = run(capsys, *argv, *dim_flag)
            assert code == 2 and err.count("\n") == 1 and "does not match dimension" in err
            assert not path.exists()
        for dim_flag in ([], ["--dim", "2"]):
            code, _, err = run(capsys, *argv, *dim_flag)
            assert code == 0 and err == ""
            a = read_coefficients(path)
            assert a.dim == 2 and a.get((3, 4)) == pytest.approx(1.0, abs=1e-10)

    def test_coefficients_with_rule_nodes_beyond_the_damped_range(self, tmp_path, capsys):
        # the 416-node rule of degree 400 has 10 nodes beyond x ~ 1416.8, where
        # e^{-x/2} is subnormal; with the damped start alone a_400 read 0.834
        src, out = tmp_path / "unit.txt", tmp_path / "a.txt"
        src.write_text(UNIT_400)
        code, _, err = run(capsys, "analyze", "--coeffs", str(src), "--degree", "400", "--out", str(out))
        assert code == 0 and err == ""
        want = np.zeros(401)
        want[400] = 1.0
        assert np.max(np.abs(read_coefficients(out).values - want)) <= 1e-12

    def test_deterministic_across_runs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
        for path in (p1, p2):
            run(capsys, "analyze", "--fn", "exp-decay", "--dim", "2",
                "--degree", "8", "--out", str(path))
        assert p1.read_bytes() == p2.read_bytes()


class TestInputSizedAllocations:
    """Inputs whose arrays would outgrow memory end in one line and exit 2,
    before anything is allocated."""

    HUGE_INDEX = "dim: 1\ntruncation_kind: total\ntruncation_degree: 3000000000\n3000000000,1.0\n"

    def test_synthesize_at_a_huge_index(self, tmp_path, capsys):
        src, pts = tmp_path / "a.txt", tmp_path / "pts.csv"
        src.write_text(self.HUGE_INDEX)
        pts.write_text("1.0\n")
        code, out, err = run(capsys, "synthesize", "--in", str(src), "--points", str(pts),
                             "--out", str(tmp_path / "v.csv"))
        assert code == 2 and out == "" and err.count("\n") == 1 and "above the cap" in err
        assert not (tmp_path / "v.csv").exists()

    def test_analyze_coeffs_at_a_huge_index(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text(self.HUGE_INDEX)
        code, out, err = run(capsys, "analyze", "--coeffs", str(src), "--degree", "3",
                             "--out", str(tmp_path / "b.txt"))
        assert code == 2 and out == "" and err.count("\n") == 1 and "above the cap" in err
        assert not (tmp_path / "b.txt").exists()

    def test_analyze_grid_beyond_the_cap(self, tmp_path, capsys):
        # 26^8 nodes, a 1.52 TiB grid
        code, out, err = run(capsys, "analyze", "--fn", "exp-decay", "--dim", "8", "--degree", "10",
                             "--out", str(tmp_path / "a.txt"))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"grid of {26 ** 8} points, above the cap" in err
        assert not (tmp_path / "a.txt").exists()

    @pytest.mark.parametrize("dim", [1000, 100000, 3000000])
    def test_analyze_at_a_huge_dimension(self, tmp_path, capsys, monkeypatch, dim):
        # 17^dim is not formed: past 24 axes of 2+ nodes the grid is past the cap,
        # decided before the field (one table per axis) is built
        def no_field(*args):
            raise AssertionError("the field was built")

        monkeypatch.setattr(fields, "separable_poly_exp_field", no_field)
        code, out, err = run(capsys, "analyze", "--fn", "exp-decay", "--dim", str(dim), "--degree", "1",
                             "--out", str(tmp_path / "a.txt"))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"grid of 17^{dim} points, above the cap" in err
        assert not (tmp_path / "a.txt").exists()

    def test_eta_on_a_file_of_zero_records(self, tmp_path, capsys):
        # 10^4 stored zeros and one term: an iterate window is 2048 rows of the one
        # shell that holds a nonzero term, not of every stored shell (160 MB)
        src = tmp_path / "a.txt"
        zeros = "".join(f"{n},0.0\n" for n in range(2, 10002))
        src.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 10001\n1,1.0\n" + zeros)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "eta", "--in", str(src), "--alpha", "1", "--h", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == "" and "log_value: 0.0\n" in out
        assert peak < 16 * 2**20, peak


class TestAnalyzeCoeffsExactness:
    """A K-node rule reprojects a coefficient file exactly only while
    max n_j + degree <= 2K - 1, n over the nonzero terms; past that,
    analyze --coeffs is a domain error."""

    ALIASING = "dim: 1\ntruncation_kind: total\ntruncation_degree: 400\n400,1.0\n"

    def test_a_rule_that_would_alias_is_refused(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text(self.ALIASING)
        for nodes in ([], ["--nodes", "205"]):
            code, out, err = run(capsys, "analyze", "--coeffs", str(src), "--degree", "10",
                                 "--out", str(tmp_path / "b.txt"), *nodes)
            assert code == 2 and out == "" and err.count("\n") == 1
            assert "at least 206 nodes" in err and "cap" not in err
            assert not (tmp_path / "b.txt").exists()

    def test_the_smallest_exact_rule_projects_to_zero(self, tmp_path, capsys):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        src.write_text(self.ALIASING)
        code, _, err = run(capsys, "analyze", "--coeffs", str(src), "--degree", "10", "--nodes", "206",
                           "--out", str(dst))
        assert code == 0 and err == ""
        b = read_coefficients(dst)
        assert b.values.size == 11 and np.max(np.abs(b.values)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 2), kind=st.sampled_from(["total", "box"]), degree=st.integers(0, 12),
           nodes=st.one_of(st.none(), st.integers(1, 40)),
           terms=st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                                 st.floats(-1.0, 1.0), min_size=1, max_size=6))
    @example(dim=2, kind="total", degree=0, nodes=None, terms={(0, 32): 0.0})  # a stored zero is no term
    def test_whenever_the_guard_passes_the_output_is_the_restriction(self, dim, kind, degree, nodes, terms):
        entries = {n[:dim]: v for n, v in terms.items()}
        a = CoefficientField(dim, "total", max(sum(n) for n in entries), entries)
        top = max((max(n) for n, v in entries.items() if v), default=0)
        with tempfile.TemporaryDirectory() as tmp:
            src, dst = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            write_coefficients(a, src)
            argv = ["analyze", "--coeffs", str(src), "--degree", str(degree), "--truncation", kind,
                    "--out", str(dst)] + ([] if nodes is None else ["--nodes", str(nodes)])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            K = degree + 16 if nodes is None else nodes
            if K < degree + 1:
                assert code == 2 and "too small" in err.getvalue()
            elif top + degree > 2 * K - 1:
                assert code == 2 and f"at least {(top + degree + 2) // 2} nodes" in err.getvalue()
            else:
                assert code == 0
                b = read_coefficients(dst)
                want = np.array([a.get(n) for n in b.index.tolist()])
                scale = max(np.max(np.abs(a.values)), 1e-300)
                assert np.max(np.abs(b.values - want)) <= 1e-12 * scale

    def test_a_propagated_file_reprojects_its_terms(self, tmp_path, capsys):
        # e^{-50 m} / (1+m)^2 leaves m = 0..14; the 386 records m,0.0 above them
        # once made the 26-node rule "alias" as if max n_j were 400
        src, prop, dst = tmp_path / "a.txt", tmp_path / "p.txt", tmp_path / "b.txt"
        src.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 400\n"
                       + "".join(f"{m},{1.0 / (1 + m) ** 2!r}\n" for m in range(401)))
        assert run(capsys, "propagate", "--time", "50", "--in", str(src), "--out", str(prop))[0] == 0
        a = read_coefficients(prop)
        assert np.count_nonzero(a.values) == 15
        code, _, err = run(capsys, "analyze", "--coeffs", str(prop), "--degree", "10", "--out", str(dst))
        assert code == 0 and err == ""
        b = read_coefficients(dst)
        want = a.values[:11]
        assert np.max(np.abs(b.values - want)) <= 1e-14 * np.max(np.abs(want))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 2), degree=st.integers(0, 12), nodes=st.one_of(st.none(), st.integers(1, 40)),
           terms=st.dictionaries(st.tuples(st.integers(0, 20), st.integers(0, 20)), st.floats(0.1, 1.0),
                                 max_size=4),
           zeros=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=4))
    def test_zero_records_change_no_exit_code_or_file(self, dim, degree, nodes, terms, zeros):
        terms = {n[:dim]: v for n, v in terms.items()}
        records = {**{n[:dim]: 0.0 for n in zeros}, **terms}
        top = max(sum(n) for n in records)
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            for entries in (records, terms):
                src, dst = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
                dst.unlink(missing_ok=True)
                write_coefficients(CoefficientField(dim, "total", top, entries), src)
                argv = ["analyze", "--coeffs", str(src), "--degree", str(degree), "--out", str(dst)]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(argv + ([] if nodes is None else ["--nodes", str(nodes)]))
                outcomes.append((code, err.getvalue(), dst.read_bytes() if dst.exists() else None))
        assert outcomes[0] == outcomes[1]


class TestSynthesize:
    def test_roundtrip_values(self, tmp_path, capsys):
        coeffs = tmp_path / "a.txt"
        run(capsys, "analyze", "--fn", "exp-decay", "--degree", "30",
            "--nodes", "64", "--out", str(coeffs))
        pts = tmp_path / "pts.csv"
        xs = [0.0, 0.5, 2.0, 7.5]
        pts.write_text("\n".join(repr(x) for x in xs) + "\n")
        out = tmp_path / "vals.csv"
        code, _, _ = run(capsys, "synthesize", "--in", str(coeffs),
                         "--points", str(pts), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,value"
        for line, x in zip(lines[1:], xs):
            val = float(line.split(",")[1])
            assert val == pytest.approx(math.exp(-x), abs=1e-8)

    def test_values_beyond_the_damped_range(self, tmp_path, capsys):
        # l_400 at 1500 and 1550, where the damped start alone printed 0.0
        src, pts, out = tmp_path / "unit.txt", tmp_path / "pts.csv", tmp_path / "v.csv"
        src.write_text(UNIT_400)
        pts.write_text("1500\n1550\n")
        code, _, err = run(capsys, "synthesize", "--in", str(src), "--points", str(pts), "--out", str(out))
        assert code == 0 and err == ""
        values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        np.testing.assert_allclose(values, [-0.004093266747983549, -0.03308315232315771], rtol=1e-12, atol=0)

    def test_dimension_mismatch_is_domain_error(self, tmp_path, capsys):
        coeffs = tmp_path / "a.txt"
        run(capsys, "analyze", "--fn", "exp-decay", "--dim", "2",
            "--degree", "5", "--out", str(coeffs))
        pts = tmp_path / "pts.csv"
        pts.write_text("1.0\n2.0\n")
        code, _, _ = run(capsys, "synthesize", "--in", str(coeffs),
                         "--points", str(pts), "--out", str(tmp_path / "v.csv"))
        assert code == 2

    @pytest.mark.parametrize("row", ["nan,1.0", "2.0,inf", "1e999,0.5", ""])
    def test_non_finite_or_missing_points_are_domain_errors(self, tmp_path, capsys, row):
        coeffs = tmp_path / "a.txt"
        write_coefficients(CoefficientField(2, "total", 2, {(0, 0): 1.0, (1, 1): -0.5}), coeffs)
        pts = tmp_path / "pts.csv"
        pts.write_text(("0.5,0.5\n" if row else "") + row + "\n")
        code, out, err = run(capsys, "synthesize", "--in", str(coeffs),
                             "--points", str(pts), "--out", str(tmp_path / "v.csv"))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and ("finite" in err or "no points" in err)
        assert not (tmp_path / "v.csv").exists()

    def test_series_that_overflows_is_a_domain_error(self, tmp_path, capfd):
        # every l_n(0) is 1, so the sum at 0 is 1e308 + 1e308 - 1e308 - 1e308 = nan;
        # at 0.5 it stays finite
        src, pts, out = tmp_path / "a.txt", tmp_path / "pts.csv", tmp_path / "v.csv"
        src.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 3\n"
                       "0,1e308\n1,1e308\n2,-1e308\n3,-1e308\n")
        pts.write_text("0.5\n0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capfd, "synthesize", "--in", str(src), "--points", str(pts), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "orthlag: domain error: non-finite series value nan at point (0.0,)\n"
        assert not out.exists()


def former_synthesize_rows(pts, vals):
    """The former per-element formatting of `synthesize` rows, kept as the reference."""
    return [",".join(repr(float(c)) for c in row) + "," + repr(float(v)) for row, v in zip(pts, vals)]


def test_synthesize_rows_match_the_former_formatting(tmp_path, capsys):
    a = CoefficientField(2, "total", 3, {(0, 0): 1.0, (1, 2): -0.5, (3, 0): 0.25, (2, 0): 1e-310})
    coeffs, pts_path, out = tmp_path / "a.txt", tmp_path / "pts.csv", tmp_path / "v.csv"
    write_coefficients(a, coeffs)
    pts = np.random.default_rng(11).exponential(4.0, size=(300, 2))
    pts[:4] = [[-0.0, 1.0], [5e-324, 2.5e-310], [1e300, 0.0], [0.1, 1e-5]]
    pts_path.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    code, _, err = run(capsys, "synthesize", "--in", str(coeffs), "--points", str(pts_path),
                       "--out", str(out))
    assert code == 0 and err == ""
    pts = np.loadtxt(pts_path, delimiter=",", ndmin=2)
    want = "\n".join(["x1,x2,value", *former_synthesize_rows(pts, synthesize(a, pts))]) + "\n"
    assert out.read_bytes() == want.encode()
    assert "-0.0,1.0," in want and "5e-324,2.5e-310," in want and "1e+300,0.0," in want


class TestOperatorAndPropagate:
    def make_unit(self, tmp_path, n=(2, 3)):
        a = CoefficientField(len(n), "total", sum(n), {tuple(n): 1.0})
        path = tmp_path / "unit.txt"
        write_coefficients(a, path)
        return path

    def test_apply_scales_by_order(self, tmp_path, capsys):
        src = self.make_unit(tmp_path)
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, "operator", "apply", "--power", "1",
                         "--in", str(src), "--out", str(out))
        assert code == 0
        assert read_coefficients(out).get((2, 3)) == 5.0

    def test_propagate_halves_at_log2_over_order(self, tmp_path, capsys):
        src = self.make_unit(tmp_path, n=(1,))
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, "propagate", "--time", repr(math.log(2.0)),
                         "--in", str(src), "--out", str(out))
        assert code == 0
        assert read_coefficients(out).get((1,)) == pytest.approx(0.5, rel=1e-15)

    def test_negative_time_is_domain_error(self, tmp_path, capsys):
        src = self.make_unit(tmp_path, n=(1,))
        code, _, _ = run(capsys, "propagate", "--time", "-1.0",
                         "--in", str(src), "--out", str(tmp_path / "o.txt"))
        assert code == 2

    def test_box_order_beyond_int64_is_domain_error(self, tmp_path, capsys):
        # |n| = 2^63 would wrap to a negative int64 order
        src = tmp_path / "huge.txt"
        src.write_text(f"dim: 2\ntruncation_kind: box\ntruncation_degree: {2**62}\n"
                       f"{2**62},{2**62},1.0\n")
        out = tmp_path / "o.txt"
        code, _, err = run(capsys, "operator", "apply", "--power", "1",
                           "--in", str(src), "--out", str(out))
        assert code == 2 and "2^63" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_a_stored_zero_where_the_power_overflows_is_written_back(self, tmp_path, capsys):
        # 30^300 overflows; the record 30,0.0 is not a term, so it was once scaled to nan (exit 2)
        src, out = tmp_path / "a.txt", tmp_path / "o.txt"
        src.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 30\n2,1.0\n30,0.0\n")
        code, stdout, err = run(capsys, "operator", "apply", "--power", "300",
                                "--in", str(src), "--out", str(out))
        assert code == 0 and err == ""
        assert out.read_text() == ("dim: 1\ntruncation_kind: total\ntruncation_degree: 30\n"
                                   "2,2.037035976334486e+90\n30,0.0\n")

    def test_a_power_past_binary64_with_a_product_inside_it(self, tmp_path, capsys):
        # 1000^200 overflows, 1000^200 * 1e-300 does not: once "is not finite: inf", exit 2
        src, out = tmp_path / "a.txt", tmp_path / "o.txt"
        src.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 1000\n1000,1e-300\n")
        code, _, err = run(capsys, "operator", "apply", "--power", "200",
                           "--in", str(src), "--out", str(out))
        assert code == 0 and err == ""
        assert out.read_text().splitlines()[-1] == "1000,1e+300"

    def test_a_decay_below_binary64_with_a_product_inside_it(self, tmp_path, capsys):
        # e^{-800} underflows to 0, 1e300 e^{-800} does not: once written as 100,0.0
        src, out = tmp_path / "a.txt", tmp_path / "o.txt"
        src.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 100\n100,1e300\n")
        code, _, err = run(capsys, "propagate", "--time", "8", "--in", str(src), "--out", str(out))
        assert code == 0 and err == ""
        assert read_coefficients(out).get((100,)) == pytest.approx(3.6678745841776e-48, rel=1e-12, abs=0.0)


class TestNormsEtaClassify:
    def write_geometric(self, tmp_path, degree=40):
        entries = {(n,): geometric_coefficient(n) for n in range(degree + 1)}
        a = CoefficientField(1, "total", degree, entries)
        path = tmp_path / "geo.txt"
        write_coefficients(a, path)
        return path

    def test_norms_output(self, tmp_path, capsys):
        a = CoefficientField(1, "total", 5, {(5,): 1.0})
        path = tmp_path / "unit.txt"
        write_coefficients(a, path)
        code, out, _ = run(capsys, "norms", "--in", str(path),
                           "--alpha", "1.0", "--h", "2.0", "--p", "2")
        assert code == 0
        val = float(out.splitlines()[-1].split(": ")[1])
        assert val == pytest.approx(math.exp(2.0 * math.sqrt(5.0)), rel=1e-13)

    def test_norms_prints_the_log_next_to_the_value(self, tmp_path, capsys):
        path = self.write_geometric(tmp_path)
        code, out, _ = run(capsys, "norms", "--in", str(path),
                           "--alpha", "1.0", "--h", "1.0", "--p", "2")
        fields = dict(line.split(": ") for line in out.splitlines())
        assert code == 0
        assert float(fields["log_norm"]) == pytest.approx(math.log(float(fields["norm"])), rel=1e-14)

    @pytest.mark.parametrize("p", ["1", "2", "inf"])
    def test_norms_beyond_binary64_print_inf(self, tmp_path, capsys, p):
        a = CoefficientField(1, "total", 1, {(0,): 1e308, (1,): 1e308})
        path = tmp_path / "big.txt"
        write_coefficients(a, path)
        code, out, err = run(capsys, "norms", "--in", str(path),
                             "--alpha", "1.0", "--h", "1.0", "--p", p)
        fields = dict(line.split(": ") for line in out.splitlines())
        assert code == 0 and err == ""
        assert fields["norm"] == "inf"
        # log of (1e308^p + (1e308 e)^p)^(1/p)
        expected = math.log(1e308) + {"1": math.log1p(math.e),
                                      "2": 0.5 * math.log1p(math.e ** 2), "inf": 1.0}[p]
        assert float(fields["log_norm"]) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("alpha", ["1e-5", "1e-300"])
    def test_norms_with_tiny_alpha_is_a_domain_error(self, tmp_path, capsys, alpha):
        # the weight's log is beyond binary64, so no log form holds the norm
        path = self.write_geometric(tmp_path, degree=3)
        code, out, err = run(capsys, "norms", "--in", str(path),
                             "--alpha", alpha, "--h", "1.0", "--p", "1")
        assert code == 2 and out == "" and err.count("\n") == 1 and "beyond binary64" in err

    def test_eta_beyond_binary64_prints_inf(self, tmp_path, capsys):
        path = self.write_geometric(tmp_path, degree=3)
        code, out, err = run(capsys, "eta", "--in", str(path), "--alpha", "0.1", "--h", "1e-9")
        fields = dict(line.split(": ") for line in out.splitlines())
        assert code == 0 and err == ""
        assert fields["value"] == "inf" and fields["argmax_N"] == "60"
        assert 700.0 < float(fields["log_value"]) < math.inf

    def test_norms_rejects_p_below_one(self, tmp_path, capsys):
        path = self.write_geometric(tmp_path)
        code, _, _ = run(capsys, "norms", "--in", str(path),
                         "--alpha", "1.0", "--h", "1.0", "--p", "0.5")
        assert code == 2

    @pytest.mark.parametrize("text", [" Infinity ", "INF", "inf", "oo"])
    def test_norms_index_is_a_float(self, tmp_path, capsys, text):
        path = self.write_geometric(tmp_path)
        code, out, err = run(capsys, "norms", "--in", str(path), "--alpha", "1.0", "--h", "1.0", "--p", text)
        if text == "oo":  # not a float: a usage error
            assert code == 1 and out == "" and err.count("\n") == 1
        else:
            _, want, _ = run(capsys, "norms", "--in", str(path), "--alpha", "1.0", "--h", "1.0", "--p", "inf")
            assert code == 0 and out == want.replace("p: inf", f"p: {text}")

    @pytest.mark.parametrize("p", ["1e303", "1e308", "1.7976931348623157e308"])
    def test_norms_at_a_huge_index_keep_a_finite_log(self, tmp_path, capsys, p):
        # p * log overflows before the log-sum-exp; the shifted sum keeps the log
        a = CoefficientField(1, "total", 3, {(0,): 1.0, (3,): 0.5})
        path = tmp_path / "a.txt"
        write_coefficients(a, path)
        args = ("norms", "--in", str(path), "--alpha", "1.0", "--h", "1e7", "--p")
        code, out, err = run(capsys, *args, p)
        _, at_inf, _ = run(capsys, *args, "inf")
        fields, sup = (dict(line.split(": ") for line in text.splitlines()) for text in (out, at_inf))
        assert code == 0 and err == "" and fields["norm"] == "inf"
        assert float(fields["log_norm"]) == pytest.approx(17320507.38254159, rel=1e-15)
        assert float(fields["log_norm"]) == pytest.approx(float(sup["log_norm"]), rel=1e-15)

    def test_eta_output(self, tmp_path, capsys):
        a = CoefficientField(1, "total", 3, {(3,): 1.0})
        path = tmp_path / "e.txt"
        write_coefficients(a, path)
        code, out, _ = run(capsys, "eta", "--in", str(path),
                           "--alpha", "1.0", "--h", "1.0")
        assert code == 0
        fields = dict(line.split(": ") for line in out.splitlines())
        assert float(fields["value"]) == pytest.approx(4.5, rel=1e-12)
        assert fields["still_growing"] == "False"
        assert float(fields["log_value"]) == pytest.approx(math.log(4.5), rel=1e-12)

    def test_classify_geometric_is_member(self, tmp_path, capsys):
        path = self.write_geometric(tmp_path, degree=120)
        code, out, _ = run(capsys, "classify", "--in", str(path), "--alpha", "1.0")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        assert fields["verdict"] in ("roumieu", "beurling")

    def test_classify_prints_alpha_hat_on_the_scale_of_alpha(self, tmp_path, capsys):
        # a_n = e^{-sqrt(n)}: decay exponent t = 1/2, the Roumieu boundary at alpha = 2
        path = tmp_path / "c.txt"
        write_coefficients(CoefficientField(1, "total", 3000, {(n,): math.exp(-math.sqrt(n))
                                                               for n in range(3001)}), path)
        code, out, _ = run(capsys, "classify", "--in", str(path), "--alpha", "2")
        lines = dict(ln.split(": ", 1) for ln in out.splitlines())
        assert code == 0 and lines["verdict"] == "roumieu" and lines["target_exponent"] == "0.5"
        assert float(lines["alpha_hat"]) == pytest.approx(2.0, abs=1e-9)
        assert float(lines["alpha_hat"]) == pytest.approx(1 / float(lines["exponent"]), rel=1e-15)

    @pytest.mark.parametrize("value", ["1.0", "0.3"])
    def test_classify_a_flat_file_prints_a_zero_rate(self, tmp_path, capsys, value):
        # constant data: the slope is exactly 0, and the rate prints 0.0, not -0.0
        # (the lstsq fit read a rate of +-1e-17 from rounding, and called 0.3 beurling)
        path = tmp_path / "flat.txt"
        path.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 9\n"
                        + "".join(f"{m},{value}\n" for m in range(10)))
        code, out, err = run(capsys, "classify", "--in", str(path), "--alpha", "1.0")
        lines = dict(ln.split(": ", 1) for ln in out.splitlines())
        assert code == 0 and err == ""
        assert (lines["c_hat"], lines["residual"], lines["verdict"]) == ("0.0", "0.0", "not_member")

    @pytest.mark.parametrize("alpha,shells", [("1", 3), ("1", 4), ("2", 3001), ("1", 3001)])
    def test_classify_prints_python_floats(self, tmp_path, capsys, alpha, shells):
        path = tmp_path / "c.txt"
        rate = math.sqrt if alpha == "2" else float
        write_coefficients(CoefficientField(1, "total", shells - 1, {(n,): math.exp(-rate(n))
                                                                     for n in range(shells)}), path)
        code, out, _ = run(capsys, "classify", "--in", str(path), "--alpha", alpha)
        assert code == 0 and "np." not in out and "-0.0" not in out
        for line in out.splitlines():
            key, text = line.split(": ", 1)
            if key not in ("verdict", "details", "support_size"):
                for number in text.split(" -> "):
                    assert repr(float(number)) == number

    def test_classify_a_three_shell_boundary_is_inconclusive(self, tmp_path, capsys):
        # e^{-m} at alpha = 1 on 3 shells leaves 1 shell for the rate trend
        path = tmp_path / "three.txt"
        write_coefficients(CoefficientField(1, "total", 2, {(n,): math.exp(-n) for n in range(3)}), path)
        code, out, err = run(capsys, "classify", "--in", str(path), "--alpha", "1")
        lines = dict(ln.split(": ", 1) for ln in out.splitlines())
        assert code == 0 and err == "" and lines["verdict"] == "inconclusive"
        assert "rate_trend" not in lines and "3 shells above the floor" in lines["details"]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "classify", "--in", "/nonexistent.txt",
                         "--alpha", "1.0")
        assert code == 1


class TestVerify:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_command_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_flag_is_usage(self, capsys):
        assert run(capsys, "quad")[0] == 1

    @pytest.mark.parametrize("argv", [("verify", "--threads", "2"),
                                      ("quad", "--nodes", "4", "--dim", "2"),
                                      ("analyze", "--fn", "exp-decay", "--degree", "20",
                                       "--nodes", "10", "--out", "unused.txt", "--force-nodes")])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err

    def test_choices_and_defaults(self):
        parser = build_parser()
        for suite in ("all", "core", "quadrature", "transform", "operator", "analysis"):
            assert parser.parse_args(["verify", "--suite", suite]).suite == suite
        for kind in ("total", "box"):
            argv = ["analyze", "--fn", "exp-decay", "--degree", "2", "--out", "o", "--truncation", kind]
            assert parser.parse_args(argv).truncation == kind
        assert parser.parse_args(["classify", "--in", "a", "--alpha", "1"]).floor == 1e-280

    def test_bad_node_count_is_domain(self, capsys):
        assert run(capsys, "quad", "--nodes", "0")[0] == 2

    def test_version_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("orthlag ")


class TestMalformedCoefficientFiles:
    HEADER = "dim: 1\ntruncation_kind: total\ntruncation_degree: 3\n"

    @pytest.mark.parametrize("body,message", [
        ("0,1.0\n1,nan\n", "not finite"),
        ("0,1.0\n1,-inf\n", "not finite"),
        ("0,1.0\n2,0.5\n0,2.0\n", "duplicate record"),
    ])
    def test_one_line_domain_error(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.txt"
        path.write_text(self.HEADER + body)
        code, out, err = run(capsys, "norms", "--in", str(path), "--alpha", "1", "--h", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err

    def test_power_beyond_binary64_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text(self.HEADER + "3,1.0\n")
        code, _, err = run(capsys, "operator", "apply", "--power", "800",
                           "--in", str(path), "--out", str(tmp_path / "o.txt"))
        assert code == 2 and "not finite" in err

    def test_power_of_400_digits_on_shells_zero_and_one(self, tmp_path, capsys):
        path, out = tmp_path / "a.txt", tmp_path / "o.txt"
        path.write_text(self.HEADER + "0,2.0\n1,1.0\n")
        code, _, err = run(capsys, "operator", "apply", "--power", "9" * 400,
                           "--in", str(path), "--out", str(out))
        assert code == 0 and err == ""
        assert read_coefficients(out).values.tolist() == [0.0, 1.0]

    def test_eta_beyond_the_work_cap(self, tmp_path, capsys):
        # 256 terms: N_max = 2^18 is within MAX_ETA_POWERS, its work is one past the cap
        path = tmp_path / "a.txt"
        path.write_text("dim: 1\ntruncation_kind: total\ntruncation_degree: 255\n"
                        + "".join(f"{n},{0.5 ** n!r}\n" for n in range(256)))
        nmax = MAX_ETA_WORK // 256 + 1
        assert nmax <= MAX_ETA_POWERS
        code, out, err = run(capsys, "eta", "--in", str(path), "--alpha", "1", "--h", "1",
                             "--nmax", str(nmax))
        assert code == 2 and out == "" and err.count("\n") == 1 and "above the cap" in err


GEOMETRIC_FILE = "dim: 1\ntruncation_kind: total\ntruncation_degree: 8\n" + "".join(
    f"{n},{geometric_coefficient(n)!r}\n" for n in range(9))


@pytest.mark.parametrize("argv", [
    ["eta", "--alpha", "nan", "--h", "1"],
    ["eta", "--alpha", "inf", "--h", "1"],
    ["eta", "--alpha", "1", "--h", "nan"],
    ["eta", "--alpha", "1", "--h", "inf"],
    ["eta", "--alpha", "1", "--h", "1", "--nmax", str(MAX_ETA_POWERS + 1)],
    ["norms", "--alpha", "nan", "--h", "1"],
    ["norms", "--alpha", "1", "--h", "nan"],
    ["norms", "--alpha", "1", "--h", "1", "--p", "nan"],
    ["classify", "--alpha", "nan"],
    ["classify", "--alpha", "inf"],
    ["classify", "--alpha", "1", "--floor", "nan"],
    ["classify", "--alpha", "1", "--floor", "inf"],
    ["analyze", "--fn", "exp-decay", "--degree", "-1", "--out", "OUT"],
    ["analyze", "--fn", "exp-decay", "--dim", "0", "--degree", "3", "--out", "OUT"],
    ["analyze", "--fn", "poly-exp:1,2", "--dim", "-2", "--degree", "3", "--out", "OUT"],
    ["analyze", "--coeffs", "IN", "--degree", "-1", "--out", "OUT"],
], ids=" ".join)
def test_bad_parameters_are_one_line_domain_errors(tmp_path, capfd, argv):
    path = tmp_path / "geo.txt"
    path.write_text(GEOMETRIC_FILE)
    argv = [str(tmp_path / "out.txt") if a == "OUT" else str(path) if a == "IN" else a for a in argv]
    if argv[0] != "analyze":
        argv += ["--in", str(path)]
    code, out, err = run(capfd, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("orthlag: domain error: ")
    assert "Traceback" not in err and not (tmp_path / "out.txt").exists()


def test_overflowing_builtin_field_prints_one_line(tmp_path, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capfd, "analyze", "--fn", "poly-exp:1e308,1e308", "--degree", "4",
                             "--out", str(tmp_path / "a.txt"))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "non-finite integrand value" in err


@pytest.mark.parametrize("name", ["poly-exp:inf", "poly-exp:1,nan", "poly-exp:-inf,2"])
def test_non_finite_builtin_coefficient_prints_one_line(tmp_path, capfd, name):
    # NumPy warned `invalid value encountered in multiply` while building the derivative table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capfd, "analyze", "--fn", name, "--degree", "4", "--out", str(tmp_path / "a.txt"))
    assert code == 2 and out == ""
    assert err == "orthlag: domain error: polynomial coefficients must be finite\n"
    assert not (tmp_path / "a.txt").exists()


def test_poly_exp_without_coefficients_is_a_usage_error(tmp_path, capfd):
    code, out, err = run(capfd, "analyze", "--fn", "poly-exp:", "--degree", "4", "--out", str(tmp_path / "a.txt"))
    assert code == 1 and out == "" and err.count("\n") == 1


def _mostly(draw, good, bad):
    """A draw from `good` as text, or about one time in five from `bad`
    (hypothesis favours the ends of a range, so the rare case is a middle value)."""
    return draw(bad) if draw(st.integers(0, 4)) == 2 else str(draw(good))


@st.composite
def coefficient_files(draw):
    """Coefficient files that may break any rule of the format: bad or
    missing headers, records of the wrong arity, negative or out-of-bound
    indices, non-numeric or non-finite values, duplicate records."""
    junk = st.sampled_from(["", "x", "-1", "0", "2.5", "1e3", "nan", "9" * 30])
    dim = draw(st.integers(1, 3))
    header = {
        "dim": _mostly(draw, st.just(dim), junk),
        "truncation_kind": _mostly(draw, st.sampled_from(["total", "box"]), junk),
        "truncation_degree": _mostly(draw, st.integers(0, 5), junk),
    }
    lines = [f"{k}: {v}" for k, v in header.items() if draw(st.integers(0, 9)) != 5]
    values = st.sampled_from(["abc", "", "1e999", "-1e999", "0x10", "1;0"])
    for _ in range(draw(st.integers(0, 8))):
        arity = dim + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        idx = [_mostly(draw, st.integers(-1, 6), st.sampled_from(["", "a", "1.5"]))
               for _ in range(max(arity, 0))]
        lines.append(",".join(idx + [_mostly(draw, st.floats(), values)]))
    if len(lines) > 3 and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines[3:])))  # a duplicate record
    return "\n".join(lines) + "\n"


COMMANDS = st.sampled_from([
    ["norms", "--alpha", "1", "--h", "1", "--p", "1"],
    ["norms", "--alpha", "0.5", "--h", "3", "--p", "inf"],
    ["eta", "--alpha", "1", "--h", "1", "--nmax", "5"],
    ["classify", "--alpha", "1"],
    ["operator", "apply", "--power", "2", "--out", "OUT"],
    ["propagate", "--time", "0.5", "--out", "OUT"],
])


TOTAL_1D = "dim: 1\ntruncation_kind: total\ntruncation_degree: 3\n"
NORMS = ["norms", "--alpha", "1", "--h", "1", "--p", "1"]


# the int64 boundary of the reader: a 30-digit index, 2^63 in a box file, an index token 1.0
@given(text=coefficient_files(), argv=COMMANDS)
@example(text=TOTAL_1D + "9" * 30 + ",1.0\n", argv=NORMS)
@example(text=f"dim: 2\ntruncation_kind: box\ntruncation_degree: 5\n0,1,0.5\n{2**63},0,1.0\n", argv=NORMS)
@example(text=TOTAL_1D + "1.0,0.5\n", argv=NORMS)
@settings(max_examples=200, deadline=None)
def test_malformed_coefficient_files_end_in_an_exit_code(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_text(text)
        argv = [str(Path(tmp) / "out.txt") if a == "OUT" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--in", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("orthlag: ")
        assert "Traceback" not in err.getvalue()


def reference_read_coefficients(path):
    """The former reader, kept as the reference: records parsed one by one
    into a dict of tuples, a duplicate caught as it is read, then the
    mapping constructor."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    header, body_start = {}, 0
    for i, ln in enumerate(raw[:3]):
        if ":" not in ln:
            break
        key, _, val = ln.partition(":")
        header[key.strip()] = val.strip()
        body_start = i + 1
    try:
        dim, kind, degree = int(header["dim"]), header["truncation_kind"], int(header["truncation_degree"])
    except KeyError as exc:
        raise DomainError(f"missing header field {exc}") from exc
    entries = {}
    for ln in raw[body_start:]:
        parts = ln.split(",")
        if len(parts) != dim + 1:
            raise DomainError(f"malformed record {ln!r}")
        n = tuple(int(p) for p in parts[:dim])
        if n in entries:
            raise DomainError(f"duplicate record for index {n}")
        entries[n] = float(parts[dim])
    return CoefficientField(dim, kind, degree, entries)


def _exit_code_of(read, path):
    """The field read, or the exit code the CLI gives the reader's error."""
    try:
        return read(path)
    except DomainError:
        return 2
    except ValueError:
        return 1


@given(text=coefficient_files())
@example(text=TOTAL_1D + "0,1.0\n1,2.0\n0,3.0\n2,x\n")  # a duplicate, then a bad value
@example(text=TOTAL_1D + "0,1.0\n0,x\n")  # a duplicate whose own value is bad
@example(text=TOTAL_1D + "-1,1.0\n2.5,1.0\n")  # a negative index, then a bad index token
@example(text=TOTAL_1D + "9" * 30 + ",1.0\n1,nan\n")
@settings(max_examples=300, deadline=None)
def test_array_reader_gives_the_former_exit_codes(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_text(text)
        want = _exit_code_of(reference_read_coefficients, path)
        got = _exit_code_of(read_coefficients, path)
    assert got == want


@st.composite
def point_files(draw):
    """Point CSVs for a d=2 coefficient file that may break any rule: empty
    files, rows with too few or too many columns, ragged rows, blank or
    non-numeric cells, negative or non-finite coordinates."""
    junk = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "-1.0", "0x10", "1;0"])
    width = draw(st.sampled_from([2, 2, 2, 1, 3]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        rows.append(",".join(_mostly(draw, st.floats(0.0, 50.0), junk) for _ in range(cells)))
    return "\n".join(rows) + "\n"


@given(text=point_files())
@settings(max_examples=200, deadline=None)
def test_malformed_point_files_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        coeffs, pts, values = (Path(tmp) / name for name in ("a.txt", "pts.csv", "v.csv"))
        write_coefficients(CoefficientField(2, "total", 2, {(0, 0): 1.0, (1, 1): -0.5}), coeffs)
        pts.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synthesize", "--in", str(coeffs), "--points", str(pts),
                         "--out", str(values)])
        assert caught == []
        assert code in (0, 1, 2)
        if code == 0:
            assert err.getvalue() == ""
            rows = values.read_text().splitlines()[1:]
            assert rows and all(math.isfinite(float(r.split(",")[-1])) for r in rows)
        else:
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("orthlag: ")
            assert not values.exists()


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter on this checkout's package."""
    import orthlag

    env = dict(os.environ, PYTHONPATH=str(Path(orthlag.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True)


def test_import_leaves_scipy_unloaded():
    """orthlag runs on NumPy alone: importing the CLI in a fresh interpreter
    loads no SciPy module."""
    code = "import sys, orthlag.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _python(code).stdout.strip() == "[]"


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    """With `import scipy` made to fail, every command that builds a rule,
    synthesizes or scales still exits 0: nothing imports SciPy lazily."""
    code = """if True:
        import sys
        sys.modules["scipy"] = None
        from orthlag.cli import main
        d = sys.argv[1]
        with open(f"{d}/pts.csv", "w") as fh:
            fh.write("0\\n0.5\\n2.0\\n")
        for argv in (["quad", "--nodes", "512", "--out", f"{d}/rule.csv"],
                     ["analyze", "--fn", "exp-decay", "--degree", "30", "--out", f"{d}/a.txt"],
                     ["synthesize", "--in", f"{d}/a.txt", "--points", f"{d}/pts.csv", "--out", f"{d}/v.csv"],
                     ["operator", "apply", "--power", "2", "--in", f"{d}/a.txt", "--out", f"{d}/o.txt"],
                     ["verify", "--suite", "all"]):
            print(argv[0], main(argv), file=sys.stderr)
    """
    err = _python(code, str(tmp_path)).stderr
    assert err.splitlines() == ["quad 0", "analyze 0", "synthesize 0", "operator 0", "verify 0"]
