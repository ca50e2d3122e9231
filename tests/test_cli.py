import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthlag.cli import build_parser, main
from orthlag.core import DomainError
from orthlag.transform import read_coefficients, write_coefficients
from orthlag.transform import CoefficientField


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

    def test_norms_with_tiny_alpha_print_inf(self, tmp_path, capsys):
        path = self.write_geometric(tmp_path, degree=3)
        code, out, err = run(capsys, "norms", "--in", str(path),
                             "--alpha", "1e-5", "--h", "1.0", "--p", "1")
        fields = dict(line.split(": ") for line in out.splitlines())
        assert code == 0 and err == ""
        assert fields["norm"] == "inf" and fields["log_norm"] == "inf"

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


GEOMETRIC_FILE = "dim: 1\ntruncation_kind: total\ntruncation_degree: 8\n" + "".join(
    f"{n},{geometric_coefficient(n)!r}\n" for n in range(9))


@pytest.mark.parametrize("argv", [
    ["eta", "--alpha", "nan", "--h", "1"],
    ["eta", "--alpha", "inf", "--h", "1"],
    ["eta", "--alpha", "1", "--h", "nan"],
    ["eta", "--alpha", "1", "--h", "inf"],
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


def test_import_leaves_scipy_special_unloaded():
    """orthlag's log-sum-exp is its own; importing the CLI in a fresh
    interpreter does not load scipy.special."""
    import orthlag

    code = "import sys, orthlag.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(orthlag.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
