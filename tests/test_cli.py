import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthlag.cli import main
from orthlag.transform import read_coefficients, write_coefficients
from orthlag.transform import CoefficientField


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def geometric_coefficient(n: int) -> float:
    return (2.0 / 3.0) * (1.0 / 3.0) ** n


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

    def test_deterministic_across_runs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
        for path in (p1, p2):
            run(capsys, "analyze", "--fn", "exp-decay", "--dim", "2",
                "--degree", "8", "--out", str(path))
        assert p1.read_bytes() == p2.read_bytes()


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
                                      ("quad", "--nodes", "4", "--dim", "2")])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err

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


@given(text=coefficient_files(), argv=COMMANDS)
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
