"""Self-time arithmetic and the install/uninstall of the traced run."""

import importlib
import inspect

import numpy as np
import pytest

import orthlag
from orthlag import cli

import spantrace


def test_self_time_on_a_hand_built_tree():
    s = spantrace.SpanStore()
    root = s.add("cli.main", -1, 0.0, 10.0)
    a = s.add("transform.analyze", root, 1.0, 7.0)
    s.add("quadrature.gauss_laguerre_rule", a, 1.5, 2.5)
    s.add("fields.eval", a, 3.0, 4.0)
    s.add("fields.eval", a, 4.0, 5.5)
    s.add("transform.write_coefficients", root, 8.0, 9.0)
    np.testing.assert_allclose(s.self_times(), [3.0, 2.5, 1.0, 1.0, 1.5, 1.0])
    assert s.self_times().sum() == pytest.approx(10.0)
    m = spantrace.pass_metrics(s, 0, len(s), {}, ("operators",))
    assert m["transform.analyze_self_s"] == pytest.approx(2.5)
    assert m["fields.eval_s"] == pytest.approx(2.5)
    assert m["fields.eval_calls"] == 2
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trace.self_sum_s"] == pytest.approx(10.0)
    assert m["trace.idle_layer_calls"] == 0


def _check_metrics(spans, idle, wall):
    m = spantrace.pass_metrics(spans, 0, len(spans), {}, idle)
    m["trace.self_sum_gap_frac"] = abs(m["trace.self_sum_s"] - wall) / wall
    return m


def test_a_span_in_an_idle_layer_trips_the_isolation_check():
    s = spantrace.SpanStore()
    root = s.add("cli.main", -1, 0.0, 4.0)
    s.add("transform.read_coefficients", root, 0.5, 1.0)
    s.add("operators.apply_multiplier", root, 1.0, 2.0)
    assert spantrace.check_problems(_check_metrics(s, ("quadrature", "fields"), 4.0)) == []
    problems = spantrace.check_problems(_check_metrics(s, ("operators",), 4.0))
    assert len(problems) == 1 and "idle" in problems[0]


def test_self_times_short_of_the_traced_time_trip_the_sum_check():
    s = spantrace.SpanStore()
    s.add("cli.main", -1, 0.0, 4.0)
    assert spantrace.check_problems(_check_metrics(s, (), 4.0 * (1 + spantrace.SELF_SUM_TOL / 2))) == []
    problems = spantrace.check_problems(_check_metrics(s, (), 5.0))
    assert len(problems) == 1 and "self times" in problems[0]


def test_self_time_of_a_later_range():
    s = spantrace.SpanStore()
    s.add("cli.main", -1, 0.0, 1.0)
    r = s.add("cli.main", -1, 2.0, 5.0)
    s.add("core.laguerre_fn_sweep", r, 2.5, 3.0)
    np.testing.assert_allclose(s.self_times(1, 3), [2.5, 0.5])


def _bindings():
    """Every function-valued module attribute and registry entry in orthlag."""
    out = {}
    mods = [importlib.import_module(f"orthlag.{m}") for m in spantrace.MODULES]
    for mod in (orthlag, *mods):
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(mod.__name__, attr)] = obj
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in obj.items():
                    if inspect.isfunction(val):
                        out[(mod.__name__, attr, key)] = val
                    elif isinstance(val, list):
                        for k, item in enumerate(val):
                            out[(mod.__name__, attr, key, k)] = item
    return out


def test_traced_pass_records_spans_and_restores_every_binding(tmp_path, capsys):
    before = _bindings()
    tracer = spantrace.Tracer(orthlag)
    tracer.begin_pass()
    try:
        assert cli.main(["analyze", "--fn", "exp-decay", "--dim", "2", "--degree", "4",
                         "--out", str(tmp_path / "a.coef")]) == 0
        assert cli.main(["eta", "--in", str(tmp_path / "a.coef"), "--alpha", "1",
                         "--h", "1", "--nmax", "5"]) == 0
    finally:
        tracer.end_pass()
    capsys.readouterr()
    assert _bindings() == before

    m = spantrace.pass_metrics(tracer.spans, *tracer.passes[0][:2], tracer.passes[0][2], ())
    assert m["quadrature.rule_calls"] == 1
    assert m["transform.analyze_calls"] == 1
    assert m["transform.grid_points"] == 20 ** 2 == m["fields.eval_calls"]
    assert m["transform.coeffs_out"] == 15 == m["transform.records"] - 15
    assert m["operators.log_iterate_norm_calls"] == 5
    roots = np.array(tracer.spans.parent) < 0
    assert roots.sum() == 2
    assert m["trace.self_sum_s"] == pytest.approx(tracer.spans.durations()[roots].sum())
    assert sum(m[f"{layer}.self_s"] for layer in spantrace.MODULES) == \
        pytest.approx(m["trace.self_sum_s"])
