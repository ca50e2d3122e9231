"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces each public function of the orthlag modules, at
every module attribute and registry entry that binds it, with a wrapper that
records a span (name, start, end, parent).  Fields returned by any wrapped
function get their evaluator wrapped too, so field evaluations are spans.
`Tracer.uninstall()` puts every original back.  Spans stay in memory until
the run ends; `per_layer_metrics` turns them into the per-layer numbers.

Not wrapped, and charged to their caller's self time instead:
  * generator functions (their work runs in whoever iterates them);
  * the per-entry scalar helpers in SCALAR_HELPERS, which run 10^5-10^6
    times per command; a span each would dominate the traced time.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

# the layers: one per orthlag module
MODULES = ("core", "quadrature", "transform", "fields", "operators", "analysis", "verify", "cli")
SCALAR_HELPERS = frozenset({
    "core.index_order",
    "core.validate_multi_index",
    "core.validate_point",
    "core.graded_lex_key",
    "analysis.log_theta_weight",
    "analysis.theta_weight",
})
FIELD_EVAL = "fields.eval"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Work counters read from a wrapped call's arguments and result; each
# returns {counter: increment}.  Counters are per pass.
def _count_rule(tr, args, kwargs, result):
    K = int(_arg(args, kwargs, 0, "K"))
    rebuilt = K in tr.rule_sizes_seen
    tr.rule_sizes_seen.add(K)
    return {"quadrature.rule_nodes": K, "quadrature.rule_rebuilds": int(rebuilt)}


def _count_integrate(tr, args, kwargs, result):
    rule = _arg(args, kwargs, 1, "rule")
    return {"quadrature.integrand_evals": rule.size ** int(_arg(args, kwargs, 2, "d", 1))}


def _count_sweep(tr, args, kwargs, result):
    deg = int(_arg(args, kwargs, 0, "max_degree"))
    return {"core.sweep_values": (deg + 1) * int(np.size(_arg(args, kwargs, 1, "x")))}


def _count_analyze(tr, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    rule = _arg(args, kwargs, 2, "rule")
    return {"transform.grid_points": rule.size ** f.dim, "transform.coeffs_out": len(result.entries)}


def _count_synthesize(tr, args, kwargs, result):
    pts = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "points")))
    a = _arg(args, kwargs, 0, "a")
    return {"transform.synth_points": pts.shape[0], "transform.synth_terms": len(a.entries)}


def _count_read(tr, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"transform.bytes_read": os.path.getsize(path), "transform.records": len(result.entries)}


def _count_write(tr, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    a = _arg(args, kwargs, 0, "a")
    return {"transform.bytes_written": os.path.getsize(path), "transform.records": len(a.entries)}


def _count_scaled(tr, args, kwargs, result):
    return {"operators.entries_scaled": len(_arg(args, kwargs, 0, "a").entries)}


COUNTERS = {
    "quadrature.gauss_laguerre_rule": _count_rule,
    "quadrature.integrate_orthant": _count_integrate,
    "core.laguerre_fn_sweep": _count_sweep,
    "transform.analyze": _count_analyze,
    "transform.synthesize": _count_synthesize,
    "transform.read_coefficients": _count_read,
    "transform.write_coefficients": _count_write,
    "operators.apply_multiplier": _count_scaled,
}


def _col(column, lo: int, hi: int) -> np.ndarray:
    return np.array(column[lo:hi])


class SpanStore:
    """Columns of recorded spans; a span's id is its row."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")

    def add(self, name: str, parent: int, start: float, end: float = 0.0) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def __len__(self):
        return len(self.name)

    def durations(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        hi = len(self) if hi is None else hi
        return _col(self.end, lo, hi) - _col(self.start, lo, hi)

    def self_times(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Each span's duration minus the durations of its direct children,
        for spans lo..hi-1, a range that holds whole span trees."""
        hi = len(self) if hi is None else hi
        dur = self.durations(lo, hi)
        parent = _col(self.parent, lo, hi)
        has = parent >= 0
        child_time = np.bincount(parent[has] - lo, weights=dur[has], minlength=hi - lo)
        return dur - child_time

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                         f"\t{self.start[i]!r}\t{self.end[i]!r}\n")


class Tracer:
    """Wraps the program's functions for one traced pass at a time.

    `begin_pass` installs the wrappers and `end_pass` removes them, so
    untraced passes run the unmodified program."""

    def __init__(self, package):
        self.package = package
        self.spans = SpanStore()
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.rule_sizes_seen: set[int] = set()
        self.passes: list[tuple[int, int, dict]] = []  # (first span, end span, counters)
        self._patched: list[tuple[object, object, object, bool]] = []  # (holder, key, original, is_attr)
        self._pass_start = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            i = spans.add(name, stack[-1] if stack else -1, perf_counter())
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, inc in counter(self, args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            if type(result).__name__ == "ScalarField":
                self._wrap_field(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_field(self, f) -> None:
        if not getattr(f.evaluator, "_bench_field", False):
            f.evaluator = self._wrap(FIELD_EVAL, f.evaluator)
            f.evaluator._bench_field = True

    def install(self) -> None:
        """Wrap every public, non-generator function defined in the layer
        modules, wherever a module attribute or a module-level registry
        (dict of functions, dict of lists of functions) binds it."""
        mods = {m: importlib.import_module(f"{self.package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)
                        and f"{short}.{attr}" not in SCALAR_HELPERS):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)

        def bound(obj):
            return inspect.isfunction(obj) and obj in wrapped

        for mod in (self.package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if bound(obj):
                    self._replace(mod, attr, wrapped[obj], True)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in obj.items():
                        if bound(val):
                            self._replace(obj, key, wrapped[val], False)
                        elif isinstance(val, list):
                            for k, item in enumerate(val):
                                if bound(item):
                                    self._replace(val, k, wrapped[item], False)

    def _replace(self, holder, key, new, is_attr: bool) -> None:
        old = getattr(holder, key) if is_attr else holder[key]
        self._patched.append((holder, key, old, is_attr))
        if is_attr:
            setattr(holder, key, new)
        else:
            holder[key] = new

    def uninstall(self) -> None:
        while self._patched:
            holder, key, old, is_attr = self._patched.pop()
            if is_attr:
                setattr(holder, key, old)
            else:
                holder[key] = old

    def begin_pass(self) -> None:
        self.counters = {}
        self.rule_sizes_seen = set()
        self._pass_start = len(self.spans)
        self.install()

    def end_pass(self) -> None:
        self.uninstall()
        self.passes.append((self._pass_start, len(self.spans), self.counters))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> span names whose inclusive time it sums
INCLUSIVE_S = {
    "quadrature.rule_s": ("quadrature.gauss_laguerre_rule",),
    "quadrature.integrate_s": ("quadrature.integrate_orthant",),
    "core.sweep_s": ("core.laguerre_fn_sweep",),
    "core.log_abs_s": ("core.laguerre_fn_log_abs",),
    "fields.eval_s": (FIELD_EVAL,),
    "transform.synthesize_s": ("transform.synthesize",),
    "transform.read_s": ("transform.read_coefficients",),
    "transform.write_s": ("transform.write_coefficients",),
    "operators.spectral_s": ("operators.apply_E_spectral", "operators.semigroup_propagate"),
    "operators.log_iterate_norm_s": ("operators.log_iterate_norm",),
    "analysis.norms_s": ("analysis.weighted_seq_norm",),
    "analysis.fit_s": ("analysis.estimate_decay_params",),
    "analysis.equivalence_s": ("analysis.norm_equivalence_gap",),
}
# metric -> span-name prefix whose self time it sums
SELF_S = {
    "transform.analyze_self_s": "transform.analyze",
    "analysis.eta_self_s": "analysis.eta_seminorm",
    "analysis.classify_self_s": "analysis.classify_membership",
    "verify.check_self_s": "verify.check_",
    **{f"{layer}.self_s": f"{layer}." for layer in MODULES},
}
# metric -> span-name prefix whose calls it counts
CALLS = {
    "quadrature.rule_calls": "quadrature.gauss_laguerre_rule",
    "core.sweep_calls": "core.laguerre_fn_sweep",
    "fields.eval_calls": FIELD_EVAL,
    "transform.analyze_calls": "transform.analyze",
    "transform.synthesize_calls": "transform.synthesize",
    "operators.log_iterate_norm_calls": "operators.log_iterate_norm",
    "analysis.eta_calls": "analysis.eta_seminorm",
    "verify.checks": "verify.check_",
}
COUNTS = (
    "quadrature.rule_nodes", "quadrature.rule_rebuilds", "quadrature.integrand_evals",
    "core.sweep_values", "transform.grid_points", "transform.coeffs_out",
    "transform.synth_points", "transform.synth_terms", "transform.bytes_read",
    "transform.bytes_written", "transform.records", "operators.entries_scaled",
)
# metric -> (numerator, denominator); both are reported as metrics too
RATIOS = {
    "quadrature.rule_rebuild_frac": ("quadrature.rule_rebuilds", "quadrature.rule_calls"),
    "fields.evals_per_coeff": ("fields.eval_calls", "transform.coeffs_out"),
}

# The self times of a traced pass's spans must add up to the pass's own time
# within this share; the gap is the wrappers' own cost outside the spans.
SELF_SUM_TOL = 0.01


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    units.update({k: "s" for k in INCLUSIVE_S})
    units.update({k: "s" for k in SELF_S})
    units.update({k: "count" for k in CALLS})
    units.update({k: "count" for k in COUNTS})
    units["verify.slowest_check_s"] = "s"
    units.update({k: "ratio" for k in RATIOS})
    units.update({
        "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_frac": "ratio",
        "trace.self_sum_s": "s", "trace.self_sum_gap_frac": "ratio",
        "trace.idle_layer_calls": "count", "trace.spans": "count", "trace.passes": "count",
    })
    return units


def pass_metrics(spans: SpanStore, lo: int, hi: int, counters: dict, idle_layers) -> dict:
    """Per-layer numbers of one traced pass (spans lo..hi-1)."""
    ids = _col(spans.name, lo, hi)
    dur = spans.durations(lo, hi)
    n = len(spans.names)
    incl = np.bincount(ids, weights=dur, minlength=n)
    selft = np.bincount(ids, weights=spans.self_times(lo, hi), minlength=n)
    calls = np.bincount(ids, minlength=n)

    def total(per_name, pred):
        return sum(per_name[i] for i, name in enumerate(spans.names) if pred(name))

    out = {}
    for metric, span_names in INCLUSIVE_S.items():
        out[metric] = float(total(incl, lambda name: name in span_names))
    for metric, prefix in SELF_S.items():
        out[metric] = float(total(selft, lambda name: name.startswith(prefix)))
    for metric, prefix in CALLS.items():
        out[metric] = int(total(calls, lambda name: name.startswith(prefix)))
    for key in COUNTS:
        out[key] = counters.get(key, 0)
    check_ids = [i for i, name in enumerate(spans.names) if name.startswith("verify.check_")]
    checks = dur[np.isin(ids, check_ids)]
    out["verify.slowest_check_s"] = float(checks.max()) if checks.size else 0.0
    out["trace.self_sum_s"] = float(selft.sum())
    out["trace.idle_layer_calls"] = int(total(calls, lambda name: name.split(".")[0] in idle_layers))
    out["trace.spans"] = hi - lo
    return out


def per_layer_metrics(tracer: Tracer, traced_walls, wall: float, base: float, idle_layers) -> dict:
    """Mean per traced pass of every per-layer metric, plus the tracing
    overhead: `wall`, the traced list time, against `base`, the untraced one.
    `traced_walls` are the traced passes' own times, which the self times of
    their spans must add up to."""
    per_pass = [pass_metrics(tracer.spans, lo, hi, c, idle_layers) for lo, hi, c in tracer.passes]
    out = {k: float(np.mean([p[k] for p in per_pass])) for k in per_pass[0]}
    for metric, (num, den) in RATIOS.items():
        out[metric] = out[num] / out[den] if out[den] else 0.0
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = base
    out["trace.overhead_frac"] = wall / base - 1.0
    mean_wall = float(np.mean(traced_walls))
    out["trace.self_sum_gap_frac"] = abs(out["trace.self_sum_s"] - mean_wall) / mean_wall
    out["trace.passes"] = len(per_pass)
    return out


def check_problems(metrics: dict) -> list[str]:
    """Ways a traced run breaks the layer-isolation check (a span in a layer
    the workload is predicted to leave idle) or the self-time check (the
    layers' self times do not add up to the traced time)."""
    problems = []
    if metrics["trace.idle_layer_calls"] > 0:
        problems.append(f"{metrics['trace.idle_layer_calls']:g} calls per pass into"
                        " layers predicted idle")
    if metrics["trace.self_sum_gap_frac"] > SELF_SUM_TOL:
        problems.append(f"self times miss the traced time by"
                        f" {metrics['trace.self_sum_gap_frac']:.3g}, above {SELF_SUM_TOL}")
    return problems
