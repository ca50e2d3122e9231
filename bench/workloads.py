"""Seeded inputs and command lists for the benchmark workloads.

`build(name, seed, workdir)` writes a workload's input files into `workdir`
and returns its command list.  Each command is the argv a user would type
after `orthlag`, plus a check that compares the command's output with an
oracle from `oracles`.  The same seed gives the same files and the same list.

Sizes that set the cost of a pass (degrees, file sizes, point counts) are
fixed per workload, so the seed moves values, indices, parameters and the
order of the list but hardly the amount of work, nor which commands fail: the
`calculus` list holds the same number of norms beyond binary64 on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

# Layers each workload is predicted not to call at all; the traced run
# counts spans in them (`trace.idle_layer_calls`, expected 0).
IDLE_LAYERS = {
    "expand": ("operators", "analysis", "verify"),
    "calculus": ("quadrature", "fields", "verify"),
    "reproject": ("operators", "analysis", "verify"),
    "selfcheck": (),
}
WORKLOADS = tuple(IDLE_LAYERS)

# Gate tolerances (normwise relative error).  The l:<n> fields are built in
# the monomial basis and lose about one digit per index (error 2e-8 at n=20),
# so their gate is looser, and their error is kept out of accuracy_digits
# (the run's log line reports it): that known floor would otherwise fix the
# metric and hide a loss of digits anywhere else in analyze.
TOL_ANALYZE = 1e-10
TOL_LAGUERRE_FIELD = 1e-6
TOL_EXACT = 1e-12
L_INDEX_MAX = 20

CALCULUS_FILES = ((1, 400), (2, 120), (3, 30))
# `norms` draws h over [0.1, 1000], from the README's h of 1 to 2 up to the
# h=800 of ROADMAP item 5(c), on one side of the h where the norm leaves
# binary64: above it for the p=1 command of each file, below it for p=2 and
# p=inf.  So every pass holds exactly NORM_OVERFLOWS norms that must print
# inf, on every seed.
NORM_H_MIN, NORM_H_MAX = 0.1, 1000.0
NORM_H_MARGIN = 1.5
NORM_OVERFLOWS = len(CALCULUS_FILES)
# Short commands, several at the middle degree: a pass holds many samples
# and the median command sits inside a cluster of equal-cost ones.  A
# degree-30 reprojection takes about 13 s, too long for a steady median.
REPROJECT_DEGREES = (8, 10, 10, 10, 12)
SYNTH_POINTS = 10_000
POLY_TERMS = 4
D3_NODES = 12


@dataclass
class Command:
    """One CLI invocation and its gate.

    `check(stdout)` returns the output's relative error against the oracle,
    or None when the output is a verdict with no digits to count; it raises
    `oracles.GateMiss` when the output is wrong in kind (shape, verdict).
    `in_digits` is False for outputs with a known accuracy floor, whose
    error is gated against `tol` but not counted in accuracy_digits."""

    argv: list[str]
    check: Callable[[str], float | None]
    tol: float = TOL_EXACT
    label: str = ""
    in_digits: bool = True


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _num(x: float, places: int = 4) -> str:
    """Short decimal text for a CLI flag; the oracle parses the same text."""
    return repr(round(float(x), places))


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# expand: analyze --fn on the built-in fields, plus one synthesize
# ---------------------------------------------------------------------------

def _field_case(rng, dim: int, degree: int, kind: str, top_index: bool = False):
    """(field name, reference function, tolerance) for a built-in field."""
    if kind == "exp-decay":
        return "exp-decay", orc.exp_decay_coeffs, TOL_ANALYZE
    if kind == "l":
        # the largest drawn index sets the l:<n> error on the log line; pin
        # one case per pass at the top of the range so it does not hinge on luck
        top = min(L_INDEX_MAX, degree // dim)
        n = [top] + [0] * (dim - 1) if top_index else list(rng.integers(0, top + 1, size=dim))
        rng.shuffle(n)
        n = [int(v) for v in n]
        return "l:" + ",".join(map(str, n)), lambda idx: orc.unit_coeffs(idx, n), TOL_LAGUERRE_FIELD
    coeffs = [round(float(c), 3) for c in rng.uniform(-2.0, 2.0, size=POLY_TERMS)]
    name = "poly-exp:" + ",".join(repr(c) for c in coeffs)
    return name, lambda idx: orc.poly_exp_coeffs(idx, coeffs), TOL_ANALYZE


def _analyze_command(work: Path, tag: str, dim: int, degree: int, case) -> Command:
    name, ref_fn, tol = case
    out = work / f"{tag}.coef"
    return Command(
        argv=["analyze", "--fn", name, "--dim", str(dim), "--degree", str(degree), "--out", str(out)],
        check=lambda _stdout: orc.coefficients_err(out, dim, degree, ref_fn),
        tol=tol,
        label=f"analyze d={dim} deg={degree} {name.split(':')[0]}",
        in_digits=tol != TOL_LAGUERRE_FIELD,
    )


def build_expand(seed: int, work: Path) -> list[Command]:
    rng = _rng("expand", seed)
    kinds = ("exp-decay", "l", "poly-exp")
    cases = []  # (dim, degree, kind, top_index)
    # d=1 at both ends of 200..400, every field at each degree, so rule
    # sizes repeat within a pass; degree 400 needs a 416-node rule
    for deg in (200, 400):
        cases += [(1, deg, k, k == "l" and deg == 400) for k in kinds]
    for deg in (60, 120):
        cases += [(2, deg, k, k == "l" and deg == 120) for k in kinds]
    commands = [
        _analyze_command(work, f"a{i}", dim, deg, _field_case(rng, dim, deg, kind, top))
        for i, (dim, deg, kind, top) in enumerate(cases)
    ]
    # d=3 at degree 8 on a 12-node rule, exact for these polynomial-times-
    # e^{-x/2} fields: 0.45 s a command, where the default 24-node rule takes
    # 3.3 s and would leave too few passes in a run for a steady median
    for kind in ("l", "poly-exp"):
        cmd = _analyze_command(work, f"a{len(commands)}", 3, 8, _field_case(rng, 3, 8, kind))
        cmd.argv += ["--nodes", str(D3_NODES)]
        commands.append(cmd)
    order = rng.permutation(len(commands))

    # the list ends by synthesizing the d=2 deg-60 e^{-x1-x2} expansion at
    # seeded points.  It holds the pass's largest arrays; at a seeded place
    # in the list they landed on heaps of different sizes, which moved
    # peak_rss_mb by 4% from seed to seed.
    src_pos = next(i for i, c in enumerate(cases) if c[:3] == (2, 60, "exp-decay"))
    pts = rng.uniform(0.0, 15.0, size=(SYNTH_POINTS, 2))
    pts_path = _write(work / "points.csv", "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
    values_path = work / "values.csv"
    ref = np.exp(-pts.sum(axis=1))

    def check_synth(_stdout):
        with open(values_path) as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != "x1,x2,value" or rows.shape != (SYNTH_POINTS, 3):
            raise orc.GateMiss("synthesize output has the wrong layout")
        if not np.array_equal(rows[:, :2], pts):
            raise orc.GateMiss("synthesize output points differ from the input points")
        return orc.rel_err(rows[:, 2], ref)

    synth = Command(
        argv=["synthesize", "--in", commands[src_pos].argv[-1], "--points", pts_path,
              "--out", str(values_path)],
        check=check_synth,
        tol=TOL_ANALYZE,
        label="synthesize d=2 10k points",
    )
    return [commands[i] for i in order] + [synth]


# ---------------------------------------------------------------------------
# calculus: coefficient-space commands on seeded stretched-exponential files
# ---------------------------------------------------------------------------

def _decay_file(rng, work: Path, dim: int, degree: int, c: float, t: float):
    idx = orc.total_degree_set(dim, degree)
    m = idx.sum(axis=1).astype(float)
    signs = rng.choice((-1.0, 1.0), size=m.size)
    vals = signs * np.exp(-c * m ** t)
    path = _write(work / f"decay{dim}.coef", orc.format_coefficients(dim, degree, idx, vals))
    return path, idx, vals


def _coef_output_check(out: Path, idx, ref):
    def check(_stdout):
        _, _, got_idx, got = orc.read_coefficients(out)
        if not np.array_equal(got_idx, idx):
            raise orc.GateMiss(f"{out}: index set differs from the input's")
        return orc.rel_err(got, ref)
    return check


def _norm_check(idx, vals, alpha, h, p):
    log_ref = orc.log_weighted_norm(idx, vals, alpha, h, p)

    def check(stdout):
        got = float(orc.parse_fields(stdout)["norm"])
        if log_ref > orc.LOG_DBL_MAX:
            # the norm exceeds binary64; the documented result is inf
            if got != math.inf:
                raise orc.GateMiss(f"norm {got!r} where the exact value overflows binary64")
            return 0.0
        return orc.exp_rel_err(got, log_ref)
    return check


def _eta_check(idx, vals, alpha, h, nmax):
    log_ref, argmax, growing = orc.eta_reference(idx, vals, alpha, h, nmax)

    def check(stdout):
        rep = orc.parse_fields(stdout)
        if int(rep["argmax_N"]) != argmax or (rep["still_growing"] == "True") != growing:
            raise orc.GateMiss(f"eta argmax/growing {rep['argmax_N']}/{rep['still_growing']}"
                               f" differ from {argmax}/{growing}")
        return orc.exp_rel_err(float(rep["value"]), log_ref)
    return check


def _verdict_check(expected: str):
    def check(stdout):
        got = orc.parse_fields(stdout).get("verdict")
        if got != expected:
            raise orc.GateMiss(f"verdict {got!r}, expected {expected!r}")
        return None
    return check


def _overflow_h(idx, vals, alpha: float, p: float) -> float:
    """The h in [NORM_H_MIN, NORM_H_MAX] at which the exact weighted l^p norm
    reaches the largest binary64 value (bisection on log h)."""
    lo, hi = math.log(NORM_H_MIN), math.log(NORM_H_MAX)
    if orc.log_weighted_norm(idx, vals, alpha, NORM_H_MAX, p) <= orc.LOG_DBL_MAX:
        raise ValueError(f"no norm beyond binary64 for h <= {NORM_H_MAX} (alpha={alpha}, p={p})")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if orc.log_weighted_norm(idx, vals, alpha, math.exp(mid), p) > orc.LOG_DBL_MAX:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


def _norm_h(rng, idx, vals, alpha: float, p: float) -> float:
    """h for a `norms` command, log-uniform over the documented range on the
    side of the overflow point that `p` is given: above it for p=1, whose
    norm must then print inf (ROADMAP item 5(c)), below it otherwise.  Each
    side keeps a factor NORM_H_MARGIN from the overflow point."""
    h_over = _overflow_h(idx, vals, alpha, p)
    lo, hi = (h_over * NORM_H_MARGIN, NORM_H_MAX) if p == 1 else (NORM_H_MIN, h_over / NORM_H_MARGIN)
    if not NORM_H_MIN <= lo < hi <= NORM_H_MAX:
        raise ValueError(f"no room for h on its side of the overflow point {h_over:.4g}")
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def build_calculus(seed: int, work: Path) -> list[Command]:
    rng = _rng("calculus", seed)
    relations = rng.permutation(("beurling", "not_member", "roumieu"))
    commands = []
    for f, (dim, degree) in enumerate(CALCULUS_FILES):
        c = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.45, 1.0))
        path, idx, vals = _decay_file(rng, work, dim, degree, c, t)
        out = work / f"out{dim}.coef"

        N = int(rng.integers(1, 5))
        commands.append(Command(
            ["operator", "apply", "--power", str(N), "--in", path, "--out", str(out)],
            _coef_output_check(out, idx, orc.power_coeffs(idx, vals, N)),
            label=f"operator apply d={dim}"))

        tt = _num(math.exp(rng.uniform(math.log(0.01), math.log(2.0))))
        commands.append(Command(
            ["propagate", "--time", tt, "--in", path, "--out", str(out)],
            _coef_output_check(out, idx, orc.semigroup_coeffs(idx, vals, float(tt))),
            label=f"propagate d={dim}"))

        for p in ("1", "2", "inf"):
            alpha = _num(rng.uniform(0.5, 2.0))
            h = _num(_norm_h(rng, idx, vals, float(alpha), float(p)))
            commands.append(Command(
                ["norms", "--in", path, "--alpha", alpha, "--h", h, "--p", p],
                _norm_check(idx, vals, float(alpha), float(h), float(p)),
                label=f"norms d={dim} p={p}"))

        alpha = _num(rng.uniform(0.5, 2.0))
        h = _num(math.exp(rng.uniform(math.log(0.5), math.log(4.0))))
        commands.append(Command(
            ["eta", "--in", path, "--alpha", alpha, "--h", h, "--nmax", "60"],
            _eta_check(idx, vals, float(alpha), float(h), 60),
            label=f"eta d={dim}"))

        # classify at a level whose exponent 1/alpha sits clearly above,
        # clearly below, or exactly at the generating exponent t
        margin = {"beurling": -1, "not_member": 1, "roumieu": 0}[relations[f]] * float(
            rng.uniform(0.15, 0.3))
        alpha = 1.0 / (t + margin)
        commands.append(Command(
            ["classify", "--in", path, "--alpha", repr(alpha)],
            _verdict_check(orc.expected_verdict(t, alpha, margin)),
            label=f"classify d={dim}"))
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


# ---------------------------------------------------------------------------
# reproject: analyze --coeffs, the transform run on a coefficient file
# ---------------------------------------------------------------------------

def build_reproject(seed: int, work: Path) -> list[Command]:
    rng = _rng("reproject", seed)
    commands = []
    for k, degree in enumerate(REPROJECT_DEGREES):
        idx = orc.total_degree_set(2, degree)
        vals = rng.uniform(-1.0, 1.0, size=len(idx))
        path = _write(work / f"in{k}.coef", orc.format_coefficients(2, degree, idx, vals))
        out = work / f"back{k}.coef"
        commands.append(Command(
            ["analyze", "--coeffs", path, "--dim", "2", "--degree", str(degree), "--out", str(out)],
            lambda _stdout, out=out, degree=degree, vals=vals: orc.coefficients_err(
                out, 2, degree, lambda _idx: vals),
            tol=TOL_EXACT,
            label=f"reproject d=2 deg={degree}"))
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


# ---------------------------------------------------------------------------
# selfcheck: the user-runnable invariant suite
# ---------------------------------------------------------------------------

# verify checks whose allowed value is a tolerance on an error (not a count
# of violations or a ratio bound) contribute their measured error to
# accuracy_digits
VERIFY_ERROR_TOL_MAX = 1e-6


def _check_verify(stdout: str) -> float:
    lines = stdout.strip().splitlines()
    results = [ln for ln in lines if ln.startswith("[")]
    if not results or any(not ln.startswith("[PASS]") for ln in results):
        raise orc.GateMiss("verify reported a failing or missing check")
    if lines[-1] != f"{len(results)}/{len(results)} checks passed":
        raise orc.GateMiss(f"verify summary {lines[-1]!r} does not match its {len(results)} checks")
    worst = 0.0
    for ln in results:
        parts = ln.split("|")
        measured = float(parts[2].split()[1])
        allowed = float(parts[3].split()[1])
        if 0.0 < allowed <= VERIFY_ERROR_TOL_MAX:
            worst = max(worst, measured)
    return worst


def build_selfcheck(seed: int, work: Path) -> list[Command]:
    # the suite has fixed seeds of its own; the workload has no inputs
    return [Command(["verify", "--suite", "all"], _check_verify,
                    tol=VERIFY_ERROR_TOL_MAX, label="verify --suite all")]


BUILDERS = {
    "expand": build_expand,
    "calculus": build_calculus,
    "reproject": build_reproject,
    "selfcheck": build_selfcheck,
}


def build(name: str, seed: int, work: Path) -> list[Command]:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)
