"""Command-line front end: quadrature rules, transforms, operator calculus,
norms, decay classification, and the self-check suite.

Exit codes: 0 ok, 1 usage/parse error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from . import __version__
from .analysis import (
    SpaceParams,
    classify_membership,
    eta_seminorm,
    log_weighted_seq_norm,
)
from .core import DomainError, exp_or_inf
from .fields import field_by_name
from .operators import apply_E_spectral, semigroup_propagate
from .quadrature import default_rule_size, gauss_laguerre_rule
from .transform import analyze, as_scalar_field, read_coefficients, synthesize, write_coefficients

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthlag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"orthlag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("quad", help="emit a Gauss-Laguerre rule as CSV")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="expand a function into coefficients")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fn", help="built-in field name (exp-decay, l:<idx>, poly-exp:<coeffs>)")
    src.add_argument("--coeffs", dest="coeffs_in", help="coefficient file defining the input field")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension (default 1 for --fn, the file's for --coeffs)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--truncation", choices=("total", "box"), default="total")
    p.add_argument("--nodes", type=int, default=None, help="rule size (default degree + 16)")
    p.add_argument("--force-nodes", action="store_true",
                   help="allow a rule smaller than degree + 1")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", help="evaluate a coefficient file at points")
    p.add_argument("--in", dest="coeffs_in", required=True)
    p.add_argument("--points", required=True, help="CSV with d coordinate columns")
    p.add_argument("--out", required=True)

    p = sub.add_parser("operator", help="spectral operator calculus")
    opsub = p.add_subparsers(dest="opcommand", required=True, parser_class=_Parser)
    q = opsub.add_parser("apply", help="apply the N-th operator iterate")
    q.add_argument("--power", type=int, required=True)
    q.add_argument("--in", dest="coeffs_in", required=True)
    q.add_argument("--out", required=True)

    p = sub.add_parser("propagate", help="apply the smoothing semigroup")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--in", dest="coeffs_in", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("norms", help="weighted sequence norm of a coefficient file")
    p.add_argument("--in", dest="coeffs_in", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--p", default="2", help="norm index: 1, 2, or inf")

    p = sub.add_parser("eta", help="operator-iterate seminorm")
    p.add_argument("--in", dest="coeffs_in", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--nmax", type=int, default=60)

    p = sub.add_parser("classify", help="coefficient-decay membership report")
    p.add_argument("--in", dest="coeffs_in", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--floor", type=float, default=1e-280)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", default="all",
                   choices=("all", "core", "quadrature", "transform", "operator", "analysis"))

    return parser


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_quad(args) -> int:
    rule = gauss_laguerre_rule(args.nodes)
    lines = ["node,weight,log_modified_weight"]
    for x, w, lw in zip(rule.nodes, rule.weights, rule.log_modified_weights):
        lines.append(f"{float(x)!r},{float(w)!r},{float(lw)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.fn is not None:
        f = field_by_name(args.fn, 1 if args.dim is None else args.dim)
    else:
        a = read_coefficients(args.coeffs_in)
        if args.dim not in (None, a.dim):
            raise DomainError(f"--dim {args.dim} does not match the dimension {a.dim} of {args.coeffs_in}")
        f = as_scalar_field(a)
    K = args.nodes if args.nodes is not None else default_rule_size(args.degree)
    if K < args.degree + 1 and not args.force_nodes:
        raise DomainError(
            f"{K} nodes cannot resolve degree {args.degree} (need >= degree + 1;"
            " pass --force-nodes to override)"
        )
    rule = gauss_laguerre_rule(K)
    a = analyze(f, args.degree, rule, kind=args.truncation)
    write_coefficients(a, args.out)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    a = read_coefficients(args.coeffs_in)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
        pts = np.loadtxt(args.points, delimiter=",", ndmin=2)
    if pts.size == 0:
        raise DomainError(f"points file {args.points} holds no points")
    if pts.shape[1] != a.dim:
        raise DomainError(f"points file has {pts.shape[1]} columns, expected {a.dim}")
    vals = synthesize(a, pts)
    header = ",".join(f"x{j + 1}" for j in range(a.dim)) + ",value"
    lines = [header]
    for row, v in zip(pts, vals):
        lines.append(",".join(repr(float(c)) for c in row) + "," + repr(float(v)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_operator(args) -> int:
    a = read_coefficients(args.coeffs_in)
    write_coefficients(apply_E_spectral(a, args.power), args.out)
    return EXIT_OK


def cmd_propagate(args) -> int:
    a = read_coefficients(args.coeffs_in)
    write_coefficients(semigroup_propagate(a, args.time), args.out)
    return EXIT_OK


def _parse_norm_index(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def cmd_norms(args) -> int:
    a = read_coefficients(args.coeffs_in)
    p = _parse_norm_index(args.p)
    log_val = log_weighted_seq_norm(a, SpaceParams(alpha=args.alpha, scale=args.h), p)
    print(f"alpha: {args.alpha!r}")
    print(f"h: {args.h!r}")
    print(f"p: {args.p}")
    print(f"log_norm: {log_val!r}")
    print(f"norm: {exp_or_inf(log_val)!r}")
    return EXIT_OK


def cmd_eta(args) -> int:
    a = read_coefficients(args.coeffs_in)
    res = eta_seminorm(a, SpaceParams(alpha=args.alpha, scale=args.h), args.nmax)
    print(f"alpha: {args.alpha!r}")
    print(f"h: {args.h!r}")
    print(f"value: {res.value!r}")
    print(f"log_value: {res.log_value!r}")
    print(f"argmax_N: {res.argmax}")
    print(f"still_growing: {res.growing}")
    return EXIT_OK


def cmd_classify(args) -> int:
    a = read_coefficients(args.coeffs_in)
    rep = classify_membership(a, args.alpha, floor=args.floor)
    print(f"alpha: {rep.alpha!r}")
    print(f"target_exponent: {rep.target_exponent!r}")
    print(f"verdict: {rep.verdict}")
    if rep.fit is not None:
        print(f"alpha_hat: {rep.fit.alpha_hat!r}")
        print(f"c_hat: {rep.fit.c_hat!r}")
        print(f"exponent: {rep.fit.exponent!r}")
        print(f"residual: {rep.fit.residual!r}")
        print(f"support_size: {rep.fit.support_size}")
    if rep.rate_trend is not None:
        print(f"rate_trend: {rep.rate_trend[0]!r} -> {rep.rate_trend[1]!r}")
    print(f"details: {rep.details}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import format_report, run_suite

    results = run_suite(args.suite)
    print(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


COMMANDS = {
    "quad": cmd_quad,
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "operator": cmd_operator,
    "propagate": cmd_propagate,
    "norms": cmd_norms,
    "eta": cmd_eta,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"orthlag: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError) as exc:
        print(f"orthlag: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
