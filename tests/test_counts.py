"""Every count and truncation argument goes through one check: a Python or
NumPy integer in range is accepted, anything else is a one-line DomainError."""

import math

import numpy as np
import pytest

from orthlag.analysis import MAX_ETA_POWERS, MAX_ETA_WORK, SpaceParams, eta_seminorm, gtype_seminorm
from orthlag.core import (
    DomainError,
    laguerre_fn_derivative_sweep,
    laguerre_fn_log_christoffel,
    laguerre_fn_sweep,
    truncation_index,
    truncation_shell_counts,
)
from orthlag.fields import exp_decay_field, poly_exp_field
from orthlag.operators import MAX_OPERATOR_POWER, apply_E_spectral, log_iterate_norm
from orthlag.quadrature import default_rule_size, gauss_laguerre_rule, integrate_orthant
from orthlag.transform import CoefficientField, analyze

A = CoefficientField(1, "total", 3, {(1,): 1.0, (3,): -0.5})
PARAMS = SpaceParams(1.0, 1.0)
RULE = gauss_laguerre_rule(8)

# each public function that takes a count, called with that count
COUNTED = {
    "truncation_index dim": lambda c: truncation_index("total", c, 2),
    "truncation_index degree": lambda c: truncation_index("box", 2, c),
    "truncation_shell_counts dim": lambda c: truncation_shell_counts("box", c, 2),
    "truncation_shell_counts degree": lambda c: truncation_shell_counts("total", 1, c),
    "laguerre_fn_sweep": lambda c: laguerre_fn_sweep(c, np.array([1.0])),
    "laguerre_fn_derivative_sweep": lambda c: laguerre_fn_derivative_sweep(c, np.array([1.0])),
    "laguerre_fn_log_christoffel": lambda c: laguerre_fn_log_christoffel(c, np.array([1.0])),
    "gauss_laguerre_rule": gauss_laguerre_rule,
    "default_rule_size": default_rule_size,
    "integrate_orthant": lambda c: integrate_orthant(lambda x: 1.0, RULE, c),
    "CoefficientField dim": lambda c: CoefficientField(c, "total", 2, {}),
    "CoefficientField degree": lambda c: CoefficientField(1, "total", c, {(0,): 1.0}),
    "analyze degree": lambda c: analyze(exp_decay_field(1), c, RULE),
    "exp_decay_field": exp_decay_field,
    "poly_exp_field": lambda c: poly_exp_field([1.0, 2.0], c),
    "apply_E_spectral": lambda c: apply_E_spectral(A, c),
    "log_iterate_norm": lambda c: log_iterate_norm(A, c),
    "eta_seminorm": lambda c: eta_seminorm(A, PARAMS, c),
    "gtype_seminorm": lambda c: gtype_seminorm(A, PARAMS, P=c),
}


@pytest.mark.parametrize("bad", [-1, 2.5, 3.0, math.nan, "3"], ids=repr)
@pytest.mark.parametrize("name", list(COUNTED))
def test_bad_counts_are_one_line_domain_errors(name, bad):
    with pytest.raises(DomainError) as err:
        COUNTED[name](bad)
    assert "\n" not in str(err.value) and str(err.value).endswith(f"got {bad!r}")


def _bits(out):
    """A call's result in a form that compares bit for bit."""
    if hasattr(out, "evaluator"):  # a field
        return out.dim
    if hasattr(out, "nodes"):  # a rule
        return out.nodes.tobytes(), out.log_modified_weights.tobytes()
    if isinstance(out, (np.ndarray, tuple)):  # arrays, a tuple of them, or an EtaResult
        return np.asarray(out, dtype=float).tobytes()
    return out


@pytest.mark.parametrize("name", list(COUNTED))
def test_numpy_integer_counts_give_what_int_gives(name):
    want = _bits(COUNTED[name](3))
    for count in (np.int64(3), np.int32(3)):
        assert _bits(COUNTED[name](count)) == want


# each public function whose count has an upper bound, with that bound
BOUNDED = {
    "log_iterate_norm": (lambda c: log_iterate_norm(A, c), MAX_OPERATOR_POWER),
    "eta_seminorm": (lambda c: eta_seminorm(A, PARAMS, c), MAX_ETA_POWERS),
}


@pytest.mark.parametrize("name", list(BOUNDED))
def test_counts_above_the_upper_bound_are_one_line_domain_errors(name):
    call, cap = BOUNDED[name]
    for bad in (cap + 1, 10**400):  # 10**400 ended in an OverflowError from int -> float
        with pytest.raises(DomainError) as err:
            call(bad)
        assert "\n" not in str(err.value) and str(err.value).endswith(f"got {bad!r}")


@pytest.mark.parametrize("name", list(BOUNDED))
def test_counts_at_the_upper_bound_are_accepted(name):
    call, cap = BOUNDED[name]
    call(cap)


def test_eta_work_cap_on_both_sides():
    # d = 2, the terms (m, 0) and (0, m) for m <= 4095: 8191 terms on 4096
    # shells; N_max = 16384 is the largest whose N_max x shells stays within
    # MAX_ETA_WORK (counting terms would stop at 8193)
    m = np.arange(4096)
    index = np.concatenate([np.column_stack([m, 0 * m]), np.column_stack([0 * m[1:], m[1:]])])
    a = CoefficientField._from_arrays(2, "total", 4095, index, np.exp(-0.05 * index.sum(axis=1)))
    terms, shells = a.values.size, a._shells[2].size
    nmax = MAX_ETA_WORK // shells
    assert (terms, shells, nmax) == (8191, 4096, 16384) and nmax < MAX_ETA_POWERS
    with pytest.raises(DomainError, match=f"over {shells} nonzero shells .* above the cap of {MAX_ETA_WORK}") as err:
        eta_seminorm(a, PARAMS, nmax + 1)
    assert "\n" not in str(err.value)
    assert eta_seminorm(a, PARAMS, nmax).argmax >= 1


def test_eta_work_cap_counts_the_nonzero_terms():
    # 2^20 stored records and one term: the work is 65 x 1 shell, not 65 x 2^20 records
    values = np.zeros(2**20)
    values[1] = 1.0
    a = CoefficientField._from_arrays(1, "total", 2**20 - 1, np.arange(2**20)[:, None], values)
    result = eta_seminorm(a, SpaceParams(1, 1), 65)
    assert (result.log_value, result.argmax) == (0.0, 1)


class TestFormerlyAccepted:
    """Bad counts that got through, or ended in another error, before the one check."""

    def test_truncation_index_fractional_degree(self):
        # returned the rows 0-3
        with pytest.raises(DomainError, match="dimension must be >= 1 and degree >= 0"):
            truncation_index("total", 1, 2.5)

    def test_coefficient_field_fractional_degree(self):
        # wrote `truncation_degree: 2.5`, a file the reader then rejected
        with pytest.raises(DomainError, match="dimension must be >= 1 and degree >= 0"):
            CoefficientField(1, "total", 2.5, {(2,): 1.0})

    def test_eta_fractional_n_max(self):
        # a TypeError from range()
        with pytest.raises(DomainError, match="N_max"):
            eta_seminorm(A, PARAMS, 2.5)

    def test_shell_counts_fractional_degree(self):
        # a TypeError from range()
        with pytest.raises(DomainError, match="dimension must be >= 1 and degree >= 0"):
            truncation_shell_counts("total", 1, 2.5)

    def test_spectral_power_nan(self):
        # a ValueError from int(nan)
        with pytest.raises(DomainError, match="operator power must be a nonnegative integer"):
            apply_E_spectral(A, math.nan)

    def test_gtype_order_nan(self):
        # a ValueError from int(nan)
        with pytest.raises(DomainError, match="max order must be a nonnegative integer"):
            gtype_seminorm(A, PARAMS, P=math.nan)

    def test_integral_float_rule_size(self):
        with pytest.raises(DomainError, match="rule size"):
            gauss_laguerre_rule(3.0)


def test_truncation_kind_is_checked_first():
    for build in (lambda: truncation_index("cube", 0, -1), lambda: truncation_shell_counts("cube", 0, -1),
                  lambda: CoefficientField(0, "cube", -1, {})):
        with pytest.raises(DomainError, match="truncation kind must be one of"):
            build()
