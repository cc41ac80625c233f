import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leraydec as ld
from leraydec import filtering

from conftest import rel_l2

deltas = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
wavenumbers = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
orders = st.integers(min_value=0, max_value=50)


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        ld.FilterSpec(delta=0.0)
    with pytest.raises(ValueError):
        ld.FilterSpec(delta=-1.0)
    with pytest.raises(ValueError):
        ld.FilterSpec(delta=1.0, order=-1)
    with pytest.raises(ld.ParameterError, match=r"must be in \[0, 64\], got 65") as err:
        ld.FilterSpec(delta=1.0, order=filtering.MAX_ORDER + 1)  # the one cap, runs and studies alike
    assert err.value.parameter == "order"
    assert [f.name for f in dataclasses.fields(ld.FilterSpec)] == ["delta", "order"]


def test_frozen_transfer_values():
    assert ld.transfer_dn(1.0, ld.FilterSpec(delta=1.0, order=1)) == pytest.approx(1.5, abs=1e-14)
    assert ld.transfer_dn(1.0, ld.FilterSpec(delta=1.0, order=2)) == pytest.approx(1.75, abs=1e-14)
    assert ld.transfer_g(1.0, ld.FilterSpec(delta=1.0)) == pytest.approx(0.5, abs=1e-15)
    for order in range(51):
        assert ld.transfer_hn(0.0, ld.FilterSpec(delta=1.0, order=order)) == 1.0


def test_transfer_dn_is_truncated_series():
    # direct partial sums of (1 - g)^m
    for delta, k, order in [(0.5, 3.0, 4), (2.0, 0.7, 7), (1.0, 100.0, 3)]:
        spec = ld.FilterSpec(delta=delta, order=order)
        g = 1.0 / (1.0 + (delta * k) ** 2)
        series = sum((1.0 - g) ** m for m in range(order + 1))
        assert ld.transfer_dn(k, spec) == pytest.approx((1.0 / g) * (1 - (1 - g) ** (order + 1)), rel=1e-13)
        assert ld.transfer_dn(k, spec) * g == pytest.approx(g * series, rel=1e-13)


@given(delta=deltas, k=wavenumbers, order=orders)
@settings(max_examples=200, deadline=None)
def test_transfer_bounds(delta, k, order):
    spec = ld.FilterSpec(delta=delta, order=order)
    g = ld.transfer_g(k, spec)
    d = ld.transfer_dn(k, spec)
    h = ld.transfer_hn(k, spec)
    err = ld.deconv_error_multiplier(k, spec)
    assert 0.0 < g <= 1.0
    assert 1.0 - 1e-12 <= d < order + 1 + 1e-12
    assert 0.0 < h <= 1.0
    assert 0.0 <= err < 1.0
    assert h == pytest.approx(d * g, rel=1e-12)
    assert err == pytest.approx(1.0 - h, abs=1e-12)


@given(delta=deltas, k=wavenumbers, order=st.integers(min_value=0, max_value=20))
@settings(max_examples=200, deadline=None)
def test_transfer_monotone_in_order(delta, k, order):
    a = ld.transfer_hn(k, ld.FilterSpec(delta=delta, order=order))
    b = ld.transfer_hn(k, ld.FilterSpec(delta=delta, order=order + 1))
    assert b >= a - 1e-15


@given(delta=deltas, order=orders)
@settings(max_examples=100, deadline=None)
def test_transfer_hn_monotone_in_k(delta, order):
    spec = ld.FilterSpec(delta=delta, order=order)
    ks = np.linspace(0.0, 50.0 / delta, 257)
    h = ld.transfer_hn(ks, spec)
    assert np.all(np.diff(h) <= 1e-15)


def test_large_order_large_k_precision():
    # 1 - r^{N+1} must keep absolute precision where r is within 1e-16 of 1
    spec = ld.FilterSpec(delta=1.0, order=49)
    x = 1e8
    expected = 50.0 / x  # leading term of 1 - r^50
    h = ld.transfer_hn(np.sqrt(x), spec)
    assert h == pytest.approx(expected, rel=1e-6)


def test_subnormal_argument_reaches_exact_limits_without_overflow():
    # (delta k)^2 = 2.5e-321 is subnormal, so 1 / x would overflow; the
    # multipliers must still land on their k -> 0 limits, with overflow,
    # division and invalid operations all raising
    spec = ld.FilterSpec(delta=0.5, order=2)
    with np.errstate(all="raise"):
        assert ld.transfer_hn(1e-160, spec) == 1.0
        assert ld.transfer_dn(1e-160, spec) == 1.0
        assert ld.deconv_error_multiplier(1e-160, spec) == 0.0
    # normal x keep the log1p(1 / x) evaluation bit for bit
    x = np.logspace(-307, 307, 2001)
    m = spec.order + 1
    assert np.array_equal(filtering._one_minus_ratio_power(x, m), -np.expm1(-m * np.log1p(1.0 / x)))
    assert np.array_equal(filtering._ratio_power(x, m), np.exp(-m * np.log1p(1.0 / x)))


def test_huge_radius_reaches_exact_limits_without_overflow():
    # (delta k)^2 overflows to inf for k > 0, where g = h_N = 0, d_N = N + 1
    # and the deconvolution error is the whole field; warnings are errors here
    spec = ld.FilterSpec(delta=1e308, order=3)
    k = np.array([0.0, 1.0, 5.0, 1e300])
    with np.errstate(all="raise"):
        assert np.array_equal(ld.transfer_g(k, spec), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(ld.transfer_dn(k, spec), [1.0, 4.0, 4.0, 4.0])
        assert np.array_equal(ld.transfer_hn(k, spec), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(ld.deconv_error_multiplier(k, spec), [0.0, 1.0, 1.0, 1.0])
        assert ld.transfer_dn(2.0, spec) == 4.0
    # finite x keep the (1 + x)(1 - r^{N+1}) evaluation bit for bit
    k = np.sqrt(np.logspace(-300, 307, 2001))
    x = k**2
    assert np.array_equal(ld.transfer_dn(k, ld.FilterSpec(delta=1.0, order=3)),
                          (1.0 + x) * filtering._one_minus_ratio_power(x, 4))


def test_apply_filter_solves_helmholtz(rand16):
    spec = ld.FilterSpec(delta=0.37)
    fb = ld.apply_filter(rand16, spec)
    # (-delta^2 Lap + 1) filtered == original
    lhs = fb.with_coeffs(fb.coeffs - spec.delta**2 * (-fb.grid.k_sq * fb.coeffs))
    assert rel_l2(lhs, rand16) < 1e-13


def test_van_cittert_matches_closed_form(rand16):
    for order in range(11):
        spec = ld.FilterSpec(delta=0.7, order=order)
        fb = ld.apply_filter(rand16, spec)
        assert rel_l2(ld.van_cittert(fb, spec), ld.apply_dn(fb, spec)) < 1e-12


def test_deconv_error_field_matches_difference(rand16):
    spec = ld.FilterSpec(delta=0.4, order=3)
    reconstructed = ld.apply_dn(ld.apply_filter(rand16, spec), spec)
    direct = rand16.with_coeffs(rand16.coeffs - reconstructed.coeffs)
    assert rel_l2(ld.deconv_error_field(rand16, spec), direct) < 1e-12


def test_deconv_error_rate_on_single_mode(grid16):
    f = ld.single_mode(grid16, (1, 0, 0))
    for order in (0, 1, 2):
        errs = []
        for delta in (0.1, 0.05):
            spec = ld.FilterSpec(delta=delta, order=order)
            errs.append(ld.hs_norm(ld.deconv_error_field(f, spec), 0))
        observed = np.log2(errs[0] / errs[1])
        assert observed == pytest.approx(2 * (order + 1), abs=0.1)


def test_cutoff_closed_form_values():
    for delta, expected in [(1.0, 1), (0.5, 2), (0.25, 4)]:
        assert ld.cutoff_frequency(ld.FilterSpec(delta=delta, order=0)) == expected
    # exact root at delta = 1, N = 0 is 1 (h(1) = 1/2 exactly)
    assert ld.cutoff_frequency_exact(ld.FilterSpec(delta=1.0, order=0)) == pytest.approx(1.0, abs=1e-14)


def test_cutoff_bisection_agrees_with_closed_form():
    for delta in (1.0, 0.5, 0.25, 0.1):
        for order in (0, 1, 5, 17, 50):
            spec = ld.FilterSpec(delta=delta, order=order)
            assert filtering.cutoff_root(spec) == pytest.approx(
                ld.cutoff_frequency_exact(spec), abs=1e-9, rel=1e-9
            )


def test_cutoff_bisection_holds_to_the_largest_float():
    # the bisection runs at delta = 1, so a tiny radius scales a root near 1, not a bracket near inf
    for delta in (1e-300, 1e-307, 1e-308):
        for order in (0, 1):
            spec = ld.FilterSpec(delta=delta, order=order)
            assert filtering.cutoff_root(spec) == pytest.approx(ld.cutoff_frequency_exact(spec), rel=1e-9)
    assert filtering.cutoff_root(ld.FilterSpec(delta=1e-308, order=50)) == float("inf")


def test_cutoff_is_the_last_integer_passed_at_half_amplitude():
    # the bisected root of radius 1e-5 reads 99999.99999999715, yet h_0(100000) is exactly 1/2
    for j in range(12):
        for order in (0, 1, 5, 50):
            spec = ld.FilterSpec(delta=10.0**-j, order=order)
            k_c = ld.cutoff_frequency(spec)
            assert ld.transfer_hn(float(k_c), spec) >= 0.5 > ld.transfer_hn(k_c + 1.0, spec), (j, order, k_c)
    assert ld.cutoff_frequency(ld.FilterSpec(delta=1e-5)) == 100000


def test_cutoff_monotone():
    seq = [ld.cutoff_frequency(ld.FilterSpec(delta=1.0, order=o)) for o in range(51)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    for order in (0, 7, 23):
        row = [ld.cutoff_frequency(ld.FilterSpec(delta=d, order=order)) for d in (1.0, 0.5, 0.25, 0.125)]
        assert all(b >= a for a, b in zip(row, row[1:]))


def test_cutoff_grows_like_sqrt_order():
    # k_c ~ sqrt((N + 1) / ln 2) / delta for large N
    spec = ld.FilterSpec(delta=1.0, order=50)
    predicted = np.sqrt(51.0 / np.log(2.0))
    assert ld.cutoff_frequency_exact(spec) == pytest.approx(predicted, rel=0.02)


def test_operator_norm_approaches_order_plus_one():
    for order in (1, 3, 7):
        spec = ld.FilterSpec(delta=1.0, order=order)
        nm = ld.operator_norm_dn(spec, k_max=1e3)
        assert nm <= order + 1
        assert (order + 1) - nm < 1e-3
