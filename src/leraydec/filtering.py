"""Helmholtz differential filtering and van Cittert deconvolution.

On the periodic box every operator here is a diagonal multiplier on Fourier
coefficients, so it applies to a field on the full grid or on a band alike.
Writing x = (delta k)^2, the filter (-delta^2 Lap + 1)^-1 has
multiplier

    g(k) = 1 / (1 + x),

N van Cittert corrections compose to the partial geometric series

    d_N(k) = sum_{m=0..N} (1 - g)^m = (1 + x) * (1 - r^{N+1}),   r = x / (1 + x),

and the combined smoother (deconvolution after filtering) has

    h_N(k) = d_N(k) * g(k) = 1 - r^{N+1}.

Powers of r are evaluated through log1p/expm1 so that 1 - r^{N+1} keeps full
precision for large orders and large delta*k, where r is within rounding of
one.  The residual multiplier r^{N+1} is exactly the relative amplitude of
the deconvolution error w - d_N(filtered w), which is how the O(delta^{2N+2})
accuracy of the family shows up mode by mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import ParameterError, SpectralField, check_finite

MAX_ORDER = 64  # the one cap on the deconvolution order, for runs and studies alike


@dataclass(frozen=True)
class FilterSpec:
    """Filter radius delta > 0, finite, and deconvolution order in [0, MAX_ORDER]."""

    delta: float
    order: int = 0

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ParameterError("delta", f"filter radius must be positive, got {self.delta}")
        check_finite("delta", self.delta)
        if not 0 <= self.order <= MAX_ORDER:
            raise ParameterError("order", f"deconvolution order must be in [0, {MAX_ORDER}], got {self.order}")


def _prepare(k):
    arr = np.asarray(k, dtype=np.float64)
    return arr, arr.ndim == 0


def _x_of(k: np.ndarray, spec: FilterSpec) -> np.ndarray:
    # tiny delta*k underflows to a subnormal or zero: its correctly rounded value;
    # huge delta*k overflows to inf, where g = h_N = 0 are the exact limits
    with np.errstate(under="ignore", over="ignore"):
        return (spec.delta * k) ** 2


def _log_inverse_ratio(x: np.ndarray) -> np.ndarray:
    """-log(x / (1 + x)) = log1p(1 / x) for x > 0.

    1 / x overflows for subnormal x, where log1p(x) - log(x) is exact to
    rounding instead; normal x take the log1p(1 / x) branch unchanged.
    """
    out = np.empty_like(x)
    normal = x >= np.finfo(np.float64).tiny
    out[normal] = np.log1p(1.0 / x[normal])
    sub = x[~normal]
    out[~normal] = np.log1p(sub) - np.log(sub)
    return out


def _ratio_power(x: np.ndarray, m: int) -> np.ndarray:
    """(x / (1 + x))^m, exact 0 at x = 0, full precision for x >> 1."""
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(under="ignore"):  # r^m below the smallest subnormal is 0
        out[pos] = np.exp(-m * _log_inverse_ratio(x[pos]))
    return out


def _one_minus_ratio_power(x: np.ndarray, m: int) -> np.ndarray:
    """1 - (x / (1 + x))^m without cancellation; exact 1 at x = 0."""
    out = np.ones_like(x)
    pos = x > 0
    out[pos] = -np.expm1(-m * _log_inverse_ratio(x[pos]))
    return out


def transfer_g(k, spec: FilterSpec):
    """Multiplier of the differential filter, 1 / (1 + (delta k)^2)."""
    arr, scalar = _prepare(k)
    out = 1.0 / (1.0 + _x_of(arr, spec))
    return float(out) if scalar else out


def transfer_dn(k, spec: FilterSpec):
    """Multiplier of the order-N van Cittert deconvolution operator."""
    arr, scalar = _prepare(k)
    x = _x_of(arr, spec)
    out = np.full_like(x, spec.order + 1.0)  # the limit where x overflows to inf
    np.multiply(1.0 + x, _one_minus_ratio_power(x, spec.order + 1), out=out, where=np.isfinite(x))
    return float(out) if scalar else out


def transfer_hn(k, spec: FilterSpec):
    """Multiplier of the combined smoother, deconvolution applied after filtering."""
    arr, scalar = _prepare(k)
    out = _one_minus_ratio_power(_x_of(arr, spec), spec.order + 1)
    return float(out) if scalar else out


def deconv_error_multiplier(k, spec: FilterSpec):
    """Relative amplitude of w - D_N(filtered w) at wavenumber magnitude k."""
    arr, scalar = _prepare(k)
    out = _ratio_power(_x_of(arr, spec), spec.order + 1)
    return float(out) if scalar else out


def transfer_exact(k, spec: FilterSpec):
    """Multiplier of exact deconvolution, the inverse filter 1 + (delta k)^2."""
    arr, scalar = _prepare(k)
    out = 1.0 + _x_of(arr, spec)
    return float(out) if scalar else out


def apply_filter(f: SpectralField, spec: FilterSpec) -> SpectralField:
    """Differential filter as a diagonal multiply."""
    return f.with_coeffs(f.coeffs * transfer_g(f.modes.k_mag, spec))


def apply_dn(fbar: SpectralField, spec: FilterSpec) -> SpectralField:
    """Order-N deconvolution of an already filtered field, closed form."""
    return fbar.with_coeffs(fbar.coeffs * transfer_dn(fbar.modes.k_mag, spec))


def apply_hn(f: SpectralField, spec: FilterSpec) -> SpectralField:
    """Deconvolved filtering of an unfiltered field, closed form."""
    return f.with_coeffs(f.coeffs * transfer_hn(f.modes.k_mag, spec))


def van_cittert(fbar: SpectralField, spec: FilterSpec) -> SpectralField:
    """Order-N deconvolution by fixed-point iteration.

    Starting from w_0 = fbar, each step adds the filtered residual,
    w_{m+1} = w_m + (fbar - G w_m); after N steps this equals the closed-form
    operator applied by apply_dn.  One filter application per iteration, so
    cost grows linearly with the order.
    """
    g = transfer_g(fbar.modes.k_mag, spec)
    w = np.empty_like(fbar.coeffs)
    van_cittert_iterate(g, fbar.coeffs, w, np.empty_like(w), spec.order)
    return fbar.with_coeffs(w)


def van_cittert_iterate(g, fbar, out, scratch, order: int):
    """The van Cittert kernel on coefficient arrays: out <- D_N fbar, in place.

    g is the filter multiplier; out and scratch have the shape of fbar and
    overlap neither it nor each other.  Nothing is allocated, so the solver
    runs this on its per-run band workspace, and the unit-cost
    microbenchmark (experiments.deconv_unit_cost) times it on arrays of that
    same shape.
    """
    np.copyto(out, fbar)
    for _ in range(order):
        np.multiply(g, out, out=scratch)
        np.subtract(fbar, scratch, out=scratch)
        out += scratch
    return out


def deconv_error_field(f: SpectralField, spec: FilterSpec) -> SpectralField:
    """f - D_N(filtered f), evaluated through the closed-form multiplier."""
    return f.with_coeffs(f.coeffs * deconv_error_multiplier(f.modes.k_mag, spec))


def cutoff_frequency_exact(spec: FilterSpec) -> float:
    """Closed-form root of h_N(k) = 1/2 in continuous k."""
    return (1.0 / spec.delta) * (2.0 ** (1.0 / (spec.order + 1)) - 1.0) ** -0.5


def cutoff_root(spec: FilterSpec) -> float:
    """Root of h_N(k) = 1/2 located by bisection on the monotone multiplier.

    h_N reads k only through delta k, so the bisection runs at delta = 1 and
    its root is divided by delta once: it is inf only past the largest float.
    """
    unit = replace(spec, delta=1.0)
    lo, hi = 0.0, 1.0
    while transfer_hn(hi, unit) > 0.5:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transfer_hn(mid, unit) > 0.5:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi) / spec.delta


def cutoff_frequency(spec: FilterSpec) -> int:
    """Largest integer wavenumber the smoother passes at amplitude >= 1/2.

    The bisected root is accurate to about 1e-13 relative, so its floor is
    checked against h_N itself: it steps up while the next integer still
    passes and down while it does not pass itself.  Past 2^53, where
    neighbouring integers round to one float, it stays the floor.
    """
    c = int(np.floor(cutoff_root(spec)))
    while float(c + 1) != c and transfer_hn(c + 1.0, spec) >= 0.5:
        c += 1
    while float(c - 1) != c and transfer_hn(float(c), spec) < 0.5:
        c -= 1
    return c


def operator_norm_dn(spec: FilterSpec, k_max: float) -> float:
    """Supremum of the deconvolution multiplier over 0 <= k <= k_max.

    d_N is nondecreasing in k and approaches N + 1 from below, so the sup
    sits at k_max; a sweep of 4096 equal steps is kept as a guard on that
    monotonicity.
    """
    ks = np.linspace(0.0, k_max, 4097)
    return float(transfer_dn(ks, spec).max())

