"""Spectral representation of periodic vector fields on the 2*pi box.

A field is stored as the complex Fourier coefficients w_hat(k) of a real,
zero-mean, 3-component field w(x) sampled on a uniform n^3 grid.  The
coefficients are normalized so that

    w(x)     = sum_k w_hat(k) exp(+i k.x),
    w_hat(k) = (2 pi)^-3 integral w(x) exp(-i k.x) dx,

which makes Parseval read (2 pi)^-3 int |w|^2 dx = sum_k |w_hat(k)|^2 and
turns Sobolev norms into plain weighted coefficient sums,

    ||w||_s^2 = sum_{k != 0} |k|^{2s} |w_hat(k)|^2.

Wavenumber components run over 0, 1, ..., n/2-1, -n/2, ..., -1 per axis
(FFT storage order).  The Nyquist planes (component exactly -n/2) are kept
in storage but the field constructors in this package pin them to zero, so
the active mode set is closed under negation as a real field requires.
A field may instead hold only the compact dealias band of those
coefficients (Band, SpectralField.band); every mode outside it is zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
BOX_VOLUME = TWO_PI**3
_AXES = (-3, -2, -1)  # transform axes: the three grid axes of a field


class ParameterError(ValueError):
    """A rejected constructor argument; `parameter` names it."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


def check_finite(parameter: str, value: float) -> None:
    """Raise ParameterError unless value is a finite number."""
    if not np.isfinite(value):
        raise ParameterError(parameter, f"{parameter} must be finite, got {value}")


# A run on an n^3 grid holds a transform workspace of 96 n^3 bytes (one
# complex and two real 3-component arrays); a grid whose workspace would pass
# this limit, n > 2254, is refused before anything is allocated.
MAX_WORKSPACE_BYTES = 2**40


def check_grid_size(parameter: str, n: int) -> None:
    """Raise ParameterError unless n is a grid size Grid accepts, from n alone."""
    if n % 2 != 0 or n < 4:
        raise ParameterError(parameter, f"grid size must be even and >= 4, got {n}")
    if 96 * n**3 > MAX_WORKSPACE_BYTES:
        raise ParameterError(parameter, f"grid size {n} needs {96 * n**3 / 2**30:.4g} GiB of transform "
                                        f"workspace (96 n^3 bytes), more than the {MAX_WORKSPACE_BYTES // 2**30} GiB limit")


class _OnDemand:
    """A wavenumber array computed afresh from kx, ky, kz on every read and
    never stored.  It is a non-data descriptor, so an instance that keeps an
    array under the same name in its __dict__ (as Band does) reads that."""

    def __init__(self, formula):
        self.formula = formula
        self.__doc__ = formula.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else self.formula(obj)


class _Wavenumbers:
    """Wavenumbers of a cube whose every axis holds the wavenumbers k1: the
    three broadcast axis vectors, and the arrays derived from them on demand."""

    def __init__(self, k1: np.ndarray):
        s = k1.size
        self.kx = k1.reshape(s, 1, 1)
        self.ky = k1.reshape(1, s, 1)
        self.kz = k1.reshape(1, 1, s)

    @_OnDemand
    def k_sq(self) -> np.ndarray:
        """|k|^2 per mode."""
        return self.kx**2 + self.ky**2 + self.kz**2

    @_OnDemand
    def k_mag(self) -> np.ndarray:
        """|k| per mode."""
        return np.sqrt(self.k_sq)

    @_OnDemand
    def _k_sq_safe(self) -> np.ndarray:
        """|k|^2 per mode with 1 at k = 0, a divisor for the Leray projection."""
        k_sq_safe = self.k_sq.copy()
        k_sq_safe[0, 0, 0] = 1.0
        return k_sq_safe

    @_OnDemand
    def k_linf(self) -> np.ndarray:
        """|k|_inf per mode."""
        return np.maximum(np.abs(self.kx), np.maximum(np.abs(self.ky), np.abs(self.kz)))

    def wavevectors(self):
        return self.kx, self.ky, self.kz


class Grid(_Wavenumbers):
    """Uniform n^3 Fourier grid.

    It holds O(n) memory: n, the dealias cutoff and the three broadcast
    wavenumber vectors kx, ky, kz.  k_sq, k_mag, _k_sq_safe and k_linf are
    full-grid arrays computed afresh on every read, so a caller that needs
    one twice binds it once.

    The dealias cutoff retains modes with |k|_inf <= floor(dealias_fraction
    * n/2); the fraction is fixed at 2/3, the classical rule that keeps
    quadratic products alias-free on the retained band.  n must be even, at
    least 4 and at most 2254 (check_grid_size).
    """

    dealias_fraction = 2.0 / 3.0

    def __init__(self, n: int):
        check_grid_size("n", n)
        self.n = int(n)
        super().__init__(np.fft.fftfreq(n, 1.0 / n))  # 0, 1, ..., n/2-1, -n/2, ..., -1
        self.dealias_cutoff = int(np.floor(self.dealias_fraction * (n // 2)))

    def mode_index(self, k) -> tuple[int, int, int]:
        """Storage index of integer wavevector k (components may be negative)."""
        return tuple(int(c) % self.n for c in k)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.n == other.n

    def __repr__(self):
        return f"Grid(n={self.n})"


class Band(_Wavenumbers):
    """The cube of modes |k|_inf <= cutoff of a grid, stored compactly.

    Each axis holds the wavenumbers 0, 1, ..., c, -c, ..., -1 in FFT order,
    side 2c + 1.  The cutoff lies in [0, n/2), so the band is closed under
    negation and never holds a Nyquist plane.  The wavenumber attributes
    carry Grid's names, so wavevector_dot and leray_project_inplace run on
    band-shaped arrays as they do on full ones, mode by mode with the same
    values.
    """

    def __init__(self, grid: Grid, cutoff: int):
        n = grid.n
        c = int(cutoff)
        if not 0 <= c < n // 2:
            raise ParameterError("cutoff", f"band cutoff must lie in [0, {n // 2}), got {cutoff}")
        self.grid = grid
        self.cutoff = c
        self.side = 2 * c + 1
        # (full-grid slice, band slice) of the nonnegative and the negative wavenumbers
        blocks = [(slice(0, c + 1), slice(0, c + 1)), (slice(n - c, n), slice(c + 1, self.side))]
        super().__init__(np.concatenate([grid.kx.ravel()[full] for full, _ in blocks]))
        self.shape = (3,) + (self.side,) * 3
        # (full-grid index, band index) of the eight blocks pad and truncate copy
        self._block_pairs = [((..., bx[0], by[0], bz[0]), (..., bx[1], by[1], bz[1]))
                             for bx, by, bz in itertools.product(blocks, repeat=3)]
        # The stepper's Leray projections and energy records read these every
        # step, so the band (about 30% of the grid's modes) keeps them: stored
        # under the formulas' own names, they shadow the on-demand ones.
        self.k_sq = self.k_sq
        self.k_mag = self.k_mag
        self._k_sq_safe = self._k_sq_safe

    def pad(self, compact: np.ndarray, full: np.ndarray | None = None) -> np.ndarray:
        """Copy band coefficients into their places on the full grid.

        Only the in-band blocks of `full` are written, so whatever it holds
        outside the band (zeros, for a buffer made by np.zeros) stays; None
        allocates a zero array.
        """
        if full is None:
            full = np.zeros(compact.shape[:-3] + (self.grid.n,) * 3, dtype=compact.dtype)
        for f, c in self._block_pairs:
            full[f] = compact[c]
        return full

    def truncate(self, full: np.ndarray, compact: np.ndarray | None = None) -> np.ndarray:
        """The in-band coefficients of a full-grid array, into `compact` if given."""
        if compact is None:
            compact = np.empty(full.shape[:-3] + (self.side,) * 3, dtype=full.dtype)
        for f, c in self._block_pairs:
            compact[c] = full[f]
        return compact

    def restrict(self, f: SpectralField) -> np.ndarray:
        """A fresh array of the coefficients of f on this band; f may be held
        on the full grid or on any band of it."""
        if f.coeffs.shape == self.shape:
            return f.coeffs.copy()
        return self.truncate(f.padded().coeffs)


@dataclass
class SpectralField:
    """Fourier coefficients of a real, zero-mean, 3-component field.

    The coefficients cover the full grid, shape (3, n, n, n), or, with
    `band` given, only that band of it, shape band.shape: every mode outside
    the band is zero.  `modes` carries the wavenumbers of either layout, so
    diagonal multipliers and coefficient sums run on both alike; `padded()`
    gives the full-grid field.
    """

    grid: Grid
    coeffs: np.ndarray
    t: float = 0.0
    band: Band | None = None

    def __post_init__(self):
        n = self.grid.n
        if self.band is not None and self.band.grid != self.grid:
            raise ValueError(f"band of {self.band.grid} given for a field on {self.grid}")
        shape = (3, n, n, n) if self.band is None else self.band.shape
        c = np.asarray(self.coeffs)
        if c.shape != shape:
            raise ValueError(f"coefficients must have shape {shape}, got {c.shape}")
        if c.dtype != np.complex128:
            c = c.astype(np.complex128)
        self.coeffs = c

    @property
    def modes(self) -> Grid | Band:
        """The wavenumbers of the coefficients: the band's if held on one, else the grid's."""
        return self.grid if self.band is None else self.band

    def padded(self) -> "SpectralField":
        """The field on the full grid: itself, or its band zero-padded."""
        if self.band is None:
            return self
        return SpectralField(self.grid, self.band.pad(self.coeffs), self.t)

    def copy(self) -> "SpectralField":
        return self.with_coeffs(self.coeffs.copy())

    def with_coeffs(self, coeffs: np.ndarray, t: float | None = None) -> "SpectralField":
        return SpectralField(self.grid, coeffs, self.t if t is None else t, self.band)


def zeros(grid: Grid, t: float = 0.0) -> SpectralField:
    return SpectralField(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=np.complex128), t)


def inverse_transform(c: np.ndarray, out=None, work=None) -> np.ndarray:
    """Real collocation samples of coefficients c, sum_k c(k) exp(+i k.x).

    That is numpy's ifftn(c, norm="forward").real, which applies no
    scaling at all.  For a power-of-two n its bits are those of
    ifftn(c).real * n**3; for any other n they may differ at rounding level.
    work (complex) receives the transform and may be c itself, which is then
    transformed in place; out (real) receives a copy of the samples.
    Without out the result is the real part of the transform, a view of
    work when work is given.
    """
    samples = np.fft.ifftn(c, axes=_AXES, norm="forward", out=work).real
    if out is None:
        return samples
    np.copyto(out, samples)
    return out


def forward_transform(samples: np.ndarray, out=None) -> np.ndarray:
    """Coefficients of real collocation samples, into out if given.

    That is numpy's fftn(samples, norm="forward"), which scales by 1/n
    along each axis inside the transform.  For a power-of-two n that
    scaling is exact, so the bits are those of fftn(samples) / n**3; for
    any other n they may differ at rounding level.
    """
    return np.fft.fftn(samples, axes=_AXES, norm="forward", out=out)


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples of the field, shape (3, n, n, n), real."""
    c = f.padded().coeffs
    return inverse_transform(c, out=np.empty(c.shape))


def from_physical(grid: Grid, samples: np.ndarray, t: float = 0.0) -> SpectralField:
    """Transform real collocation samples into a SpectralField."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (3, grid.n, grid.n, grid.n):
        raise ValueError(
            f"samples must have shape (3, {grid.n}, {grid.n}, {grid.n}), got {samples.shape}"
        )
    return SpectralField(grid, forward_transform(samples), t)


def _mode_energy_density(f: SpectralField) -> np.ndarray:
    c = f.coeffs
    return c.real**2 + c.imag**2


def hs_norm(f: SpectralField, s: float) -> float:
    """Sobolev norm of order s; the k = 0 mode is always excluded.

    For s = 0 this is the L2 norm under the fixed (2 pi)^-3 normalization.
    """
    w2 = _mode_energy_density(f).sum(axis=0)
    g = f.modes
    if s == 0:
        total = w2.sum() - w2[0, 0, 0]
    elif s == 1:
        total = (w2 * g.k_sq).sum()
    elif s == 2:
        total = (w2 * g.k_sq**2).sum()
    else:
        k_mag = g.k_mag
        with np.errstate(divide="ignore"):
            weights = np.where(k_mag > 0, k_mag ** (2.0 * s), 0.0)
        total = (w2 * weights).sum()
    return float(np.sqrt(total))


def wavevector_dot(c: np.ndarray, grid: Grid | Band, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """k . c of 3-component coefficients on a grid or band, written into out.

    out and scratch have the shape of one component of c (scratch is a
    complex temporary); nothing else is allocated.
    """
    np.multiply(grid.kx, c[0], out=out)
    np.multiply(grid.ky, c[1], out=scratch)
    out += scratch
    np.multiply(grid.kz, c[2], out=scratch)
    out += scratch
    return out


def leray_project_inplace(c: np.ndarray, grid: Grid | Band, work: np.ndarray) -> np.ndarray:
    """Leray projection of 3-component coefficients c on a grid or band, in place.

    k = 0 is untouched.  work is a complex scratch of two components of c's
    shape; nothing else is allocated.
    """
    factor, scratch = work[0], work[1]
    wavevector_dot(c, grid, factor, scratch)
    factor /= grid._k_sq_safe
    for kj, cj in zip(grid.wavevectors(), c):
        np.multiply(kj, factor, out=scratch)
        cj -= scratch
    return c


def leray_project(f: SpectralField) -> SpectralField:
    """Projection onto divergence-free fields, mode by mode; k = 0 untouched."""
    c = f.coeffs.copy()
    leray_project_inplace(c, f.modes, np.empty_like(c[:2]))
    return f.with_coeffs(c)


def project_pn(f: SpectralField, m: int) -> SpectralField:
    """Truncation to the cube of modes with |k|_inf <= m, on the full grid."""
    f = f.padded()
    if m < 0:
        raise ValueError(f"truncation degree must be >= 0, got {m}")
    if m >= f.grid.n // 2:
        return f.copy()
    return f.with_coeffs(f.coeffs * (f.grid.k_linf <= m))


def reflected_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """conj(a(-k)) arranged on the same storage layout as a(k), on the full
    grid or on a band (both in FFT order, where -k of index i is index -i)."""
    r = coeffs
    for ax in (1, 2, 3) if coeffs.ndim == 4 else (0, 1, 2):
        r = np.roll(np.flip(r, axis=ax), 1, axis=ax)
    return np.conj(r)


def symmetry_defect(f: SpectralField) -> float:
    """Max deviation from the conjugate symmetry of a real field."""
    return float(np.abs(f.coeffs - reflected_conjugate(f.coeffs)).max())


def solenoidal_defect(f: SpectralField) -> float:
    """Relative divergence content, ||(I - P) f|| / ||f|| with P the Leray projection."""
    norm = hs_norm(f, 0)
    if norm == 0.0:
        return 0.0
    residual = f.coeffs - leray_project(f).coeffs
    return float(np.sqrt((residual.real**2 + residual.imag**2).sum()) / norm)


def validate_field(
    f: SpectralField,
    solenoidal: bool = False,
    tol: float = 1e-12,
) -> None:
    """Assert the representation invariants; raises ValueError on violation."""
    c = f.coeffs
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients contain non-finite values")
    mean = np.abs(c[:, 0, 0, 0]).max()
    scale = max(np.abs(c).max(), 1.0)
    if mean > tol * scale:
        raise ValueError(f"k = 0 mode is not zero (|w_hat(0)| = {mean:g})")
    defect = symmetry_defect(f)
    if defect > tol * scale:
        raise ValueError(f"conjugate symmetry violated (defect {defect:g})")
    if solenoidal and solenoidal_defect(f) > tol:
        raise ValueError(f"field is not solenoidal (defect {solenoidal_defect(f):g})")
