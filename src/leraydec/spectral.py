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
A band stores only its kz >= 0 half: a real field's coefficients are
Hermitian, w_hat(-k) = conj w_hat(k), so the kz < 0 half is redundant.
Padding a band to the full grid fills that half by conjugate reflection,
and a coefficient sum over a band counts each kz > 0 coefficient twice,
once for its unstored conjugate (the wavenumbers' `_weight`).
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
    three broadcast axis vectors, and the arrays derived from them on demand.
    `_weight` is the number of modes each stored coefficient stands for in a
    coefficient sum, broadcast against a component: every mode is stored
    once, so it weighs 1."""

    _weight = 1.0

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

    def wavevectors(self):
        return self.kx, self.ky, self.kz


class Grid(_Wavenumbers):
    """Uniform n^3 Fourier grid.

    It holds O(n) memory: n, the dealias cutoff and the three broadcast
    wavenumber vectors kx, ky, kz.  k_sq, k_mag and _k_sq_safe are
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
    """The kz >= 0 half of the cube of modes |k|_inf <= cutoff of a grid,
    stored compactly.

    The x and y axes hold the wavenumbers 0, 1, ..., c, -c, ..., -1 in FFT
    order, side 2c + 1, and the z axis holds 0, 1, ..., c, so the shape is
    (3, side, side, c + 1), whatever n is.  The cutoff lies in [0, n/2), so
    the cube is closed under negation and never holds a Nyquist plane.  A
    real field's kz < 0 coefficients are the conjugates of its kz > 0 ones,
    w(-k) = conj w(k): pad writes them by that reflection, restrict drops
    them, and `_weight` counts each kz > 0 coefficient twice in a sum.  The
    wavenumber attributes carry Grid's names, so wavevector_dot and
    leray_project_inplace run on band-shaped arrays as they do on full ones,
    mode by mode with the same values; both commute exactly with the
    conjugate reflection.
    """

    def __init__(self, grid: Grid, cutoff: int):
        n = grid.n
        c = int(cutoff)
        if not 0 <= c < n // 2:
            raise ParameterError("cutoff", f"band cutoff must lie in [0, {n // 2}), got {cutoff}")
        self.grid = grid
        self.cutoff = c
        self.side = side = 2 * c + 1
        super().__init__(np.concatenate([grid.kx.ravel()[:c + 1], grid.kx.ravel()[n - c:]]))
        self.kz = self.kz[..., :c + 1]
        self.shape = (3, side, side, c + 1)
        self._weight = np.where(self.kz > 0, 2.0, 1.0)
        # (full-grid slice of k, band slice of -k) along x and y: 0, then 1..c, then -c..-1
        mirror = [(slice(0, 1), slice(0, 1)), (slice(1, c + 1), slice(side - 1, c, -1)),
                  (slice(n - c, n), slice(c, 0, -1))]
        # (full-grid index of kz = -c..-1, band index of their conjugates' kz = c..1)
        self._mirror_pairs = [((..., mx[0], my[0], slice(n - c, n)), (..., mx[1], my[1], slice(c, 0, -1)))
                              for mx, my in itertools.product(mirror, repeat=2)]
        # The stepper's Leray projections and energy records read these every
        # step, so the band (about 15% of the grid's coefficients) keeps them:
        # stored under the formulas' own names, they shadow the on-demand ones.
        self.k_sq = self.k_sq
        self.k_mag = self.k_mag
        self._k_sq_safe = self._k_sq_safe

    def pad(self, compact: np.ndarray, full: np.ndarray | None = None) -> np.ndarray:
        """Copy band coefficients into their places on the full grid, and
        their conjugates into the places of the negated wavenumbers.

        Only the in-band modes of `full` are written, so whatever it holds
        outside the band (zeros, for a buffer made by np.zeros) stays; None
        allocates a zero array.  The kz < 0 half is conj(compact(-k)),
        conjugated from reflected views of `compact` straight into place.
        """
        if full is None:
            full = np.zeros(compact.shape[:-3] + (self.grid.n,) * 3, dtype=compact.dtype)
        for c, f in _blocks(self.side, self.grid.n, self.cutoff):
            full[f] = compact[c]
        for f, c in self._mirror_pairs:
            np.conjugate(compact[c], out=full[f])
        return full

    def restrict(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """This band's coefficients of `coeffs`, the full grid of any n or a
        band of any grid, into `out` if given.  The source's cutoff is read
        from its x/y side as (side - 1) // 2; the four kz >= 0 blocks up to
        the smaller cutoff are copied, and the band is zero-filled first only
        when the source is the narrower."""
        side, side_y, nz = coeffs.shape[-3:] if coeffs.ndim >= 3 else (0, 0, 0)
        if not (side == side_y > 0 and nz == (side if side % 2 == 0 else (side + 1) // 2)):
            raise ValueError(f"coefficients of shape {coeffs.shape} are neither a full grid nor a band")
        m = min((side - 1) // 2, self.cutoff)
        if out is None:
            out = np.empty(coeffs.shape[:-3] + self.shape[1:], dtype=coeffs.dtype)
        if m < self.cutoff:
            out.fill(0.0)
        for src, dst in _blocks(side, self.side, m):
            out[dst] = coeffs[src]
        return out


def _blocks(src_side: int, dst_side: int, m: int) -> list:
    """(source, destination) index pairs of the four kz >= 0 blocks |k|_inf <= m
    between two layouts of these x/y sides in FFT order: 0..m, then -m..-1."""
    rows = [(slice(0, m + 1), slice(0, m + 1)), (slice(src_side - m, src_side), slice(dst_side - m, dst_side))]
    kz = slice(0, m + 1)
    return [((..., sx, sy, kz), (..., dx, dy, kz)) for (sx, dx), (sy, dy) in itertools.product(rows, repeat=2)]


def integration_band(grid: Grid) -> Band:
    """The dealias band a run integrates; deconv_unit_cost, consistency_report
    and model_error (on the coarser grid's) work on it too."""
    return Band(grid, grid.dealias_cutoff)


@dataclass
class SpectralField:
    """Fourier coefficients of a real, zero-mean, 3-component field.

    The coefficients cover the full grid, shape (3, n, n, n), or, with
    `band` given, only the kz >= 0 half of that band, shape band.shape:
    every mode outside the band is zero and every kz < 0 one is the
    conjugate of its negation.  `modes` carries the wavenumbers (and the
    sum weights) of either layout, so diagonal multipliers and coefficient
    sums run on both alike; `padded()` gives the full-grid field.
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
        """The field on the full grid: itself, or its band padded with zeros
        and with the conjugates of its kz > 0 half."""
        if self.band is None:
            return self
        return SpectralField(self.grid, self.band.pad(self.coeffs), self.t)

    def copy(self) -> "SpectralField":
        return self.with_coeffs(self.coeffs.copy())

    def with_coeffs(self, coeffs: np.ndarray, t: float | None = None) -> "SpectralField":
        return SpectralField(self.grid, coeffs, self.t if t is None else t, self.band)


def zeros(grid: Grid, t: float = 0.0) -> SpectralField:
    return SpectralField(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=np.complex128), t)


def inverse_transform(c: np.ndarray, band: Band | None = None, out=None, work=None) -> np.ndarray:
    """Real collocation samples of coefficients c, sum_k c(k) exp(+i k.x).

    c covers the full grid, or only `band` of it when that is given.
    That is numpy's ifftn(c, norm="forward").real, which applies no
    scaling at all.  For a power-of-two n its bits are those of
    ifftn(c).real * n**3; for any other n they may differ at rounding level.
    work (complex, full grid) receives the transform in place and may be c
    itself.  With a band, work is required: it is zero-filled, then the
    band is padded into it.
    out (real) receives a copy of the samples; without it the result is the
    real part of the transform, a view of work when work is given.
    """
    if band is not None:
        work.fill(0.0)
        c = band.pad(c, work)
    samples = np.fft.ifftn(c, axes=_AXES, norm="forward", out=work).real
    if out is None:
        return samples
    np.copyto(out, samples)
    return out


def forward_transform(samples: np.ndarray, band: Band | None = None, out=None, work=None) -> np.ndarray:
    """Coefficients of real collocation samples, into out if given.

    That is numpy's fftn(samples, norm="forward"), which scales by 1/n
    along each axis inside the transform.  For a power-of-two n that
    scaling is exact, so the bits are those of fftn(samples) / n**3; for
    any other n they may differ at rounding level.  With `band` given, the
    transform goes into work (complex, full grid) and only the band of it
    is kept, into out; that truncation is the dealiasing.  samples must not
    share memory with the buffer the transform writes (out without a band,
    work with one): the transform would overwrite its input as it reads it.
    """
    if np.may_share_memory(samples, work if band is not None else out):
        raise ValueError("samples share memory with the transform's output buffer")
    if band is None:
        return np.fft.fftn(samples, axes=_AXES, norm="forward", out=out)
    return band.restrict(np.fft.fftn(samples, axes=_AXES, norm="forward", out=work), out)


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples of the field, shape (3, n, n, n), real."""
    work = np.empty((3,) + (f.grid.n,) * 3, dtype=np.complex128)
    return inverse_transform(f.coeffs, f.band, out=np.empty(work.shape), work=work)


def from_physical(grid: Grid, samples: np.ndarray, t: float = 0.0) -> SpectralField:
    """Transform real collocation samples into a SpectralField."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (3, grid.n, grid.n, grid.n):
        raise ValueError(
            f"samples must have shape (3, {grid.n}, {grid.n}, {grid.n}), got {samples.shape}"
        )
    return SpectralField(grid, forward_transform(samples), t)


def _mode_inner(f: SpectralField, g: SpectralField) -> np.ndarray:
    """Re f_hat . conj(g_hat) summed over components, weighted by the modes
    each stored coefficient stands for, of two fields on one layout; the one
    spelling of every weighted mode sum, the energy density for g = f."""
    a, b = f.coeffs, g.coeffs
    return (a.real * b.real + a.imag * b.imag).sum(axis=0) * f.modes._weight


def hs_norm(f: SpectralField, s: float) -> float:
    """Sobolev norm of order s; the k = 0 mode is always excluded.

    For s = 0 this is the L2 norm under the fixed (2 pi)^-3 normalization.
    """
    g = f.modes
    w2 = _mode_inner(f, f)
    if s == 0:
        total = w2.sum() - w2[0, 0, 0]
    elif s == 1:
        total = (w2 * g.k_sq).sum()
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


def reflected_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """conj(a(-k)) arranged on the same storage layout as a(k) on the full
    grid (in FFT order, where -k of index i is index -i)."""
    r = coeffs
    for ax in _AXES:
        r = np.roll(np.flip(r, axis=ax), 1, axis=ax)
    return np.conj(r)


def symmetry_defect(f: SpectralField) -> float:
    """Max deviation from the conjugate symmetry of a real field, checked
    on the full grid (a band field's padding is symmetric off kz = 0 by
    construction)."""
    c = f.padded().coeffs
    return float(np.abs(c - reflected_conjugate(c)).max())


def solenoidal_defect(f: SpectralField) -> float:
    """Relative divergence content, ||(I - P) f|| / ||f|| with P the Leray projection."""
    norm = hs_norm(f, 0)
    if norm == 0.0:
        return 0.0
    # the projection leaves k = 0 alone, so hs_norm's exclusion of it drops a zero
    return hs_norm(f.with_coeffs(f.coeffs - leray_project(f).coeffs), 0) / norm


def validate_field(
    f: SpectralField,
    solenoidal: bool = False,
    tol: float = 1e-12,
) -> None:
    """Assert the representation invariants, on the full grid; raises
    ValueError on violation."""
    f = f.padded()
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
