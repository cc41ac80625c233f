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


class _Wavenumbers:
    """Wavenumber arrays of a cube whose every axis holds the wavenumbers k1."""

    def __init__(self, k1: np.ndarray):
        s = k1.size
        self.kx = k1.reshape(s, 1, 1)
        self.ky = k1.reshape(1, s, 1)
        self.kz = k1.reshape(1, 1, s)
        self.k_sq = self.kx**2 + self.ky**2 + self.kz**2
        self.k_mag = np.sqrt(self.k_sq)
        self._k_sq_safe = self.k_sq.copy()
        self._k_sq_safe[0, 0, 0] = 1.0

    def wavevectors(self):
        return self.kx, self.ky, self.kz


class Grid(_Wavenumbers):
    """Uniform n^3 Fourier grid with cached wavenumber arrays.

    The dealias cutoff retains modes with |k|_inf <= floor(dealias_fraction
    * n/2); the fraction is fixed at 2/3, the classical rule that keeps
    quadratic products alias-free on the retained band.
    """

    dealias_fraction = 2.0 / 3.0

    def __init__(self, n: int):
        if n % 2 != 0 or n < 4:
            raise ParameterError("n", f"grid size must be even and >= 4, got {n}")
        self.n = int(n)
        super().__init__(np.fft.fftfreq(n, 1.0 / n))  # 0, 1, ..., n/2-1, -n/2, ..., -1
        self.k_linf = np.maximum(np.abs(self.kx), np.maximum(np.abs(self.ky), np.abs(self.kz)))

        self.dealias_cutoff = int(np.floor(self.dealias_fraction * (n // 2)))
        self.dealias_mask = self.k_linf <= self.dealias_cutoff
        # Modes whose negation is also representable; excludes the -n/2 planes.
        self.negation_closed_mask = self.k_linf <= (n // 2 - 1)

    def mode_index(self, k) -> tuple[int, int, int]:
        """Storage index of integer wavevector k (components may be negative)."""
        return tuple(int(c) % self.n for c in k)

    def mesh(self):
        """Physical collocation points as three (n, n, n) arrays."""
        x1 = TWO_PI * np.arange(self.n) / self.n
        return np.meshgrid(x1, x1, x1, indexing="ij")

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
        self._blocks = [(slice(0, c + 1), slice(0, c + 1)), (slice(n - c, n), slice(c + 1, self.side))]
        super().__init__(np.concatenate([grid.kx.ravel()[full] for full, _ in self._blocks]))
        self.shape = (3,) + (self.side,) * 3

    def _block_pairs(self):
        for bx, by, bz in itertools.product(self._blocks, repeat=3):
            yield (..., bx[0], by[0], bz[0]), (..., bx[1], by[1], bz[1])

    def pad(self, compact: np.ndarray, full: np.ndarray | None = None) -> np.ndarray:
        """Copy band coefficients into their places on the full grid.

        Only the in-band blocks of `full` are written, so whatever it holds
        outside the band (zeros, for a buffer made by np.zeros) stays; None
        allocates a zero array.
        """
        if full is None:
            full = np.zeros(compact.shape[:-3] + (self.grid.n,) * 3, dtype=compact.dtype)
        for f, c in self._block_pairs():
            full[f] = compact[c]
        return full

    def truncate(self, full: np.ndarray, compact: np.ndarray | None = None) -> np.ndarray:
        """The in-band coefficients of a full-grid array, into `compact` if given."""
        if compact is None:
            compact = np.empty(full.shape[:-3] + (self.side,) * 3, dtype=full.dtype)
        for f, c in self._block_pairs():
            compact[c] = full[f]
        return compact


@dataclass
class SpectralField:
    """Fourier coefficients of a real, zero-mean, 3-component field."""

    grid: Grid
    coeffs: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        n = self.grid.n
        c = np.asarray(self.coeffs)
        if c.shape != (3, n, n, n):
            raise ValueError(f"coefficients must have shape (3, {n}, {n}, {n}), got {c.shape}")
        if c.dtype != np.complex128:
            c = c.astype(np.complex128)
        self.coeffs = c

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), self.t)

    def with_coeffs(self, coeffs: np.ndarray, t: float | None = None) -> "SpectralField":
        return SpectralField(self.grid, coeffs, self.t if t is None else t)


def zeros(grid: Grid, t: float = 0.0) -> SpectralField:
    return SpectralField(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=np.complex128), t)


def inverse_transform(c: np.ndarray, out=None, work=None) -> np.ndarray:
    """Real collocation samples of coefficients c, ifftn(c).real * n**3.

    out (real, the samples) and work (complex, the unscaled transform) say
    where results go, as numpy's out= does; None allocates a fresh array.
    """
    n3 = c.shape[-1] ** 3
    return np.multiply(np.fft.ifftn(c, axes=_AXES, out=work).real, n3, out=out)


def forward_transform(samples: np.ndarray, out=None) -> np.ndarray:
    """Coefficients of real collocation samples, fftn(samples) / n**3, into out if given."""
    n3 = samples.shape[-1] ** 3
    return np.divide(np.fft.fftn(samples, axes=_AXES, out=out), n3, out=out)


def to_physical(f: SpectralField) -> np.ndarray:
    """Collocation samples of the field, shape (3, n, n, n), real."""
    return inverse_transform(f.coeffs)


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
    g = f.grid
    if s == 0:
        total = w2.sum() - w2[0, 0, 0]
    elif s == 1:
        total = (w2 * g.k_sq).sum()
    elif s == 2:
        total = (w2 * g.k_sq**2).sum()
    else:
        with np.errstate(divide="ignore"):
            weights = np.where(g.k_sq > 0, g.k_mag ** (2.0 * s), 0.0)
        total = (w2 * weights).sum()
    return float(np.sqrt(total))


def energy(f: SpectralField) -> float:
    """Total kinetic energy (1/2) sum_k |w_hat(k)|^2."""
    return float(0.5 * _mode_energy_density(f).sum())


def inner(f: SpectralField, g: SpectralField) -> float:
    """Real L2 pairing (2 pi)^-3 int f.g dx = sum_k Re f_hat(k).conj(g_hat(k))."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    c, d = f.coeffs, g.coeffs
    return float((c.real * d.real + c.imag * d.imag).sum())


def shell_spectrum(f: SpectralField) -> np.ndarray:
    """Shell energies E(m), m = 1, 2, ..., with shell m holding m-1 < |k| <= m.

    The shell count follows the largest |k| present on the grid (the cube
    corners reach beyond n/2), so the shell energies regroup exactly the same
    summands as energy(): sum(shell_spectrum(f)) == energy(f) up to rounding.
    """
    density = 0.5 * _mode_energy_density(f).sum(axis=0)
    idx = np.ceil(f.grid.k_mag).astype(np.int64)
    shells = np.bincount(idx.ravel(), weights=density.ravel())
    return shells[1:]


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
    n = f.grid.n
    c = f.coeffs.copy()
    leray_project_inplace(c, f.grid, np.empty((2, n, n, n), dtype=np.complex128))
    return f.with_coeffs(c)


def project_pn(f: SpectralField, m: int) -> SpectralField:
    """Truncation to the cube of modes with |k|_inf <= m."""
    if m < 0:
        raise ValueError(f"truncation degree must be >= 0, got {m}")
    if m >= f.grid.n // 2:
        return f.copy()
    return f.with_coeffs(f.coeffs * (f.grid.k_linf <= m))


def project_ball(f: SpectralField, k_max: float) -> SpectralField:
    """Truncation to the ball of modes with Euclidean |k| <= k_max."""
    if k_max < 0:
        raise ValueError(f"ball radius must be >= 0, got {k_max}")
    return f.with_coeffs(f.coeffs * (f.grid.k_mag <= k_max))


def gradient(f: SpectralField) -> np.ndarray:
    """Spectral gradient; out[i, j] holds the coefficients of d_j f_i."""
    g = f.grid
    n = g.n
    out = np.empty((3, 3, n, n, n), dtype=np.complex128)
    for j, kj in enumerate(g.wavevectors()):
        out[:, j] = 1j * kj * f.coeffs
    return out


def laplacian(f: SpectralField) -> SpectralField:
    return f.with_coeffs(-f.grid.k_sq * f.coeffs)


def curl(f: SpectralField) -> SpectralField:
    g = f.grid
    c = f.coeffs
    out = np.empty_like(c)
    out[0] = 1j * (g.ky * c[2] - g.kz * c[1])
    out[1] = 1j * (g.kz * c[0] - g.kx * c[2])
    out[2] = 1j * (g.kx * c[1] - g.ky * c[0])
    return f.with_coeffs(out)


def divergence(f: SpectralField) -> np.ndarray:
    """Scalar coefficients of div f."""
    out = np.empty(f.coeffs.shape[1:], dtype=np.complex128)
    wavevector_dot(f.coeffs, f.grid, out, np.empty_like(out))
    return np.multiply(1j, out, out=out)


def reflected_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """conj(a(-k)) arranged on the same storage layout as a(k)."""
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
